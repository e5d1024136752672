import hashlib
import json
import math

import numpy as np
import pytest

from quadsig.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestRate:
    def test_reference_value(self, capsys):
        rc, out, _ = run(capsys, "rate", "--sigma-x2", "1", "--sigma-y2", "1",
                         "--d", "1.5")
        assert rc == 0
        assert out.strip() == "2.000000"

    def test_infinity_token(self, capsys):
        rc, out, _ = run(capsys, "rate", "--sigma-x2", "1", "--sigma-y2", "1",
                         "--d", "2.0")
        assert rc == 0
        assert out.strip() == "inf"

    def test_zero_at_floor(self, capsys):
        rc, out, _ = run(capsys, "rate", "--sigma-x2", "1", "--sigma-y2", "0.25",
                         "--d", "0.25")
        assert rc == 0
        assert out.strip() == "0.000000"

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--sigma-x2", "1", "--sigma-y2", "1"])
        assert exc.value.code == 2

    def test_nan_d_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "rate", "--sigma-x2", "1", "--sigma-y2", "1",
                           "--d", "nan")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: d must be a finite real number")

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "rate.csv"
        rc, _, _ = run(capsys, "rate", "--sigma-x2", "1", "--sigma-y2", "1",
                       "--d", "1.5", "--out", str(path))
        assert rc == 0
        lines = path.read_text().splitlines()
        cfg = json.loads(lines[0][1:])
        assert cfg["command"] == "rate" and cfg["d"] == 1.5
        assert lines[2].endswith("2.000000")


class TestSweep:
    def test_variance_sweep_peaks_at_mismatch_optimum(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--axis", "sigma_y2", "--start", "0.01",
                         "--stop", "2.0", "--step", "0.01", "--sigma-x2", "1",
                         "--d", "0.4")
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        assert xs[int(np.argmax(ys))] == pytest.approx(0.6, abs=0.011)
        assert ys.max() == pytest.approx(0.368483, abs=1e-5)
        # zero until d reaches the variance-mismatch floor
        assert all(y == 0.0 for x, y in zip(xs, ys) if x <= (1 - math.sqrt(0.4)) ** 2)

    def test_distortion_sweep_monotonicity(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--axis", "d", "--start", "0.02",
                         "--stop", "1.9", "--step", "0.02", "--sigma2", "1")
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        d = np.array([float(r[0]) for r in rows])
        rid = np.array([float(r[1]) for r in rows])
        rd = np.array([float(r[2]) for r in rows])
        assert all(np.diff(rid) > 0)
        in_unit = d < 1.0
        assert all(np.diff(rd[in_unit]) < 0)
        # the curves cross exactly once below d = 1
        sign = np.sign(rid - rd)
        crossings = np.sum(np.abs(np.diff(sign[d < 1.0]))) / 2
        assert crossings == 1

    def test_small_scale_sweep_stops_at_stop(self, capsys):
        # an absolute 1e-12 of slack past stop once gave 1,010 rows here
        rc, out, _ = run(capsys, "sweep", "--axis", "d", "--start", "1e-14",
                         "--stop", "2e-14", "--step", "1e-15", "--sigma2", "1")
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 11
        assert float(rows[-1][0]) == pytest.approx(2e-14, rel=1e-9)

    def test_exponent_sweep_increasing(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--axis", "rate", "--start", "2.1",
                         "--stop", "4.1", "--step", "0.25", "--sigma2", "1",
                         "--d", "1.5")
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        vals = [float(r[1]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_exponent_sweep_below_id_rate_refused(self, capsys):
        rc, _, err = run(capsys, "sweep", "--axis", "rate", "--start", "1.5",
                         "--stop", "3.0", "--step", "0.5", "--sigma2", "1",
                         "--d", "1.5")
        assert rc == 3
        assert "identification rate" in err

    @pytest.mark.parametrize(
        "start, stop, step",
        [("nan", "1.0", "0.1"), ("0.5", "nan", "0.1"), ("0.5", "1.0", "nan")],
    )
    def test_nan_range_is_usage_error(self, capsys, start, stop, step):
        rc, _, err = run(capsys, "sweep", "--axis", "d", "--start", start,
                         "--stop", stop, "--step", step)
        assert rc == 2
        assert err == "error: empty sweep range\n"

    @pytest.mark.parametrize(
        "flag, start, stop, step",
        [("--start", "-inf", "1.0", "0.1"), ("--stop", "0.5", "inf", "0.1"),
         ("--step", "0.5", "1.0", "inf"), ("--start", "inf", "inf", "0.1")],
    )
    def test_infinite_range_is_usage_error(self, capsys, flag, start, stop, step):
        # an infinite stop or start once swept without end
        rc, _, err = run(capsys, "sweep", "--axis", "d", f"--start={start}",
                         f"--stop={stop}", f"--step={step}")
        assert rc == 2
        assert err.startswith(f"error: {flag} must be finite")

    def test_empty_range_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "sweep", "--axis", "d", "--start", "1.0",
                         "--stop", "0.5", "--step", "0.1")
        assert rc == 2


class TestExponent:
    def test_prints_solution_and_ceiling(self, capsys):
        rc, out, _ = run(capsys, "exponent", "--sigma-x2", "1", "--sigma-y2", "1",
                         "--d", "1.5", "--rate", "3")
        assert rc == 0
        fields = dict(
            line.split(": ") for line in out.strip().splitlines()
        )
        assert float(fields["id_exponent"].split()[0]) == pytest.approx(
            0.00711475, abs=1e-6
        )
        assert float(fields["rho_x"]) == pytest.approx(float(fields["rho_y"]), abs=1e-6)
        assert float(fields["similarity_exponent_ceiling"].split()[0]) == pytest.approx(
            0.0271819, abs=1e-6
        )

    def test_refusal_reports_id_rate(self, capsys):
        rc, _, err = run(capsys, "exponent", "--sigma-x2", "1", "--sigma-y2", "1",
                         "--d", "1.5", "--rate", "1.0")
        assert rc == 3
        assert "2.000000" in err


class TestCover:
    def test_build_report_and_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        rc, out, _ = run(capsys, "cover", "--n", "2", "--sigma2", "1", "--d0", "0.5",
                         "--seed", "7", "--audit-samples", "20000",
                         "--out", str(path))
        assert rc == 0
        lines = dict(l.split(": ") for l in out.strip().splitlines())
        assert 4 <= int(lines["centers"]) <= 12
        assert float(lines["rate"].split()[0]) >= float(lines["bound"].split()[0])
        from quadsig.covering import load_covering

        code = load_covering(path)
        assert code.size == int(lines["centers"])

    def test_invalid_distortion_usage_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "cover", "--n", "4", "--sigma2", "1", "--d0", "1.5",
                         "--seed", "1", "--out", str(tmp_path / "x.json"))
        assert rc == 2
        assert "d0" in err


class TestSimulateAndFit:
    def test_pipeline_round_trip(self, capsys, tmp_path):
        path = tmp_path / "sim.csv"
        rc, _, _ = run(capsys, "simulate", "--n-list", "8,12", "--rate", "0.65",
                       "--d", "0.1", "--trials", "20000", "--seed", "3",
                       "--audit-samples", "4000", "--out", str(path))
        assert rc == 0
        lines = path.read_text().splitlines()
        cfg = json.loads(lines[0][1:])
        assert cfg["n_list"] == [8, 12]
        header = lines[1].split(",")
        assert header == [
            "experiment_id", "n", "rate", "d", "family_x", "family_y", "trials",
            "p_hat", "ci_low", "ci_high", "false_negatives", "seed",
        ]
        rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
        assert [int(r["n"]) for r in rows] == [8, 12]
        assert all(r["false_negatives"] == "0" for r in rows)

        rc, out, _ = run(capsys, "fit", "--input", str(path))
        assert rc == 0
        assert "fitted_exponent" in out
        assert "theoretical_id_exponent" in out

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc, _, _ = run(capsys, "simulate", "--n-list", "8", "--rate", "0.65",
                           "--d", "0.1", "--trials", "5000", "--seed", "3",
                           "--audit-samples", "2000", "--out", str(path))
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rate_refusal(self, capsys, tmp_path):
        rc, _, err = run(capsys, "simulate", "--n-list", "8", "--rate", "0.1",
                         "--d", "1.5", "--trials", "100", "--seed", "1")
        assert rc == 3

    def test_zero_trials_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n-list", "8", "--rate", "3", "--d", "1.5",
                  "--trials", "0", "--seed", "1"])
        assert exc.value.code == 2

    def test_fit_synthetic_exact(self, capsys, tmp_path):
        path = tmp_path / "synth.csv"
        hdr = ("experiment_id,n,rate,d,family_x,family_y,trials,p_hat,ci_low,"
               "ci_high,false_negatives,seed")
        rows = [
            f"synth,{n},0.5,0.1,gaussian,gaussian,1000,{2.0 ** (-0.07 * n)!r},0,1,0,1"
            for n in (8, 16, 32, 64)
        ]
        path.write_text("\n".join([hdr] + rows) + "\n")
        rc, out, _ = run(capsys, "fit", "--input", str(path))
        assert rc == 0
        slope = float(out.splitlines()[0].split(": ")[1].split()[0])
        assert slope == pytest.approx(0.07, abs=1e-9)

    def test_fit_malformed_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("experiment_id,n,p_hat\nrow_one,8\n")
        rc, _, err = run(capsys, "fit", "--input", str(path))
        assert rc == 2
        assert "line 2" in err

    @pytest.mark.parametrize("values, bad_line", [
        (("0.5", "nan", "0.125", "inf"), 3),
        (("0.5", "1.5", "-0.1"), 3),
        (("0.5", "0.25", "-inf"), 4),
    ])
    def test_fit_refuses_non_probability(self, capsys, tmp_path, values, bad_line):
        path = tmp_path / "bad_p.csv"
        rows = [f"{n},{p}" for n, p in zip((8, 16, 32, 64), values)]
        path.write_text("\n".join(["n,p_hat"] + rows) + "\n")
        rc, out, err = run(capsys, "fit", "--input", str(path))
        assert rc == 2
        assert f"line {bad_line}" in err and "[0, 1]" in err
        assert "fitted_exponent" not in out

    def test_fit_empty_is_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        rc, _, err = run(capsys, "fit", "--input", str(path))
        assert rc == 2

    def test_false_negative_exit_code(self, capsys, tmp_path, monkeypatch):
        # real schemes cannot produce false negatives, so fake one to check
        # that the CLI escalates it to the dedicated exit status
        import quadsig.simulate as simulate
        from quadsig.simulate import TrialEstimate

        def fake_estimate(config, code, sx, sy, trials, seed):
            return TrialEstimate(0.5, trials, 0.4, 0.6, false_negative_count=3)

        monkeypatch.setattr(simulate, "estimate_maybe_probability", fake_estimate)
        rc, _, err = run(capsys, "simulate", "--n-list", "8", "--rate", "0.65",
                         "--d", "0.1", "--trials", "1000", "--seed", "1",
                         "--audit-samples", "500",
                         "--out", str(tmp_path / "fn.csv"))
        assert rc == 4
        assert "admissibility" in err


class TestGoldenOutputs:
    """Byte-for-byte seeded outputs: a refactor must not move them, and a
    change that does must re-record them on purpose.

    Recorded with OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH) on an
    x86-64 Xeon; another BLAS build may round dot products differently and
    legitimately change these bytes.
    """

    SIMULATE = (
        '# {"audit_samples": 2000, "command": "simulate", "d": 0.1, '
        '"dist_x": "gaussian", "dist_y": "gaussian", "epsilon": 0.1, '
        '"mode": "basic", "n_list": [8, 16], "rate": 0.65, "seed": 3, '
        '"sigma_x2": 1.0, "sigma_y2": 1.0, "trials": 5000}\n'
        "experiment_id,n,rate,d,family_x,family_y,trials,p_hat,ci_low,ci_high,"
        "false_negatives,seed\n"
        "gaussian_gaussian_r0.65_d0.1_s3,8,0.651182,0.1,gaussian,gaussian,5000,"
        "0.9706,0.9655443196141249,0.9749331193151876,0,3\n"
        "gaussian_gaussian_r0.65_d0.1_s3,16,0.473116,0.1,gaussian,gaussian,5000,"
        "0.952,0.9457199288603764,0.957586068581292,0,3\n"
    )
    SIMULATE_SHAPE_GAIN = (
        '# {"audit_samples": 2000, "command": "simulate", "d": 0.1, '
        '"dist_x": "laplace", "dist_y": "laplace", "epsilon": 0.1, '
        '"mode": "shape_gain", "n_list": [8, 16], "rate": 1.5, "seed": 3, '
        '"sigma_x2": 1.0, "sigma_y2": 1.0, "trials": 5000}\n'
        "experiment_id,n,rate,d,family_x,family_y,trials,p_hat,ci_low,ci_high,"
        "false_negatives,seed\n"
        "laplace_laplace_r1.5_d0.1_s3,8,1.681932,0.1,laplace,laplace,5000,"
        "0.1682,0.15808779960062763,0.1788216474101123,0,3\n"
        "laplace_laplace_r1.5_d0.1_s3,16,1.052979,0.1,laplace,laplace,5000,"
        "0.1446,0.13512439827697628,0.1546212842655704,0,3\n"
    )
    COVER = (
        "centers: 315\n"
        "rate: 1.037401 bits/symbol\n"
        "bound: 0.500000 bits/symbol\n"
        "overhead_budget: 2.375000 bits/symbol\n"
        "sampled_coverage: 0.999980 (100000 samples)\n"
    )
    COVER_FILE_SHA256 = (
        "6c2c23ad902d1f07c9c0f058ebd28da1631529934e857d382b9330afe0fcd76c"
    )

    def test_simulate(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--n-list", "8,16", "--rate", "0.65",
                         "--d", "0.1", "--trials", "5000", "--seed", "3",
                         "--audit-samples", "2000")
        assert rc == 0
        assert out == self.SIMULATE

    def test_simulate_shape_gain(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--n-list", "8,16", "--rate", "1.5",
                         "--d", "0.1", "--trials", "5000", "--seed", "3",
                         "--audit-samples", "2000", "--mode", "shape_gain",
                         "--dist-x", "laplace", "--dist-y", "laplace")
        assert rc == 0
        assert out == self.SIMULATE_SHAPE_GAIN

    def test_cover(self, capsys, tmp_path):
        path = tmp_path / "cover.json"
        rc, out, _ = run(capsys, "cover", "--n", "8", "--sigma2", "1", "--d0", "0.5",
                         "--seed", "7", "--out", str(path))
        assert rc == 0
        assert out == self.COVER
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.COVER_FILE_SHA256
