"""Command-line front end: formula evaluation, curve sweeps, covering
construction, Monte Carlo simulation, and exponent fitting.

Outputs are CSV with a single '#'-prefixed JSON header carrying the fully
resolved configuration, so every figure is reproducible from its data file.
Exit codes: 0 success, 2 usage or parse errors, 3 precondition refusals,
4 admissibility violations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import (
    GaussianPair,
    id_exponent,
    id_exponent_symmetric,
    id_rate,
    id_rate_symmetric,
    similarity_exponent,
)
from .covering import build_covering, save_covering, verify_covering
from .errors import DomainError, PreconditionError
from .scheme import rate_of
from .simulate import _FAMILIES, SourceSpec, _experiments, fit_exponent

USAGE_ERROR = 2
REFUSAL = 3
ADMISSIBILITY_VIOLATION = 4
_SWEEP_POINTS = 1_000_000


def _fmt_rate(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:.6f}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


def _emit(out: str | None, config: dict, columns: str, rows: list[str]) -> None:
    """Write a CSV table, to stdout when out is None: the '#' JSON config
    line, the column line, then the rows."""
    lines = ["# " + json.dumps(config, sort_keys=True), columns, *rows]
    payload = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _flags(args) -> dict:
    """Every parsed flag but the output path: the command's resolved config."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out")}


def _cmd_rate(args) -> int:
    pair = GaussianPair(args.sigma_x2, args.sigma_y2)
    value = id_rate(pair, args.d)
    print(_fmt_rate(value))
    if args.out:
        row = f"{args.sigma_x2!r},{args.sigma_y2!r},{args.d!r},{_fmt_rate(value)}"
        _emit(args.out, _flags(args), "sigma_x2,sigma_y2,d,id_rate", [row])
    return 0


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop within 1e-9 step; none if a bound or
    step is NaN.  An infinite one, which would sweep without end, is refused,
    and so is a range of more than _SWEEP_POINTS points, counted before any
    point is made."""
    for flag, value in (("--start", start), ("--stop", stop), ("--step", step)):
        if math.isinf(value):
            raise ValueError(f"{flag} must be finite, not {value}")
    if step <= 0.0 or stop < start:
        raise ValueError("need step > 0 and stop >= start")
    count = (stop + 1e-9 * step - start) // step + 1.0  # NaN for a NaN input
    if count > _SWEEP_POINTS:
        raise ValueError(
            f"--start, --stop and --step give {count:.3g} points, more than "
            f"{_SWEEP_POINTS}; raise --step or narrow --start and --stop"
        )
    values = []
    while start + len(values) * step <= stop + 1e-9 * step:
        values.append(start + len(values) * step)
    if not values:
        raise ValueError("empty sweep range")
    return values


def _cmd_sweep(args) -> int:
    values = _sweep_values(args.start, args.stop, args.step)
    # the config names only the flags that this axis reads
    reads = {"sigma_y2": ("sigma_x2", "d"), "d": ("sigma2",), "rate": ("sigma2", "d")}
    keys = ("command", "axis", "start", "stop", "step", *reads[args.axis])
    config = {key: getattr(args, key) for key in keys}
    rows: list[str] = []
    if args.axis == "sigma_y2":
        columns = "sigma_y2,id_rate"
        for v in values:
            r = id_rate(GaussianPair(args.sigma_x2, v), args.d)
            rows.append(f"{v!r},{_fmt_rate(r)}")
    elif args.axis == "d":
        columns = "d,id_rate,rate_distortion"
        for v in values:
            r = id_rate_symmetric(args.sigma2, v)
            rd = max(0.0, 0.5 * math.log2(args.sigma2 / v)) if v > 0 else math.inf
            rows.append(f"{v!r},{_fmt_rate(r)},{_fmt_rate(rd)}")
    else:  # axis == "rate"
        columns = "rate,id_exponent"
        for v in values:
            sol = id_exponent_symmetric(args.sigma2, args.d, v)
            rows.append(f"{v!r},{sol.value:.9f}")
    _emit(args.out, config, columns, rows)
    return 0


def _cmd_exponent(args) -> int:
    pair = GaussianPair(args.sigma_x2, args.sigma_y2)
    sol = id_exponent(pair, args.d, args.rate)
    ceiling = similarity_exponent(pair, args.d)
    print(f"id_exponent: {sol.value:.9f} bits/symbol")
    print(f"rho_x: {sol.rho_x:.9f}")
    print(f"rho_y: {sol.rho_y:.9f}")
    print(f"on_difference_boundary: {sol.on_difference_boundary}")
    print(f"on_sum_boundary: {sol.on_sum_boundary}")
    print(f"similarity_exponent_ceiling: {ceiling:.9f} bits/symbol")
    if args.out:
        columns = "rate,id_exponent,rho_x,rho_y,similarity_exponent"
        row = (f"{args.rate!r},{sol.value:.9f},{sol.rho_x:.9f},{sol.rho_y:.9f},"
               f"{ceiling:.9f}")
        _emit(args.out, _flags(args), columns, [row])
    return 0


def _cmd_cover(args) -> int:
    code = build_covering(args.n, args.sigma2, args.d0, args.seed, args.audit_samples)
    save_covering(code, args.out)
    verify_seed = args.seed + 1 if args.verify_seed is None else args.verify_seed
    report = verify_covering(code, args.verify_samples, verify_seed)
    print(f"centers: {code.size}")
    print(f"rate: {report.rate:.6f} bits/symbol")
    print(f"bound: {report.bound:.6f} bits/symbol")
    print(f"overhead_budget: {report.overhead_budget:.6f} bits/symbol")
    print(f"sampled_coverage: {report.sampled_coverage:.6f} ({report.samples} samples)")
    return 0


def _cmd_simulate(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    if not n_list:
        raise ValueError("empty --n-list")
    pair = GaussianPair(args.sigma_x2, args.sigma_y2)
    spec_x = SourceSpec(args.dist_x, args.sigma_x2)
    spec_y = SourceSpec(args.dist_y, args.sigma_y2)
    exp_id = f"{args.dist_x}_{args.dist_y}_r{args.rate:g}_d{args.d:g}_s{args.seed}"
    rows = []
    violations = 0
    experiments = _experiments(
        pair, args.d, args.rate, n_list, spec_x, spec_y, args.trials, args.seed,
        args.epsilon, args.mode, args.audit_samples,
    )
    for n, config, code, est in experiments:
        violations += est.false_negative_count
        rows.append(
            f"{exp_id},{n},{rate_of(config, code):.6f},{args.d!r},"
            f"{args.dist_x},{args.dist_y},{args.trials},{est.p_hat!r},"
            f"{est.ci_low!r},{est.ci_high!r},{est.false_negative_count},{args.seed}"
        )
    columns = ("experiment_id,n,rate,d,family_x,family_y,trials,p_hat,ci_low,"
               "ci_high,false_negatives,seed")
    _emit(args.out, {**_flags(args), "n_list": n_list}, columns, rows)
    if violations:
        print(
            f"admissibility violated: {violations} false negative(s)", file=sys.stderr
        )
        return ADMISSIBILITY_VIOLATION
    return 0


def _read_simulation_csv(path: str) -> tuple[dict, list[dict]]:
    config: dict = {}
    rows: list[dict] = []
    header: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    config = json.loads(line[1:])
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno}: bad config header: {exc}")
                continue
            fields = line.split(",")
            if header is None:
                header = fields
                continue
            if len(fields) != len(header):
                raise ValueError(
                    f"line {lineno}: expected {len(header)} fields, got {len(fields)}"
                )
            row = dict(zip(header, fields))
            try:
                row["n"] = int(row["n"])
                row["p_hat"] = float(row["p_hat"])
            except (KeyError, ValueError) as exc:
                raise ValueError(f"line {lineno}: {exc}")
            if not 0.0 <= row["p_hat"] <= 1.0:
                raise ValueError(
                    f"line {lineno}: p_hat must be a probability in [0, 1], "
                    f"not {row['p_hat']}"
                )
            rows.append(row)
    if header is None or not rows:
        raise ValueError("line 0: no data rows found")
    return config, rows


def _cmd_fit(args) -> int:
    config, rows = _read_simulation_csv(args.input)
    fit = fit_exponent([(row["n"], row["p_hat"]) for row in rows])
    print(f"fitted_exponent: {fit.slope:.9f} bits/symbol")
    print(f"intercept: {fit.intercept:.9f}")
    needed = ("sigma_x2", "sigma_y2", "d", "rate")
    if all(key in config for key in needed):
        pair = GaussianPair(config["sigma_x2"], config["sigma_y2"])
        sol = id_exponent(pair, config["d"], config["rate"])
        print(f"theoretical_id_exponent: {sol.value:.9f} bits/symbol")
    else:
        print("theoretical_id_exponent: unavailable (config header incomplete)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsig",
        description="identification rates, exponents, and admissible "
        "signature schemes for quadratic similarity queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gaussian_pair = argparse.ArgumentParser(add_help=False)
    gaussian_pair.add_argument("--sigma-x2", type=float, required=True)
    gaussian_pair.add_argument("--sigma-y2", type=float, required=True)
    gaussian_pair.add_argument("--d", type=float, required=True)

    p = sub.add_parser(
        "rate", parents=[gaussian_pair], help="identification rate for a Gaussian pair"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("sweep", help="rate / exponent curves as CSV")
    p.add_argument("--axis", choices=["sigma_y2", "d", "rate"], required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--sigma-x2", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--d", type=float, default=0.4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "exponent", parents=[gaussian_pair], help="identification exponent at a rate"
    )
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("cover", help="build and audit a shell covering")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--d0", type=float, required=True)
    p.add_argument("--seed", type=_nonnegative_int, required=True)
    p.add_argument("--audit-samples", type=_positive_int, default=100_000)
    p.add_argument("--verify-samples", type=_positive_int, default=100_000)
    p.add_argument("--verify-seed", type=_nonnegative_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("simulate", help="maybe-probability Monte Carlo per n")
    p.add_argument("--n-list", required=True, help="comma-separated blocklengths")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--sigma-x2", type=float, default=1.0)
    p.add_argument("--sigma-y2", type=float, default=1.0)
    p.add_argument("--dist-x", choices=_FAMILIES, default="gaussian")
    p.add_argument("--dist-y", choices=_FAMILIES, default="gaussian")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, required=True)
    p.add_argument("--mode", choices=["basic", "shape_gain"], default="basic")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--audit-samples", type=_positive_int, default=20_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit an empirical exponent from simulate CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, DomainError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
