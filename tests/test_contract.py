"""The input contract (README, "Input contract"): a public call either returns a
finite, well-typed result or refuses its arguments with a ValueError (of
which DomainError and PreconditionError are kinds).

Two checks: a table of inputs that were once accepted, answered NaN, warned
or failed with a raw TypeError or IndexError, and one seeded Hypothesis fuzz
test over every callable that `quadsig` exports.
"""

import dataclasses
import enum
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import quadsig as q
from quadsig import DomainError, PreconditionError

N = 4
PAIR = q.GaussianPair(1.0, 1.0)
CONFIG = q.SchemeConfig(n=N, d=0.4, sigma_x2=1.0, eta=0.2)
GAIN = q.SchemeConfig(n=N, d=0.4, sigma_x2=1.0, eta=0.5, mode="shape_gain")
CODE = q.build_covering(N, 1.0, 0.6, seed=1, audit_samples=200)
GAUSS = q.SourceSpec("gaussian", 1.0)
LAPLACE = q.SourceSpec("laplace", 1.0)


TMP = None  # a file path under pytest's tmp directory, set by the fixture below


@pytest.fixture(scope="module", autouse=True)
def _tmp_file(tmp_path_factory):
    global TMP
    TMP = tmp_path_factory.mktemp("contract") / "file.json"


def _saved_covering(**fields):
    """TMP, holding CODE as save_covering writes it but with `fields` replaced."""
    q.save_covering(CODE, TMP)
    TMP.write_text(json.dumps({**json.loads(TMP.read_text()), **fields}))
    return TMP


REFUSED = [
    ("SchemeConfig n=2.5", lambda: q.SchemeConfig(2.5, 0.4, 1.0, 0.2), ValueError),
    ("SchemeConfig n=True", lambda: q.SchemeConfig(True, 0.4, 1.0, 0.2), ValueError),
    ("SchemeConfig shape_gain eta=1e-19, 4e19 shells",
     lambda: q.SchemeConfig(N, 0.4, 1.0, 1e-19, "shape_gain"), ValueError),
    ("similarity trials=True",
     lambda: q.estimate_similarity_probability(GAUSS, GAUSS, 1.5, N, True, 3),
     ValueError),
    ("similarity trials=inf",
     lambda: q.estimate_similarity_probability(GAUSS, GAUSS, 1.5, N, math.inf, 3),
     ValueError),
    ("similarity trials=2.5",
     lambda: q.estimate_similarity_probability(GAUSS, GAUSS, 1.5, N, 2.5, 3),
     ValueError),
    ("similarity n=2.5",
     lambda: q.estimate_similarity_probability(GAUSS, GAUSS, 1.5, 2.5, 100, 3),
     ValueError),
    ("maybe trials=inf",
     lambda: q.estimate_maybe_probability(CONFIG, CODE, GAUSS, GAUSS, math.inf, 3),
     ValueError),
    ("maybe trials=2.5",
     lambda: q.estimate_maybe_probability(CONFIG, CODE, GAUSS, GAUSS, 2.5, 3),
     ValueError),
    ("audit boundary_fraction=-1",
     lambda: q.audit_admissibility(CONFIG, CODE, GAUSS, 100, 3, boundary_fraction=-1),
     ValueError),
    ("cap_fraction_bounds n=2.5",
     lambda: q.cap_fraction_bounds(0.3, 2.5), DomainError),
    ("chi_square_exponent nan", lambda: q.chi_square_exponent(math.nan), ValueError),
    ("chi_square_exponent inf", lambda: q.chi_square_exponent(math.inf), ValueError),
    ("angle_probability_exponent rate nan",
     lambda: q.angle_probability_exponent(math.nan, 1.5, 1.0, 1.0), DomainError),
    ("gaussian_test_channel nan",
     lambda: q.gaussian_test_channel(math.nan, 1.0, 1.0), ValueError),
    ("chi_square_tail_bound sigma2=nan",
     lambda: q.chi_square_tail_bound(4, math.nan), ValueError),
    ("chi_square_tail_bound n=inf",
     lambda: q.chi_square_tail_bound(math.inf, 1.0), ValueError),
    ("id_exponent rate=inf",
     lambda: q.id_exponent(PAIR, 0.5, math.inf), PreconditionError),
    ("id_exponent rate=1100, 2^-rate underflows",
     lambda: q.id_exponent(PAIR, 0.5, 1100.0), PreconditionError),
    ("cell_cap center -1",
     lambda: q.cell_cap(CONFIG, CODE, q.Signature(-1, 0)), ValueError),
    ("cell_cap center code.size",
     lambda: q.cell_cap(CONFIG, CODE, q.Signature(CODE.size, 0)), ValueError),
    ("query_many 0-d erased",
     lambda: q.query_many(CONFIG, CODE, [0], [0], np.bool_(False), np.ones((1, N))),
     ValueError),
    ("query_many 2-D erased",
     lambda: q.query_many(CONFIG, CODE, [0], [0], [[False]], np.ones((1, N))), ValueError),
    ("query_many float centers_idx",
     lambda: q.query_many(CONFIG, CODE, [0.0], [0], [False], np.ones((1, N))), ValueError),
    ("query_many shells_idx 0.5",
     lambda: q.query_many(GAIN, CODE, [0], [0.5], [False], np.ones((1, N))), ValueError),
    ("query_many shells_idx True",
     lambda: q.query_many(GAIN, CODE, [0], [True], [False], np.ones((1, N))), ValueError),
    ("CoveringCode seed='x'", lambda: q.CoveringCode(N, 1.0, 0.6, CODE.centers, "x"),
     ValueError),
    ("CoveringCode seed=-3", lambda: q.CoveringCode(N, 1.0, 0.6, CODE.centers, -3),
     ValueError),
    ("CoveringCode seed=2.5", lambda: q.CoveringCode(N, 1.0, 0.6, CODE.centers, 2.5),
     ValueError),
    ("CoveringCode seed=True", lambda: q.CoveringCode(N, 1.0, 0.6, CODE.centers, True),
     ValueError),
    ("load_covering seed list",
     lambda: q.load_covering(_saved_covering(seed=["x"])), ValueError),
]


@pytest.mark.parametrize(
    "call, error", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED]
)
def test_refused(call, error):
    """Each row was accepted, answered NaN, warned or raised another class at
    the commit before the input contract."""
    with pytest.raises(error):
        call()


# ---- the fuzz test ---------------------------------------------------------
#
# Each call draws every argument from a valid-leaning strategy, then replaces
# at most one argument by a perturbation: any scalar for a real, a bad count
# for a count, and so on.  Objects (pairs, configs, codes, sources, paths) are
# not perturbed: the contract is about the numbers and vectors they carry.
# Finite reals stay within six decades of 1, where products and squares of
# arguments neither overflow nor underflow double precision.

BAD = [math.nan, math.inf, -math.inf, True, False, None, "1.0", 1j, [1.0], 10**400]
finite = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, math.pi / 2, math.pi, 1e-6, 1e6]),
    st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6), st.integers(-3, 3),
)
reals = st.one_of(finite, st.sampled_from(BAD))


def real(lo, hi):
    """A real in [lo, hi] (either end included, none nearer 0 than 1e-6 but 0
    itself), perturbed to any scalar."""
    inside = st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)
    return st.one_of(st.sampled_from([lo, hi]), inside), reals


def count(most, least=1):
    """An integer in [least, most], perturbed only to an invalid count: every
    work-sizing argument is a count, so no call runs long."""
    bad = [least - 1, -1, 2.5, float(least), True, math.nan, math.inf, "3", None]
    return st.integers(least, most), st.sampled_from(bad)


def work(*values):
    """One of `values`, perturbed only to a bad scalar: for reals whose valid
    range also sizes the work (a small d0 asks for a huge covering)."""
    return st.sampled_from(values), st.sampled_from(BAD + [0.0, -1.0])


def choice(valid, bad):
    """One of `valid`, perturbed to one of `bad`."""
    return st.sampled_from(valid), st.sampled_from(bad)


seed = st.integers(0, 2**32), st.sampled_from([-1, 2.5, True, None, "x", math.nan])
mode = choice(["basic", "shape_gain"], ["other", None, 1])
coordinates = st.one_of(st.floats(-10.0, 10.0),
                        st.sampled_from([0.0, math.nan, math.inf]))
vector = (arrays(float, N, elements=st.floats(-10.0, 10.0)), st.one_of(
    arrays(float, N, elements=coordinates),
    st.sampled_from([np.zeros(N), np.ones(N + 1), np.ones((2, N)), np.ones(0), "x",
                     None]),
))
matrix = (
    st.integers(0, 40).flatmap(lambda m: arrays(float, (m, N), elements=coordinates)),
    st.sampled_from([np.ones((3, N + 1)), np.ones(N), "x"]),
)
pairs = st.sampled_from([PAIR, q.GaussianPair(1.0, 0.5)])
configs = st.sampled_from([CONFIG, GAIN])
code = st.just(CODE)
specs = st.sampled_from([GAUSS, LAPLACE])
channels = st.sampled_from([q.TestChannel(1.5, 0.75), q.TestChannel(1.0, 0.0)])
caps = st.sampled_from([
    q.CapSpec(np.eye(N)[0], 0.6, 1.0, 2.0), q.CapSpec(np.ones(N), 0.0, 0.0, 0.0),
])
signatures = st.one_of(
    st.builds(q.Signature, st.integers(0, CODE.size - 1), st.integers(0, 1)),
    st.sampled_from([q.ERASURE, q.Signature(CODE.size, 0), q.Signature(0, 9)]),
)
path = st.builds(lambda: TMP)


@st.composite
def call(draw, *args):
    """Arguments for one call: an argument is a strategy, drawn as is, or a
    (valid, perturbed) pair of strategies; at most one pair is perturbed."""
    pick = draw(st.integers(-1, len(args) - 1))
    return tuple(
        draw(a) if not isinstance(a, tuple) else draw(a[1] if i == pick else a[0])
        for i, a in enumerate(args)
    )


@st.composite
def query_rows(draw):
    """query_many's arguments for a batch of rows, now and then misshapen, and
    now and then with a float or bool index array or a 0-d or 2-D erased."""
    m = draw(st.integers(0, 12))
    rows = [
        draw(arrays(np.int64, m, elements=st.sampled_from([0, 1, 2, -1, CODE.size]))),
        draw(arrays(np.int64, draw(st.sampled_from([m, m + 1])),
                    elements=st.integers(-1, 2))),
        draw(arrays(bool, m)),
    ]
    bad = draw(st.sampled_from([None, None, None, 0, 1, 2]))
    if bad in (0, 1):
        rows[bad] = rows[bad].astype(draw(st.sampled_from([float, bool])))
    elif bad == 2:
        rows[2] = draw(st.sampled_from([np.bool_(False), rows[2][:, None]]))
    Y = draw(arrays(float, (m, draw(st.sampled_from([N, N + 1]))), elements=coordinates))
    return draw(configs), CODE, *rows, Y


@st.composite
def saved(draw, save, *objects):
    """A file written by `save` from `objects`, with one numeric field, or
    none, then replaced by a drawn scalar (JSON has no complex numbers)."""
    save(*objects, TMP)
    payload = json.loads(TMP.read_text())
    part = payload.get("scheme", payload)
    keys = sorted(k for k in part if k not in ("mode", "centers"))
    key = draw(st.sampled_from([None, *keys]))
    if key is not None:
        part[key] = draw(reals.filter(lambda v: not isinstance(v, complex)))
    TMP.write_text(json.dumps(payload))
    return (TMP,)


ints = st.integers(0, 100)
ARGS = {
    # analysis
    "GaussianPair": call(real(1e-3, 1e3), real(1e-3, 1e3)),
    "ExponentSolution": st.tuples(finite, finite, finite, st.booleans(), st.booleans()),
    "TestChannel": call(real(-3.0, 3.0), real(0.0, 3.0)),
    "id_rate": call(pairs, real(0.0, 3.0)),
    "id_rate_symmetric": call(real(0.1, 3.0), real(0.0, 3.0)),
    "chi_square_exponent": call(real(1e-3, 10.0)),
    "angle_probability_exponent": call(
        (st.one_of(st.floats(0.0, 60.0), st.just(math.inf)), reals),
        real(0.0, 4.0), real(0.01, 3.0), real(0.01, 3.0),
    ),
    "id_exponent": call(pairs, real(0.1, 1.9), real(0.0, 8.0), real(0.1, 8.0), count(40)),
    "id_exponent_symmetric": call(real(0.5, 2.0), real(0.1, 3.9), real(0.0, 8.0)),
    "similarity_exponent": call(pairs, real(0.0, 2.5)),
    "gaussian_test_channel": call(real(1e-3, 3.0), real(1e-3, 3.0), real(0.0, 6.0)),
    "test_channel_moments": call(channels, real(1e-3, 3.0), real(1e-3, 3.0)),
    "test_channel_rate_bound": call(channels, real(1e-3, 3.0), real(1e-3, 3.0)),
    "test_channel_constraint_gap": call(
        real(1e-3, 3.0), real(1e-3, 3.0), real(0.0, 6.0), real(-3.0, 3.0), real(-3.0, 3.0)
    ),
    # covering
    "CoveringCode": call(
        choice([N], [2.5, True, 0, "4"]), choice([1.0], BAD), choice([0.6], BAD),
        choice([CODE.centers], [[[1.0] * N], "x", np.full((1, N), math.nan)]),
        choice([None, 1], ["x", -3, 2.5, True]),
    ),
    "CoveringReport": st.tuples(finite, finite, finite, finite, st.integers(1, 100)),
    "build_covering": call(count(3), work(1.0), work(0.5, 0.9), seed, count(50)),
    "verify_covering": call(code, count(300), seed),
    "nearest_center": call(code, vector),
    "save_covering": st.tuples(code, path),
    "load_covering": saved(q.save_covering, CODE),
    "predicted_size_bounds": call(count(8), real(0.5, 2.0), real(0.1, 0.9)),
    "overhead_budget": call(count(10**6)),
    # errors
    "DomainError": st.tuples(reals),
    "PreconditionError": st.tuples(reals),
    "DegenerateDataError": st.tuples(reals),
    # geometry
    "CapSpec": call(vector, real(0.0, math.pi), real(0.0, 2.0), real(0.0, 4.0)),
    "CapFractionBounds": call(real(0.0, 1.0), real(0.0, 1.0)),
    "ExpansionAngle": st.tuples(finite, finite, st.booleans()),
    "angle_between": call(vector, vector),
    "cap_fraction_bounds": call(real(0.0, math.pi / 2), count(64)),
    "cap_fraction_exact": call(real(0.0, math.pi), count(64)),
    "law_of_cosines_angle": call(real(0.0, 3.0), real(0.0, 3.0), real(0.0, 3.0)),
    "expansion_cone_angle": call(
        real(0.0, 2.5), real(0.1, 3.0), real(0.1, 3.0), real(0.0, 0.5),
        real(0.0, math.pi / 2),
    ),
    "min_distance_to_thick_cap": call(vector, caps),
    # scheme
    "SchemeConfig": call(count(8), real(0.0, 1.0), real(0.5, 2.0), real(0.0, 1.0), mode,
                         (st.one_of(st.none(), st.floats(1.0, 16.0)), reals)),
    "Signature": st.one_of(st.just((None, None)), call(count(9, 0), count(9, 0))),
    "Verdict": call(choice(["no", "maybe"], ["yes", 1, None])),
    "SchemePlan": st.tuples(configs, finite, finite, finite, finite, finite),
    "assign_signature": call(configs, code, vector),
    "assign_many": call(configs, code, matrix),
    "query": call(configs, code, signatures, vector),
    "query_many": query_rows(),
    "cell_cap": call(configs, code, signatures),
    "rate_of": call(configs, code),
    "plan_scheme": call(pairs, real(0.1, 1.9), real(0.0, 8.0), count(16), real(0.0, 1.0),
                        mode),
    "save_scheme": st.tuples(st.just(GAIN), code, path),
    "load_scheme": saved(q.save_scheme, GAIN, CODE),
    # simulate
    "SourceSpec": call(choice(["gaussian", "uniform", "laplace"], ["cauchy", 1, None]),
                       real(1e-3, 1e3)),
    "TrialEstimate": st.tuples(finite, st.integers(1, 100), finite, finite, ints),
    "ExponentFit": st.tuples(finite, finite, st.lists(st.tuples(ints, finite))),
    "sample_pair": call(specs, specs, count(16),
                        st.integers(0, 9).map(np.random.default_rng)),
    "estimate_maybe_probability": call(configs, code, specs, specs, count(300), seed),
    "estimate_similarity_probability": call(
        specs, specs, real(0.0, 4.0), count(16), count(300), seed
    ),
    "audit_admissibility": call(configs, code, specs, count(300), seed, real(0.0, 1.0)),
    "fit_exponent": call((
        st.lists(st.tuples(st.integers(1, 64), st.floats(0.0, 1.0)), max_size=4),
        st.lists(st.tuples(st.one_of(st.integers(1, 64), reals), reals),
                 min_size=1, max_size=4),
    )),
    "chi_square_tail_bound": call(count(10**4), real(1e-3, 1e3)),
    "robustness_experiment": call(
        st.just(PAIR), work(0.5, 1.0), work(1.5, 3.0),
        choice([[N], [N, N + 1]], [[], [2.5], [True], [1], "x"]),
        specs, specs, count(100), seed, work(0.1, 0.5), mode, count(50),
    ),
}

# Result records hold what the package computed from checked inputs: they
# are drawn with finite, well-typed fields, and every record a call returns
# is checked field by field.
RECORDS = {"ExponentSolution", "CoveringReport", "ExpansionAngle", "SchemePlan",
           "TrialEstimate", "ExponentFit"}
# the callables documented to return math.inf for some valid arguments
MAY_BE_INFINITE = {"id_rate", "id_rate_symmetric", "angle_probability_exponent",
                   "test_channel_rate_bound", "predicted_size_bounds"}
PUBLIC = {name for module in (q.analysis, q.covering, q.errors, q.geometry, q.scheme,
                              q.simulate)
          for name in module.__all__ if callable(getattr(q, name))}


def _result_type(fn):
    """The type a call of fn returns, read from its return annotation."""
    if isinstance(fn, type):
        return fn
    annotation = inspect.signature(fn).return_annotation
    base = annotation.split("[")[0]
    known = {"float": float, "tuple": tuple, "list": list, "None": type(None),
             "np.ndarray": np.ndarray}
    return known[base] if base in known else getattr(q, base)


def _finite(value, allow_inf=False) -> bool:
    if value is None or isinstance(value, (bool, np.bool_, str, enum.Enum, Exception)):
        return True
    if isinstance(value, (int, np.integer)):
        return True
    if isinstance(value, (float, np.floating)):
        return not math.isnan(value) and (allow_inf or math.isfinite(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biuf" and bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(_finite(v, allow_inf) for v in value)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


def test_fuzz_covers_every_public_callable():
    assert set(ARGS) == PUBLIC
    assert RECORDS | MAY_BE_INFINITE <= PUBLIC


@pytest.mark.parametrize("name", sorted(ARGS))
@settings(derandomize=True, database=None, max_examples=60, deadline=10_000,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_fuzz_contract(name, data):
    """derandomize: every run draws the same calls; database=None: no
    .hypothesis/ directory.  Each call must take under 10 s."""
    fn = getattr(q, name)
    args = data.draw(ARGS[name], label="args")
    try:
        result = fn(*args)
    except ValueError:
        return
    assert isinstance(result, _result_type(fn)), f"{name} returned {result!r:.80}"
    assert _finite(result, name in MAY_BE_INFINITE), f"{name} returned {result!r:.80}"
