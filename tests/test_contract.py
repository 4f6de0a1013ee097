"""Input contract: every valid input gives certified levels or a typed KGHierarchyError.

The library and the CLI are driven with the same hypothesis draws over the
whole valid parameter space (q != 0, lambda > 0, m > 0, VI only on the
NonHermitian branch).  The library must return levels whose residual meets the
1e-12 certificate or raise KGHierarchyError; ``cli.main`` must map every
outcome of each of its four commands to an exit code and never let another
exception escape.
"""

import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kg_hierarchy as kg
from kg_hierarchy import Branch, PotentialParams
from kg_hierarchy.cli import main
from kg_hierarchy.spectra import RESIDUAL_TOL


def finite(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def runs(draw) -> tuple[dict, int]:
    branch = draw(st.sampled_from(list(Branch)))
    fields = dict(
        V0=draw(finite(-2.0, 2.0)),
        S0=draw(finite(-2.0, 2.0)),
        VI=draw(finite(-1.0, 1.0)) if branch is Branch.NON_HERMITIAN else 0.0,
        lam=draw(finite(0.0, 5.0).filter(lambda v: v > 0.0)),
        q=draw(finite(-5.0, 5.0).filter(lambda v: v != 0.0)),
        m=draw(finite(0.0, 5.0).filter(lambda v: v > 0.0)),
        branch=branch,
    )
    return fields, draw(st.integers(0, 8))


def config_text(fields: dict, n_max: int) -> str:
    keys = {"V0": "V0", "S0": "S0", "VI": "VI", "lam": "lambda", "q": "q", "m": "m"}
    lines = [f"{key} = {fields[f]!r}" for f, key in keys.items()]
    lines += [f"branch = {fields['branch'].value}", f"n_max = {n_max}"]
    return "\n".join(lines) + "\n"


def set_a(**changes) -> dict:
    return dict(V0=0.0, S0=1.0, VI=0.0, lam=0.2, q=1.0, m=1.0, branch=Branch.HERMITIAN) | changes


# Draws that once escaped as ZeroDivisionError: 2*q*rho_0 underflowing to 0,
# q*lam underflowing to 0, and a ground state whose grid norm underflows to 0.
ESCAPES = [
    (set_a(S0=0.25, lam=1.0, q=5e-324), 0),
    (set_a(V0=0.125, S0=0.75, lam=2.8653065618674874e-233, q=1.6063183252575581e-162), 0),
    (set_a(lam=0.001953125), 0),
]


def with_escapes(test):
    for run in ESCAPES:
        test = example(run)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs())
@with_escapes
def test_library_certifies_or_raises_typed(run):
    fields, n_max = run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            levels = kg.spectrum(PotentialParams(**fields), n_max)
        except kg.KGHierarchyError:
            return
    for lv in levels:
        assert lv.residual < RESIDUAL_TOL
        assert lv.n <= n_max


@settings(max_examples=60, deadline=None, derandomize=True)
@given(runs())
@with_escapes
def test_cli_never_lets_an_untyped_exception_escape(tmp_path_factory, run):
    work = tmp_path_factory.mktemp("contract")
    text, q = config_text(*run), run[0]["q"]
    extra = {"verify": "oracle.n_points = 64\n", "sweep": f"sweep_key = q\nsweep_values = {q!r}, {-q!r}\n"}
    for command in ("spectrum", "wavefunction", "verify", "sweep"):
        cfg = work / f"{command}.cfg"
        cfg.write_text(text + extra.get(command, ""))
        code = main([command, "--config", str(cfg), "--output", str(work / f"{command}.out")])
        assert code in (0, 1, 2)
