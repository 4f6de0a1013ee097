"""Energy solvers: residual contract, closed-form regressions, branch properties."""

import cmath
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kg_hierarchy as kg
import kg_hierarchy.cli as cli
import kg_hierarchy.spectra as spectra
from kg_hierarchy import Branch, LevelFlag, PotentialParams
from kg_hierarchy.errors import (
    ComplexLevelError,
    NonConvergenceError,
    NoRootError,
)
from kg_hierarchy.potential import gamma2

from conftest import SET_A, SET_B, SET_C, params


def quadratic_oracle_roots(m: float, V0: float, lam: float, q: float, n: int) -> list[float]:
    """Independent root formula for the S0 = V0 family.

    With Gamma1 = 0 the level condition is the quadratic
    (1 + beta^2) E^2 - 2 alpha beta E + (alpha^2 - m^2) = 0,
    alpha = (rho^2 - 2 q m V0)/(2 q rho), beta = V0/rho, rho = (n+1) q lam.
    """
    rho = (n + 1) * q * lam
    alpha = (rho * rho - 2.0 * q * m * V0) / (2.0 * q * rho)
    beta = V0 / rho
    a, b, c = 1.0 + beta * beta, -2.0 * alpha * beta, alpha * alpha - m * m
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    return sorted(((-b - np.sqrt(disc)) / (2 * a), (-b + np.sqrt(disc)) / (2 * a)))


def complex_quadratic_oracle_roots(base: dict, n: int, VI: float = 0.0) -> list[complex]:
    """Independent root formula for the complex branches (PTSymmetric when VI = 0).

    The paper's chain with lam_eff = i*lam and V0_eff = V0 + i*VI:
    nu1 = [q*lam_eff + sqrt((q*lam_eff)^2 + 4*Gamma1)]/2, Gamma1 = S0^2 - V0_eff^2,
    rho = nu1 + n*q*lam_eff, alpha = (rho^2 - Gamma1 - 2*q*m*S0)/(2*q*rho),
    beta = V0_eff/rho, and the level quadratic
    (1 + beta^2) E^2 - 2 alpha beta E + (alpha^2 - m^2) = 0.
    """
    V0, S0, lam, q, m = (base[k] for k in ("V0", "S0", "lam", "q", "m"))
    lam_eff, v0_eff = 1j * lam, complex(V0, VI)
    g1 = S0 * S0 - v0_eff * v0_eff
    nu1 = 0.5 * (q * lam_eff + cmath.sqrt((q * lam_eff) ** 2 + 4.0 * g1))
    rho = nu1 + n * q * lam_eff
    alpha = (rho * rho - g1 - 2.0 * q * m * S0) / (2.0 * q * rho)
    beta = v0_eff / rho
    lead = 1.0 + beta * beta
    root = cmath.sqrt(m * m * lead - alpha * alpha)
    return [(alpha * beta - root) / lead, (alpha * beta + root) / lead]


def solved_levels(p: PotentialParams, n: int) -> list[tuple]:
    """Every field of the roots solve_level gives at level n, for exact comparison."""
    return [(lv.E, lv.mu, lv.residual, lv.flags, lv.note) for lv in kg.solve_level(p, n)]


def assert_roots_match(got: list[complex], expected: list[complex], tol: float = 1e-12) -> None:
    assert len(got) == len(expected)
    for e in expected:
        assert min(abs(g - e) for g in got) < tol * (1.0 + abs(e)), (e, got)


def energy_residual(p: PotentialParams, n: int, E: complex) -> complex:
    """f_n(E) = (E^2 - m^2) + mu_n(E)^2 with mu_n from level(), not from the solver's coefficients."""
    mu = kg.level(p, E, n).mu
    return E * E - p.m * p.m + mu * mu


class TestEnergyResidual:
    def test_residual_vanishes_at_solved_roots(self, set_b):
        for n in range(3):
            for lv in kg.solve_level(set_b, n):
                assert abs(energy_residual(set_b, n, lv.E)) < 1e-12

    def test_quadratic_oracle_root_is_a_root(self, set_b):
        roots = quadratic_oracle_roots(1.0, 0.25, 0.2, 1.0, 0)
        for r in roots:
            assert abs(energy_residual(set_b, 0, r)) < 1e-12


class TestSolveLevelHermitian:
    def test_vector_free_closed_form(self, set_a):
        # The explicit formula E = +/- sqrt(m^2 - mu_n^2) is the oracle here.
        for n in range(4):
            mu = kg.level(set_a, 0.0, n).mu.real
            expected = np.sqrt(1.0 - mu * mu)
            got = sorted(lv.E.real for lv in kg.solve_level(set_a, n))
            assert got[0] == pytest.approx(-expected, abs=1e-12)
            assert got[1] == pytest.approx(+expected, abs=1e-12)

    def test_symmetric_coupling_quadratic_oracle(self, set_b):
        for n in range(4):
            expected = quadratic_oracle_roots(1.0, 0.25, 0.2, 1.0, n)
            got = sorted(lv.E.real for lv in kg.solve_level(set_b, n))
            assert len(got) == len(expected)
            for e, g in zip(expected, got):
                assert g == pytest.approx(e, abs=1e-12)

    def test_set_b_known_roots(self, set_b):
        # Level 1 has the exact rational root E = 3/5.
        got = sorted(lv.E.real for lv in kg.solve_level(set_b, 1))
        assert got[1] == pytest.approx(0.6, abs=1e-12)
        got0 = sorted(lv.E.real for lv in kg.solve_level(set_b, 0))
        assert got0[0] == pytest.approx(-0.9955328283184409, abs=1e-11)
        assert got0[1] == pytest.approx(-0.1264183911937543, abs=1e-11)

    def test_weak_coupling_no_root(self):
        p = params(dict(V0=0.001, S0=0.001, lam=5.0, q=1.0, m=1.0))
        with pytest.raises(NoRootError):
            kg.solve_level(p, 0)

    def test_residual_certification(self, set_c):
        for n in range(4):
            for lv in kg.solve_level(set_c, n):
                assert lv.residual < 1e-12
                assert abs(lv.epsilon - (lv.E * lv.E - 1.0)) == 0.0

    def test_normalizability_flags(self, set_b):
        roots = sorted(kg.solve_level(set_b, 0), key=lambda lv: lv.E.real)
        assert LevelFlag.NORMALIZABLE_MU_POSITIVE not in roots[0].flags
        assert LevelFlag.NORMALIZABLE_MU_POSITIVE in roots[1].flags
        assert all(LevelFlag.REAL_BOUND_STATE in lv.flags for lv in roots)

    def test_double_root_detected_once(self):
        # S0 = V0 = -0.99 makes the level-0 discriminant vanish: E* = -99/101.
        p = params(dict(V0=-0.99, S0=-0.99, lam=0.2, q=1.0, m=1.0))
        lvls = kg.solve_level(p, 0)
        assert len(lvls) == 1
        assert lvls[0].note == "double_root"
        assert lvls[0].E.real == pytest.approx(-99.0 / 101.0, abs=1e-9)

    def test_near_double_root_lists_two_roots(self):
        # S0 just above V0 = -0.99 splits the double root into two real roots
        # 3e-7 apart, and f at the vertex between them is below 1e-12: the
        # vertex is no third root of the quadratic.
        p = params(dict(V0=-0.99, S0=-0.98999999999, lam=0.2, q=1.0, m=1.0))
        lvls = kg.solve_level(p, 0)
        assert [lv.note for lv in lvls] == ["", ""]
        assert all(lv.residual < 1e-12 for lv in lvls)
        assert lvls[0].E.real == pytest.approx(-0.9801981722955481, abs=1e-12)
        assert lvls[1].E.real == pytest.approx(-0.9801978673458888, abs=1e-12)

    @pytest.mark.parametrize(
        "branch,VI",
        [(Branch.HERMITIAN, 0.0), (Branch.PT_SYMMETRIC, 0.0), (Branch.NON_HERMITIAN, 0.1)],
    )
    def test_double_root_rule_is_shared(self, branch, VI):
        # a = m, b = 0 make the level quadratic E^2 = 0 on every branch.
        p = params(SET_B, branch, VI)
        roots = spectra._level_roots(p, 0, (1 + 0j, complex(p.m), 0j))
        assert [(E, note) for E, _, _, note in roots] == [(0j, "double_root")]

    def test_threshold_root_excluded(self):
        # Set C at q = 6: mu_0(-m) = 0, so f_0 vanishes at the threshold E = -m and
        # the closed form places a root within rounding of it.  The threshold is
        # no bound state; the real near-threshold root of level 1 is one and stays.
        p = params(dict(SET_C, q=6.0))
        level0 = [lv.E.real for lv in kg.solve_level(p, 0)]
        assert level0 == [pytest.approx(0.93207547169811, abs=1e-12)]
        level1 = [lv.E.real for lv in kg.solve_level(p, 1)]
        assert any(e == pytest.approx(0.9999918735851947, abs=1e-12) for e in level1)
        assert all(abs(lv.E.real) < p.m - 1e-12 for lv in kg.spectrum(p, 8))

    @pytest.mark.parametrize(
        "base,q,n,E",
        [
            (SET_A, 3.603971527, 2, 0.9999999999993775),  # mu = 1.1e-6
            (SET_B, 0.694443691, 5, 0.9999999999997884),  # mu = 6.5e-7
        ],
    )
    def test_bound_root_next_to_threshold_is_listed(self, base, q, n, E):
        # Bound roots within 1e-12 of m, outside the 8-unit threshold band.
        found = kg.spectrum(params(dict(base, q=q)), 8)
        assert found[-1].n == n and found[-1].E.real == E
        assert found[-1].flags == {LevelFlag.NORMALIZABLE_MU_POSITIVE, LevelFlag.REAL_BOUND_STATE}


class TestSpectrum:
    def test_set_a_level_count_and_order(self, set_a):
        spec = kg.spectrum(set_a, 10)
        assert [lv.n for lv in spec] == [0, 0, 1, 1, 2, 2, 3, 3]
        # mu_n decreasing while positive makes eps_n strictly increasing.
        eps = [lv.epsilon.real for lv in spec[::2]]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_termination_by_normalizability(self, set_a):
        # Level 4 still has algebraic roots but mu_4 < 0; the spectrum must stop.
        lvls4 = kg.solve_level(set_a, 4)
        assert lvls4 and all(lv.mu.real < 0 for lv in lvls4)
        assert max(lv.n for lv in kg.spectrum(set_a, 10)) == 3

    def test_weak_coupling_empty(self):
        p = params(dict(V0=0.001, S0=0.001, lam=5.0, q=1.0, m=1.0))
        assert kg.spectrum(p, 5) == []

    def test_n_max_cutoff(self, set_a):
        spec = kg.spectrum(set_a, 1)
        assert [lv.n for lv in spec] == [0, 0, 1, 1]
        with pytest.raises(ValueError, match="n_max"):
            kg.spectrum(set_a, -1)

    @pytest.mark.parametrize("n_max", [2.5, -1, None])
    def test_n_max_must_be_a_nonnegative_integer(self, set_a, n_max):
        # n_max = 2.5 raised a raw TypeError from range().
        with pytest.raises(kg.ParameterError, match="n_max must be an integer >= 0") as info:
            kg.spectrum(set_a, n_max)
        assert info.value.param == "n_max"

    def test_numpy_integer_n_max_accepted(self, set_a):
        assert kg.spectrum(set_a, np.int64(2)) == kg.spectrum(set_a, 2)

    def test_wraps_only_the_levels_it_returns(self, monkeypatch):
        # Set A at q = 2 stops at level 3, whose two roots have mu < 0: they are
        # solved for the stop rule but never built into EnergyLevels.
        built = []

        class Counted(spectra.EnergyLevel):
            __slots__ = ()

            def __new__(cls, *args, **fields):
                lv = super().__new__(cls, *args, **fields)
                built.append(lv.n)
                return lv

        monkeypatch.setattr(spectra, "EnergyLevel", Counted)
        spec = kg.spectrum(params(dict(SET_A, q=2.0)), 8)
        assert [lv.n for lv in spec] == [0, 0, 1, 1, 2, 2]
        assert built == [0, 0, 1, 1, 2, 2]


@st.composite
def any_branch_points(draw) -> PotentialParams:
    branch = draw(st.sampled_from(list(Branch)))
    finite = functools.partial(st.floats, allow_nan=False, allow_infinity=False)
    return params(
        dict(
            V0=draw(finite(-2.0, 2.0)),
            S0=draw(finite(-2.0, 2.0)),
            lam=draw(finite(0.01, 5.0)),
            q=draw(finite(-5.0, 5.0).filter(lambda v: abs(v) > 1e-3)),
            m=draw(finite(0.1, 5.0)),
        ),
        branch,
        draw(finite(-1.0, 1.0)) if branch is Branch.NON_HERMITIAN else 0.0,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_branch_points())
@example(params(SET_A))
@example(params(dict(SET_A, q=2.0)))
@example(params(SET_B, Branch.NON_HERMITIAN, 0.1))
def test_spectrum_is_solve_level_up_to_the_stop_level(p):
    # spectrum(p, 8) shares the root pass of solve_level: the same levels, up to the
    # first level with no NormalizableMuPositive root, or the same error.
    def outcome(solve) -> list | tuple[type, str]:
        try:
            return solve()
        except kg.KGHierarchyError as exc:
            return type(exc), str(exc)

    def by_level():
        out = []
        for k in range(9):
            try:
                found = kg.solve_level(p, k)
            except NoRootError:
                break
            if not any(LevelFlag.NORMALIZABLE_MU_POSITIVE in lv.flags for lv in found):
                break
            out.extend(found)
        return out

    assert outcome(lambda: kg.spectrum(p, 8)) == outcome(by_level)


# A fixed q grid over the sets and every branch with a level 0 (PTSymmetric set B
# has none): set D is set C at q = 3, and q = 6 puts set C's Hermitian level-0
# threshold root within rounding of -m (test_threshold_root_excluded).  At the
# negative q of a set its Hermitian level quadratic has a double root at a listed
# level: set A's level 0 and set C's level 3 (set B degenerates at q < 0).
AGREEMENT_SETS = {"A": SET_A, "B": SET_B, "C": SET_C}
AGREEMENT_Q = (0.5, 0.75, 0.8, 1.0, 2.0, 3.0, 4.0, 4.5, 6.0)
DOUBLE_ROOT_Q = {"A": (-0.9545454545454553, 0), "C": (-0.40217268776214105, 3)}
AGREEMENT_CASES = [
    pytest.param(base, branch, VI, q, id=f"{name}-{branch.value}-q{q:g}")
    for name, base in AGREEMENT_SETS.items()
    for branch, VI in ((Branch.HERMITIAN, 0.0), (Branch.PT_SYMMETRIC, 0.0), (Branch.NON_HERMITIAN, 0.1))
    if (name, branch) != ("B", Branch.PT_SYMMETRIC)
    for q in AGREEMENT_Q + ((DOUBLE_ROOT_Q[name][0],) if name in DOUBLE_ROOT_Q else ())
]


@pytest.mark.parametrize("base,branch,VI,q", AGREEMENT_CASES)
def test_spectrum_lists_solve_level_root_for_root(base, branch, VI, q):
    p = params(dict(base, q=q), branch, VI)
    spec = kg.spectrum(p, 8)
    stop = len({lv.n for lv in spec})
    assert [lv.n for lv in spec] == sorted(lv.n for lv in spec)
    for n in range(stop):
        listed = [lv for lv in spec if lv.n == n]
        solved = kg.solve_level(p, n)
        assert listed == solved
        assert [repr(lv) for lv in listed] == [repr(lv) for lv in solved]  # signed zeros too
        keys = [(lv.E.real, lv.E.imag) for lv in listed]
        assert keys == sorted(keys)
    if stop <= 8:
        try:
            at_stop = kg.solve_level(p, stop)
        except NoRootError:
            at_stop = []
        assert all(lv.mu.real <= 0.0 for lv in at_stop)


@pytest.mark.parametrize("name", sorted(DOUBLE_ROOT_Q))
def test_agreement_grid_has_a_listed_double_root(name):
    q, n = DOUBLE_ROOT_Q[name]
    spec = kg.spectrum(params(dict(AGREEMENT_SETS[name], q=q)), 8)
    assert [lv.note for lv in spec if lv.n == n] == ["double_root"]
    assert all(lv.mu.real > 0.0 for lv in spec if lv.n == n)


class TestComplexBranches:
    def test_pt_solve_level_residuals(self):
        p = params(SET_C, branch=Branch.PT_SYMMETRIC)
        for n in range(3):
            for lv in kg.solve_level(p, n):
                assert lv.residual < 1e-12
                assert LevelFlag.COMPLEX_PAIR in lv.flags

    def test_pt_tends_to_hermitian_as_lambda_vanishes(self):
        # Both levels approach the threshold at rate sqrt(lam); their distance
        # shrinks by ~sqrt(10) per decade of lam.
        diffs = []
        for lam in (1e-2, 1e-3, 1e-4):
            ph = params(dict(V0=0.0, S0=1.0, lam=lam, q=1.0, m=1.0))
            pp = params(dict(V0=0.0, S0=1.0, lam=lam, q=1.0, m=1.0), branch=Branch.PT_SYMMETRIC)
            eh = sorted((lv.E for lv in kg.solve_level(ph, 0)), key=lambda z: z.real)
            ep = sorted((lv.E for lv in kg.solve_level(pp, 0)), key=lambda z: z.real)
            diffs.append(max(abs(a - b) for a, b in zip(eh, ep)))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 2e-2
        for r in (diffs[0] / diffs[1], diffs[1] / diffs[2]):
            assert 2.2 < r < 4.5

    def test_vi_zero_reduces_to_pt_exactly(self):
        for base in (SET_A, SET_B, SET_C):
            p_pt = params(base, branch=Branch.PT_SYMMETRIC)
            p_nh = params(base, branch=Branch.NON_HERMITIAN, VI=0.0)
            for n in range(3):
                assert solved_levels(p_pt, n) == solved_levels(p_nh, n)

    @pytest.mark.parametrize("n", range(3))
    @pytest.mark.parametrize("branch,VI", [(Branch.PT_SYMMETRIC, 0.0), (Branch.NON_HERMITIAN, 0.1)])
    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C])
    def test_solve_level_lists_both_roots(self, base, branch, VI, n):
        # Both roots of the level quadratic, checked against a formula that
        # shares no solver code; they are a +/- pair only when V0_eff = 0.
        lvls = kg.solve_level(params(base, branch, VI), n)
        assert all(LevelFlag.COMPLEX_PAIR in lv.flags for lv in lvls)
        assert_roots_match([lv.E for lv in lvls], complex_quadratic_oracle_roots(base, n, VI))

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C])
    def test_vi_conjugation_of_root_sets(self, base):
        # The VI -> -VI problem is the antilinear mirror image: the solved root
        # sets must be exact complex conjugates of each other.
        p_plus = params(base, branch=Branch.NON_HERMITIAN, VI=+0.1)
        p_minus = params(base, branch=Branch.NON_HERMITIAN, VI=-0.1)
        for n in range(3):
            key = lambda z: (round(z.real, 9), round(z.imag, 9))
            r_minus = sorted((lv.E for lv in kg.solve_level(p_minus, n)), key=key)
            r_conj = sorted((lv.E.conjugate() for lv in kg.solve_level(p_plus, n)), key=key)
            assert len(r_minus) == len(r_conj)
            for a, b in zip(r_minus, r_conj):
                assert abs(a - b) < 1e-12 * (1.0 + abs(b))

    def test_nonhermitian_set_b_level0_has_two_distinct_roots(self):
        p = params(SET_B, branch=Branch.NON_HERMITIAN, VI=0.1)
        expected = complex_quadratic_oracle_roots(SET_B, 0, VI=0.1)
        lvls = kg.solve_level(p, 0)
        assert [lv.note for lv in lvls] == ["", ""]
        assert_roots_match([lv.E for lv in lvls], expected)
        assert min(abs(lv.E - (-1.2382 + 0.1351j)) for lv in lvls) < 1e-4

    def test_nonhermitian_small_q_keeps_normalizable_root(self):
        base = dict(SET_C, q=0.3)
        p = params(base, branch=Branch.NON_HERMITIAN, VI=0.1)
        assert_roots_match([lv.E for lv in kg.solve_level(p, 0)],
                           complex_quadratic_oracle_roots(base, 0, VI=0.1))
        spec = kg.spectrum(p, 8)
        hit = [lv for lv in spec if abs(lv.E - (-1.0281 - 0.2949j)) < 1e-4]
        assert len(hit) == 1 and hit[0].mu.real > 0.0

    def test_nonhermitian_large_q_spectrum_not_empty(self):
        base = dict(SET_C, q=5.0)
        p = params(base, branch=Branch.NON_HERMITIAN, VI=0.1)
        spec = kg.spectrum(p, 8)
        assert spec
        assert_roots_match([lv.E for lv in spec if lv.n == 0],
                           complex_quadratic_oracle_roots(base, 0, VI=0.1))

    def test_linear_level_condition_has_one_root(self):
        # S0 = V0 = 0.25 and q*lam = 0.25 give rho_0 = 0.25i and beta = V0/rho_0 = -i,
        # so 1 + beta^2 = 0 and f_0 is linear, with the single root
        # (alpha^2 - m^2)/(2*alpha*beta) = -2.21/2.2 (alpha = 1.1i).
        p = params(dict(SET_B, q=1.25), branch=Branch.PT_SYMMETRIC)
        lvls = kg.solve_level(p, 0)
        assert [lv.note for lv in lvls] == [""]
        assert abs(lvls[0].E - (-2.21 / 2.2)) < 1e-12

    def test_uncertifiable_far_root_raises(self):
        # Here 1 + beta^2 is nearly 0 and one root sits near E = 114.8, where
        # |f| cannot reach 1e-12 in double precision: the level must raise,
        # not report a single root or an uncertified one.
        base = dict(SET_B, q=1.2620381019050952)
        far = max(complex_quadratic_oracle_roots(base, 0), key=abs)
        assert 100.0 < abs(far) < 130.0
        p = params(base, branch=Branch.PT_SYMMETRIC)
        with pytest.raises(NonConvergenceError, match="level 0"):
            kg.solve_level(p, 0)

    def test_gamma_conjugation_under_vi_flip(self):
        p_plus = params(SET_C, branch=Branch.NON_HERMITIAN, VI=+0.1)
        p_minus = params(SET_C, branch=Branch.NON_HERMITIAN, VI=-0.1)
        E = 0.37 + 0.11j
        assert p_minus.gamma1 == p_plus.gamma1.conjugate()
        assert gamma2(p_minus, E.conjugate()) == gamma2(p_plus, E).conjugate()


class TestTypedErrors:
    @pytest.mark.parametrize("S0", [0.48, 0.3])
    def test_hermitian_discriminant_bound(self, S0):
        # Gamma1 = S0^2 - 0.25 < -(q*lam)^2/4 = -0.01: nu1 would be complex.
        p = params(dict(V0=0.5, S0=S0, lam=0.2, q=1.0, m=1.0))
        with pytest.raises(ComplexLevelError, match="discriminant"):
            kg.spectrum(p, 4)
        with pytest.raises(ComplexLevelError):
            kg.level(p, 0.5, 0)

    def test_complex_energy_on_hermitian_branch(self, set_b):
        with pytest.raises(ComplexLevelError, match="mu_0"):
            kg.level(set_b, 0.5 + 0.1j, 0)


class TestLevelChainOnce:
    @pytest.mark.parametrize(
        "base,branch,VI",
        [
            (SET_A, Branch.HERMITIAN, 0.0),  # V0 = 0: the explicit form E = +/-sqrt(m^2 - a^2)
            (SET_B, Branch.HERMITIAN, 0.0),
            (SET_A, Branch.PT_SYMMETRIC, 0.0),
            (SET_C, Branch.PT_SYMMETRIC, 0.0),
            (SET_B, Branch.NON_HERMITIAN, 0.1),
        ],
    )
    def test_solve_level_computes_coefficients_once(self, monkeypatch, base, branch, VI):
        import kg_hierarchy.hierarchy as hierarchy
        import kg_hierarchy.spectra as spectra

        calls = []
        orig = hierarchy.level_coefficients

        def counted(p, n):
            calls.append(n)
            return orig(p, n)

        monkeypatch.setattr(hierarchy, "level_coefficients", counted)
        monkeypatch.setattr(spectra, "level_coefficients", counted)
        assert kg.solve_level(params(base, branch, VI), 1)
        assert calls == [1]


class TestQSweepContinuity:
    def test_ground_energy_continuous_over_q(self):
        qs = np.linspace(0.5, 1.5, 21)
        e0 = []
        for q in qs:
            p = params(dict(V0=0.0, S0=1.0, lam=0.2, q=float(q), m=1.0))
            e0.append([lv.E.real for lv in kg.solve_level(p, 0) if lv.E.real > 0][0])
        steps = np.abs(np.diff(np.asarray(e0)))
        assert steps.max() <= 10.0 * np.median(steps)


class TestBatchSolver:
    def test_first_failing_point_is_reported(self):
        # On this base q = -0.79 fails at level 6 and q = 1.05 at level 0; the
        # sweep's order is checked in test_cli.py.
        base = dict(V0=1.01, S0=-0.63, lam=0.35, m=2.88)
        points = [params(dict(base, q=q), Branch.PT_SYMMETRIC) for q in (-0.5, -0.79, -1.0, 1.05)]
        assert kg.spectrum(points[0], 8) and kg.spectrum(points[2], 8)
        errors = []
        for p in (points[1], points[3]):
            with pytest.raises(NonConvergenceError) as info:
                kg.spectrum(p, 8)
            errors.append(str(info.value))
        assert errors[0].startswith("level 6") and errors[1].startswith("level 0")

    def test_hermitian_error_order_across_levels(self, tmp_path, monkeypatch, capsys):
        # A Hermitian sweep: the second value's level-2 error beats the fourth
        # value's level-0 discriminant error.
        orig = spectra.chain_coefficients

        def fail_at_level_2(chain, n):
            if n == 2 and chain[4] == 0.1:  # chain[4] is V0_eff
                raise kg.ZeroNuError("marker: second value, level 2")
            return orig(chain, n)

        with pytest.raises(ComplexLevelError, match="discriminant"):
            kg.spectrum(params(dict(SET_A, V0=1.5)), 8)
        monkeypatch.setattr(spectra, "chain_coefficients", fail_at_level_2)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 8\n"
                       "sweep_key = V0\nsweep_values = 0.0, 0.1, 0.2, 1.5\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "marker: second value, level 2" in captured.err
        assert "discriminant" not in captured.err

    # Set A with V0, S0, lam and m all times 30: E/m is unchanged, but f_n grows
    # with m^2, so its rounding error does too.  The closed-form roots still meet
    # the absolute 1e-12 certificate, and those of set A times 100 do not.
    SCALED_A = dict(V0=0.0, S0=30.0, lam=6.0, q=1.0, m=30.0)

    def test_scaled_set_certifies_through_newton(self):
        base, scaled = kg.spectrum(params(SET_A), 7), kg.spectrum(params(self.SCALED_A), 7)
        assert len(scaled) == len(base) == 8
        for lv, ref in zip(scaled, base):
            assert lv.n == ref.n
            assert abs(lv.E / 30.0 - ref.E) < 1e-10
            assert lv.residual < 1e-12

    def test_newton_stall_names_the_level(self):
        # Times 100, the level-2 root is exact to rounding, but |f| stays at
        # 1.137e-12 > RESIDUAL_TOL through every Newton step.
        scaled = {key: 100.0 * value for key, value in SET_A.items() if key != "q"}
        with pytest.raises(NonConvergenceError, match=r"^level 2: Newton polishing .* 1\.137e-12 after 200 "):
            kg.spectrum(params(dict(SET_A, **scaled)), 7)
