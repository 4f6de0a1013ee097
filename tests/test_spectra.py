"""Energy solvers: residual contract, closed-form regressions, branch properties."""

import cmath

import numpy as np
import pytest

import kg_hierarchy as kg
from kg_hierarchy import Branch, LevelFlag, PotentialParams
from kg_hierarchy.errors import (
    ComplexLevelError,
    CrossCheckError,
    KGHierarchyError,
    NonConvergenceError,
    NoRootError,
)

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


def assert_roots_match(got: list[complex], expected: list[complex], tol: float = 1e-12) -> None:
    assert len(got) == len(expected)
    for e in expected:
        assert min(abs(g - e) for g in got) < tol * (1.0 + abs(e)), (e, got)


class TestEnergyResidual:
    def test_explicit_form_when_vector_free(self, set_a):
        # Gamma2 is E-independent, so f_n(E) = E^2 - m^2 + mu_n^2 directly.
        for E in (0.1, -0.6, 0.9):
            mu = kg.level(set_a, E, 0).mu
            expected = E * E - 1.0 + mu * mu
            assert kg.energy_residual(set_a, 0, E) == pytest.approx(expected, abs=1e-15)

    def test_residual_vanishes_at_solved_roots(self, set_b):
        for n in range(3):
            for lv in kg.solve_level(set_b, n):
                assert abs(kg.energy_residual(set_b, n, lv.E)) < 1e-12

    def test_quadratic_oracle_root_is_a_root(self, set_b):
        roots = quadratic_oracle_roots(1.0, 0.25, 0.2, 1.0, 0)
        for r in roots:
            assert abs(kg.energy_residual(set_b, 0, r)) < 1e-12


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

    def test_threshold_root_excluded(self):
        # Set C at q = 6: mu_0(-m) = 0, so f_0 vanishes at the threshold E = -m and
        # the scan lands within rounding of it.  The threshold is no bound state;
        # the real near-threshold root of level 1 is one and stays.
        p = params(dict(SET_C, q=6.0))
        level0 = [lv.E.real for lv in kg.solve_level(p, 0)]
        assert level0 == [pytest.approx(0.93207547169811, abs=1e-12)]
        level1 = [lv.E.real for lv in kg.solve_level(p, 1)]
        assert any(e == pytest.approx(0.9999918735851947, abs=1e-12) for e in level1)
        assert all(abs(lv.E.real) < p.m - 1e-12 for lv in kg.spectrum(p, 8))


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


class TestComplexBranches:
    def test_pt_pair_sums_to_zero_exactly(self):
        p = params(SET_A, branch=Branch.PT_SYMMETRIC)
        for n in range(3):
            pair = kg.pt_energy(p, n)
            assert pair.plus + pair.minus == 0.0

    def test_pt_requires_branch(self, set_a):
        with pytest.raises(ValueError):
            kg.pt_energy(set_a, 0)

    def test_pt_vector_free_closed_form_no_iteration(self):
        # Gamma2 is constant, so the seed formula is already the root.
        p = params(SET_A, branch=Branch.PT_SYMMETRIC)
        for n in range(3):
            seed = kg.closed_form_energy(p, n)
            pair = kg.pt_energy(p, n)
            assert pair.plus == pytest.approx(seed, abs=1e-12)
            assert abs(kg.energy_residual(p, n, pair.plus)) < 1e-12

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

    def test_nonhermitian_pair_and_epsilon_report(self):
        p = params(SET_C, branch=Branch.NON_HERMITIAN, VI=0.1)
        pair = kg.nonhermitian_energy(p, 0)
        assert pair.plus + pair.minus == 0.0
        assert pair.epsilon == pytest.approx(pair.plus ** 2 - 1.0, abs=1e-14)
        assert pair.re_epsilon_negative == (pair.epsilon.real < 0)

    def test_vi_zero_reduces_to_pt_exactly(self):
        p_pt = params(SET_C, branch=Branch.PT_SYMMETRIC)
        p_nh = params(SET_C, branch=Branch.NON_HERMITIAN, VI=0.0)
        for n in range(3):
            a, b = kg.pt_energy(p_pt, n), kg.nonhermitian_energy(p_nh, n)
            assert a.plus == b.plus and a.minus == b.minus

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
        gp, gm = kg.gammas(p_plus, E), kg.gammas(p_minus, E.conjugate())
        assert gm.gamma1 == gp.gamma1.conjugate()
        assert gm.gamma2 == gp.gamma2.conjugate()


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

    def test_closed_form_disagreement_is_typed(self, set_a, monkeypatch):
        import kg_hierarchy.spectra as spectra

        monkeypatch.setattr(spectra, "closed_form_energy", lambda p, n: 0.5 + 0j)
        with pytest.raises(CrossCheckError, match="level 0") as info:
            kg.solve_level(set_a, 0)
        assert isinstance(info.value, KGHierarchyError)


class TestQSweepContinuity:
    def test_ground_energy_continuous_over_q(self):
        qs = np.linspace(0.5, 1.5, 21)
        e0 = []
        for q in qs:
            p = params(dict(V0=0.0, S0=1.0, lam=0.2, q=float(q), m=1.0))
            e0.append([lv.E.real for lv in kg.solve_level(p, 0) if lv.E.real > 0][0])
        steps = np.abs(np.diff(np.asarray(e0)))
        assert steps.max() <= 10.0 * np.median(steps)
