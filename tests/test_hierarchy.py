"""Factorization machinery: root solving, recurrence, Riccati identity, ladder ops."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kg_hierarchy as kg
import kg_hierarchy.hierarchy as hierarchy
from kg_hierarchy import Branch, PotentialParams, Superpotential
from kg_hierarchy.errors import DegenerateRootError
from kg_hierarchy.potential import gamma2

from conftest import SET_A, SET_B, SET_C, complex_branch_grid, params
from test_oracle import SET_D


def w_and_derivative(w: Superpotential, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W(x) = -nu*k/(1 - q*k) + mu and W'(x) = nu*lambda_eff*k/(1 - q*k)^2, k = exp(-lambda_eff*x).

    Sampled straight from the ansatz: the second route beside riccati_check's
    coefficients in u = k/(1 - q*k).
    """
    k = np.exp(-w.lambda_eff * np.asarray(x, dtype=float))
    return -w.nu * k / (1.0 - w.q * k) + w.mu, w.nu * w.lambda_eff * k / (1.0 - w.q * k) ** 2


def ladder(w: Superpotential, psi: kg.GridFunction, sign: int) -> kg.GridFunction:
    """(sign * d/dx + W) psi on the interior grid by 4th-order central differences.

    sign=+1 gives the operator annihilating exp(-integral W), sign=-1 its formal
    adjoint.  The stencil trims two points from each end.
    """
    v, h = np.asarray(psi.values), psi.dx
    dpsi = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    x_in = np.asarray(psi.x[2:-2])
    return kg.GridFunction(float(x_in[0]), h, sign * dpsi + w_and_derivative(w, x_in)[0] * v[2:-2])


class TestSolveNu1:
    def test_gamma1_zero_picks_nonzero_root(self):
        assert kg.solve_nu1(0.0, 1.0, 0.2) == pytest.approx(0.2)

    def test_hand_quadratic(self):
        # nu^2 - nu - 0.75 = 0 has roots 1.5 and -0.5; the +sqrt branch is 1.5.
        assert kg.solve_nu1(0.75, 1.0, 1.0) == pytest.approx(1.5)

    def test_zero_discriminant_double_root(self):
        qlam = 0.7
        assert kg.solve_nu1(-qlam * qlam / 4.0, 1.0, qlam) == pytest.approx(qlam / 2.0)

    def test_q_zero_is_a_parameter_error(self):
        with pytest.raises(kg.ParameterError, match="q must be nonzero") as info:
            kg.solve_nu1(1.0, 0.0, 0.2)
        assert info.value.param == "q"

    def test_degenerate_root_raises(self):
        # Negative q with gamma1 = 0: the +sqrt branch lands exactly on zero.
        with pytest.raises(DegenerateRootError):
            kg.solve_nu1(0.0, -1.0, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        g1_re=st.floats(-0.5, 4.0),
        g1_im=st.floats(-1.0, 1.0),
        q=st.floats(-2.0, 2.0).filter(lambda q: abs(q) > 0.05),
        lam=st.floats(0.05, 3.0),
        pt=st.booleans(),
    )
    # V0 = S0 = lam = q = 1, VI = 0.5: the discriminant (q*lambda_eff)^2 + 4*Gamma1
    # is -4j, on the imaginary axis.
    @example(g1_re=0.25, g1_im=-1.0, q=1.0, lam=1.0, pt=True)
    def test_quadratic_identity(self, g1_re, g1_im, q, lam, pt):
        lam_eff = 1j * lam if pt else complex(lam)
        g1 = complex(g1_re, g1_im)
        try:
            nu1 = kg.solve_nu1(g1, q, lam_eff)
        except DegenerateRootError:
            return
        resid = nu1 * (nu1 - q * lam_eff) - g1
        assert abs(resid) < 1e-13 * (1.0 + abs(g1) + abs(nu1) ** 2)


class TestLevel:
    def test_zero_gammas_give_half_rho(self):
        # S0 = V0 and E = -m kill both Gammas; mu reduces to -rho/(2q).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = PotentialParams(V0=0.3, S0=0.3, lam=0.5, q=1.0, m=1.0)
        for n in range(4):
            lvl = kg.level(p, -1.0, n)
            assert lvl.mu == pytest.approx(-lvl.nu / 2.0)
            assert lvl.epsilon == pytest.approx(-lvl.nu ** 2 / 4.0)

    def test_hand_arithmetic_case(self):
        # nu1 = 0.2, Gamma2 = 0.25, mu = (0.25 - 0.04)/0.4 = 0.525.
        p = params(SET_B)
        lvl = kg.level(p, -0.5, 0)
        assert lvl.nu == pytest.approx(0.2, abs=1e-15)
        assert lvl.mu == pytest.approx(0.525, abs=1e-14)
        assert lvl.epsilon == pytest.approx(-0.275625, abs=1e-14)

    def test_level_zero_matches_first_factorization_formula(self):
        p = params(SET_C)
        E = 0.4
        g1, g2 = p.gamma1, gamma2(p, E)
        nu1 = kg.solve_nu1(g1, p.q, p.lambda_eff)
        lvl = kg.level(p, E, 0)
        assert lvl.nu == pytest.approx(nu1)
        assert lvl.mu == pytest.approx((g1 + p.q * g2 - nu1 ** 2) / (2.0 * p.q * nu1))

    @pytest.mark.parametrize("branch,vi", [(Branch.HERMITIAN, 0.0), (Branch.PT_SYMMETRIC, 0.0), (Branch.NON_HERMITIAN, 0.1)])
    def test_recurrence_step(self, branch, vi):
        p = params(SET_C, branch=branch, VI=vi)
        step = p.q * p.lambda_eff
        for n in range(5):
            d = kg.level(p, 0.1, n + 1).nu - kg.level(p, 0.1, n).nu
            # The step is exact by construction up to one floating-point rounding.
            assert abs(d - step) < 5e-16 * (1.0 + abs(kg.level(p, 0.1, n).nu))

    @pytest.mark.parametrize("branch,vi", [(Branch.HERMITIAN, 0.0), (Branch.PT_SYMMETRIC, 0.0), (Branch.NON_HERMITIAN, 0.1)])
    def test_epsilon_mu_coupling_exact(self, branch, vi):
        p = params(SET_C, branch=branch, VI=vi)
        for n in range(5):
            lvl = kg.level(p, 0.37, n)
            assert lvl.epsilon + lvl.mu * lvl.mu == 0.0  # bitwise: epsilon is -mu*mu

    @pytest.mark.parametrize("n", [1.5, -1, "1", None])
    def test_level_index_must_be_a_nonnegative_integer(self, set_a, n):
        # n = 1.5 gave a level labelled n = 1.5 and two certified roots labelled 1.5.
        for solve in (lambda: kg.level(set_a, 0.5, n), lambda: kg.solve_level(set_a, n)):
            with pytest.raises(kg.ParameterError, match="n must be an integer >= 0") as info:
                solve()
            assert info.value.param == "n"

    def test_numpy_integer_level_index_accepted(self, set_a):
        assert kg.level(set_a, 0.5, np.int64(2)) == kg.level(set_a, 0.5, 2)
        assert kg.solve_level(set_a, np.int64(2)) == kg.solve_level(set_a, 2)

    @pytest.mark.parametrize("E", [float("nan"), float("inf"), -float("inf"), complex(0.5, float("nan"))])
    def test_non_finite_trial_energy_rejected(self, set_a, E):
        # A nan or inf E gave mu = nan+nanj and no error.
        with pytest.raises(kg.ParameterError, match="E must be finite") as info:
            kg.level(set_a, E, 0)
        assert info.value.param == "E"


def grid_riccati(p: PotentialParams, E: complex, n: int, x: np.ndarray, offset: float = 0.0) -> tuple[float, float]:
    """(residual, scale) of W_n^2 - W_n' = V(n) - eps_n sampled on x.

    The second route beside riccati_check's coefficients in u: the sup-norm
    defect of the sampled functions, with the scale 1 + sup(|W_n|^2 + |W_n'| +
    |V(n)|).  offset shifts mu_n as riccati_check's mu_perturbation does.
    """
    w = kg.level(p, E, n)
    w = w._replace(mu=w.mu + offset)
    wv, wd = w_and_derivative(w, x)
    if n == 0:
        chain = kg.effective_potential(p, E, x)
    else:
        w_prev = kg.level(p, E, n - 1)
        wp, wpd = w_and_derivative(w_prev, x)
        chain = wp * wp + wpd + w_prev.epsilon
    res = float(np.max(np.abs((wv * wv - wd) - (chain - w.epsilon))))
    return res, 1.0 + float(np.max(np.abs(wv) ** 2 + np.abs(wd) + np.abs(chain)))


def pole_free_grid(p: PotentialParams) -> np.ndarray:
    # Hermitian: from 1/lam right of the pole (or of 0) to 40/lam; complex
    # branches: [0.05, 0.95] of the first period, clear of the q = 1 poles.
    if p.branch is Branch.HERMITIAN:
        return np.linspace(max(0.0, p.pole_position or 0.0) + 1.0 / p.lam, 40.0 / p.lam, 2001)
    return complex_branch_grid(p)


BRANCHES = [(Branch.HERMITIAN, 0.0), (Branch.PT_SYMMETRIC, 0.0), (Branch.NON_HERMITIAN, 0.1)]


class TestRiccatiResidual:
    def test_exact_level_data_identity_pole_free_grid(self, set_a):
        # Away from the deformation pole the raw sup-norm defect is tiny, and
        # so is the coefficient defect.
        E = [lv.E for lv in kg.solve_level(set_a, 0) if lv.E.real > 0][0]
        assert grid_riccati(set_a, E, 0, np.linspace(1.0, 40.0, 1500))[0] < 1e-10
        assert kg.riccati_check(set_a, E, 0)[0] < 1e-10

    @pytest.mark.parametrize("branch,vi", BRANCHES)
    def test_scaled_identity_every_level(self, branch, vi):
        p = params(SET_C, branch=branch, VI=vi)
        for n in range(4):
            for lv in kg.solve_level(p, n):
                res, scale, ok = kg.riccati_check(p, lv.E, n)
                assert ok, f"n={n} E={lv.E}: residual {res:.2e} vs scale {scale:.2e}"

    @pytest.mark.parametrize("branch,vi", BRANCHES)
    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C], ids="ABC")
    def test_grid_route_agrees(self, base, branch, vi):
        # The identity sampled on a pole-free grid holds at every level and
        # fails under the offset that fails riccati_check.
        p = params(base, branch=branch, VI=vi)
        x = pole_free_grid(p)
        for n in range(4):
            for lv in kg.solve_level(p, n):
                res, scale = grid_riccati(p, lv.E, n, x)
                assert res < hierarchy.RICCATI_TOL * scale, f"n={n} E={lv.E}: {res:.2e} vs {scale:.2e}"
                res, scale = grid_riccati(p, lv.E, n, x, offset=1e-3)
                assert res >= hierarchy.RICCATI_TOL * scale, f"n={n} E={lv.E}: {res:.2e} vs {scale:.2e}"
                assert kg.riccati_check(p, lv.E, n)[2]
                assert not kg.riccati_check(p, lv.E, n, mu_perturbation=1e-3)[2]

    def test_arbitrary_energy_also_satisfies_identity(self, set_c):
        # The chain identity is algebraic in E, not only at self-consistent roots.
        res, scale, ok = kg.riccati_check(set_c, 0.123, 2)
        assert ok

    def test_mu_perturbation_breaks_identity(self, set_a):
        E = [lv.E for lv in kg.solve_level(set_a, 0) if lv.E.real > 0][0]
        res, scale, ok = kg.riccati_check(set_a, E, 0, mu_perturbation=1e-3)
        assert not ok
        assert kg.riccati_check(set_a, E, 0, mu_perturbation=1e-3)[0] > 1e-4

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_D], ids="ABD")
    def test_small_offset_fails_at_the_pole(self, base):
        # Sampled up to 1e-6/lam from the Hermitian pole, the scale reached
        # 1e12 and an offset of 1e-6 passed at every level; the coefficients
        # have no pole, and it fails at each.
        p = params(base)
        assert p.pole_position is not None and p.pole_position >= 0.0
        levels = kg.spectrum(p, 8)
        assert levels
        for lv in levels:
            res, scale, ok = kg.riccati_check(p, lv.E, lv.n, mu_perturbation=1e-6)
            assert not ok, f"n={lv.n} E={lv.E}: {res:.2e} vs {scale:.2e}"

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
    def test_non_finite_mu_perturbation_rejected(self, set_a, offset):
        # A nan offset returned (nan, nan, False): a failed check with no cause.
        with pytest.raises(kg.ParameterError, match="mu_perturbation must be finite") as info:
            kg.riccati_check(set_a, 0.5, 0, mu_perturbation=offset)
        assert info.value.param == "mu_perturbation"


class TestLadder:
    def test_annihilation_of_ground_state(self, set_a):
        E = [lv.E for lv in kg.solve_level(set_a, 0) if lv.E.real > 0][0]
        w = kg.level(set_a, E, 0)
        psi = kg.ground_state_from_W(w, 0.5, 0.05, 1201)
        ann = ladder(w, psi, +1)
        assert ann.l2_norm() / psi.l2_norm() < 1e-5

    @pytest.mark.parametrize("base", [SET_A, SET_B], ids=["A", "B"])
    def test_annihilation_fourth_order(self, base):
        p = params(base)
        E = [lv.E for lv in kg.solve_level(p, 0) if lv.mu.real > 0][0]
        w = kg.level(p, E, 0)
        rels = []
        for npts in (801, 1601):
            psi = kg.ground_state_from_W(w, 0.5, 60.0 / (npts - 1), npts)
            rels.append(ladder(w, psi, +1).l2_norm() / psi.l2_norm())
        ratio = rels[0] / rels[1]
        assert 11.0 < ratio < 21.0  # halving h cuts the defect ~2^4

    def test_compositions_give_partner_hamiltonians(self, set_c):
        # (+d/dx + W)(-d/dx + W) f = -f'' + (W^2 + W') f, and the reversed
        # order produces the first partner (W^2 - W').
        w = kg.level(set_c, 0.3, 0)
        x = np.linspace(0.5, 30.0, 4001)
        h = x[1] - x[0]
        f = np.exp(-((x - 8.0) ** 2) / 4.0).astype(complex)
        fg = kg.GridFunction(x[0], h, f)
        for first, second, pm in [(-1, +1, +1.0), (+1, -1, -1.0)]:
            twice = ladder(w, ladder(w, fg, first), second)
            xi = np.asarray(twice.x)
            wv, wd = w_and_derivative(w, xi)
            fi = np.exp(-((xi - 8.0) ** 2) / 4.0)
            fpp = fi * (((xi - 8.0) ** 2) / 4.0 - 0.5)
            expected = -fpp + (wv * wv + pm * wd) * fi
            np.testing.assert_allclose(twice.values, expected, atol=5e-7 * np.max(np.abs(expected)))

    def test_log_derivative_reconstructs_superpotential(self, set_a):
        # W = -(log psi)' recovered from sampled psi by central differences.
        E = [lv.E for lv in kg.solve_level(set_a, 0) if lv.E.real > 0][0]
        w = kg.level(set_a, E, 0)
        psi = kg.ground_state_from_W(w, 1.0, 29.0 / 4000, 4001)
        v = np.asarray(psi.values)
        dpsi = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * psi.dx)
        w_rec = -dpsi / v[2:-2]
        np.testing.assert_allclose(w_rec, w_and_derivative(w, psi.x[2:-2])[0], atol=1e-9)


LADDER_TOL = 3e-5  # |eig_k + mu_k(E0)^2| at 4000 points; the worst, set D, reads 1.1e-5


def discretized_ladder(p: PotentialParams) -> tuple[float, np.ndarray]:
    """E0, the largest level-0 root, and the K lowest eigenvalues of the oracle's
    H(E0) = -d2/dx2 + V_eff(E0) at 4000 points, K the levels with Re mu_k(E0) > 0."""
    E0 = max(lv.E.real for lv in kg.solve_level(p, 0))
    K = next(k for k in itertools.count() if kg.level(p, E0, k).mu.real <= 0.0)
    return E0, kg.discretize(p, E0, kg.OracleConfig(n_points=4000)).eigenvalues(K - 1)


def chain_epsilons(p: PotentialParams, E: float, K: int, step_factor: float) -> np.ndarray:
    """eps_k(E) = -mu_k(E)^2 for k < K from a chain whose step q*lambda_eff is scaled by step_factor."""
    nu1, step, *rest = hierarchy.level_chain(p)
    chain = (nu1, step * step_factor, *rest)
    mus = [a + b * E for _, a, b in (hierarchy.chain_coefficients(chain, k) for k in range(K))]
    return np.array([-(mu * mu).real for mu in mus])


class TestHierarchyLadder:
    """Shape invariance on the oracle's own operator: at a fixed E the bound
    spectrum of H(E) is {-mu_k(E)^2 : Re mu_k > 0}, each partner shifting rho by q*lambda_eff."""

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids="ABCD")
    def test_discretized_spectrum_is_the_chain(self, base):
        p = params(base)
        E0, eigs = discretized_ladder(p)
        assert eigs.size >= 2
        eps = np.array([kg.level(p, E0, k).epsilon for k in range(eigs.size)])
        assert np.max(np.abs(eigs - eps)) < LADDER_TOL
        # A chain step off by 1e-3 moves some k >= 1 above 1e-4 on every set.
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            assert np.max(np.abs(eigs - chain_epsilons(p, E0, eigs.size, factor))[1:]) > 1e-4
