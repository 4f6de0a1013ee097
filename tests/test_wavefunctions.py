"""Ground-state wavefunctions: construction, normalization, diagnostics."""

import math

import numpy as np
import pytest

import kg_hierarchy as kg
from kg_hierarchy import Branch, GridFunction, LevelFlag, Superpotential
from kg_hierarchy.errors import DomainError, NonNormalizableError, ParameterError
from kg_hierarchy.potential import kernel_and_base

from conftest import SET_A, SET_B, SET_C, params


def closed_form_psi(p, w: Superpotential, x: np.ndarray) -> np.ndarray:
    """Unnormalized closed form (1 - q*k)^(nu/(q*lambda_eff)) * exp(-mu*x) on an array x.

    A complex power of the deformation base times a separate exponential: a
    different floating-point route from the fused antiderivative that
    ground_state_from_W exponentiates, so the two must agree pointwise.
    """
    xa = np.asarray(x, dtype=float).astype(np.complex128)
    base = 1.0 - p.q * np.exp(-p.lambda_eff * xa)
    return np.power(base, w.nu / (p.q * p.lambda_eff)) * np.exp(-w.mu * xa)


def numpy_ground_state(w: Superpotential, x0: float, dx: float, n: int) -> np.ndarray:
    """The numpy evaluation of ground_state_from_W that the plain-Python one replaced,
    kept as the reference route: the same operations on complex128 arrays, with
    numpy's pairwise sum and its own exp, log and complex products."""
    x = x0 + dx * np.arange(n)
    base = kernel_and_base(w.q, w.lambda_eff, x)[1]
    log_psi = (w.nu / (w.q * w.lambda_eff)) * np.log(base) - w.mu * x
    peak = float(np.max(log_psi.real))
    if np.isfinite(peak):
        log_psi = log_psi - peak
    values = np.exp(log_psi)
    if w.lambda_eff.imag == 0.0:
        norm = float(np.sqrt(dx * np.sum(np.abs(values) ** 2)))
    else:
        norm = float(np.max(np.abs(values)))
    return values * (1.0 / norm)


def linspace_grid(x0: float, x1: float, n: int) -> tuple[float, float, int]:
    """(x0, dx, n) of the n points from x0 to x1, as ground_state_from_W takes them."""
    return x0, (x1 - x0) / (n - 1), n


def solved_level(p, n=0, positive=True):
    lvls = kg.solve_level(p, n)
    lvls = [lv for lv in lvls if lv.mu.real > 0]
    lvls.sort(key=lambda lv: lv.E.real, reverse=positive)
    return lvls[0]


class TestGridFunction:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 0.1, np.ones(8, dtype=complex))

    def test_positive_spacing(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, -0.1, np.ones(32, dtype=complex))

    @pytest.mark.parametrize("x0,dx", [(np.nan, 0.1), (np.inf, 0.1), (0.0, np.inf), (0.0, np.nan)])
    def test_non_finite_axis_rejected(self, x0, dx):
        # x0 = nan would make every x NaN, dx = inf every x after the first inf.
        with pytest.raises(ValueError, match="finite x0 and a finite positive spacing"):
            GridFunction(x0, dx, np.ones(32, dtype=complex))

    def test_axis(self):
        g = GridFunction(1.0, 0.5, np.ones(16, dtype=complex))
        assert g.x[0] == 1.0 and g.x[-1] == pytest.approx(8.5)

    def test_max_modulus_sees_a_nan_that_is_not_first(self):
        # max() compares nothing greater than a nan, so it skips one that is not first.
        vals = [1.0 + 0j] * 20 + [complex(math.nan, 0.0)] + [2.0 + 0j] * 20
        assert math.isnan(GridFunction(0.0, 0.1, vals).max_modulus())
        assert GridFunction(0.0, 0.1, vals[:20] + vals[21:]).max_modulus() == 2.0


class TestGroundStateFromW:
    def test_unit_l2_norm_hermitian(self, set_a):
        lv = solved_level(set_a)
        w = kg.level(set_a, lv.E, 0)
        psi = kg.ground_state_from_W(w, *linspace_grid(set_a.domain_start(), 120.0, 1600))
        assert psi.l2_norm() == pytest.approx(1.0, rel=1e-12)

    def test_matches_closed_form_structure(self, set_a):
        # (1 - q e^{-lam x})^(nu/(q lam)) e^{-mu x}, checked against an
        # independently coded expression.
        lv = solved_level(set_a)
        w = kg.level(set_a, lv.E, 0)
        psi = kg.ground_state_from_W(w, *linspace_grid(set_a.domain_start(), 80.0, 1024))
        x, values = np.asarray(psi.x), np.asarray(psi.values)
        ref = (1.0 - np.exp(-0.2 * x)) ** (w.nu.real / 0.2) * np.exp(-w.mu.real * x)
        ref = ref / np.sqrt(np.sum(ref * ref) * psi.dx)
        np.testing.assert_allclose(values.real, ref, atol=1e-12)
        np.testing.assert_allclose(values.imag, 0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2000.0, 16.5, "2000", None])
    def test_non_integer_sample_count_rejected(self, set_a, n):
        w = kg.level(set_a, solved_level(set_a).E, 0)
        with pytest.raises(ParameterError, match="n must be an integer >= 0") as info:
            kg.ground_state_from_W(w, 1.0, 0.1, n)
        assert info.value.param == "n"

    @pytest.mark.parametrize("x0,dx,n,match", [
        (1.0, 0.1, 15, "at least 16 samples"),
        (1.0, 0.1, 0, "at least 16 samples"),
        (1.0, 0.0, 2000, "finite positive spacing"),
        (100.0, -0.05, 2000, "finite positive spacing"),
        (np.inf, 0.1, 2000, "finite positive spacing"),
        (-np.inf, 0.1, 2000, "finite positive spacing"),
        (np.nan, 0.1, 2000, "finite positive spacing"),
        (1.0, np.inf, 2000, "finite positive spacing"),
        (1.0, np.nan, 2000, "finite positive spacing"),
    ], ids=["n15", "n0", "dx0", "decreasing", "x0inf", "x0-inf", "x0nan", "dxinf", "dxnan"])
    def test_bad_grid_is_the_grid_function_error(self, set_a, x0, dx, n, match):
        # GridFunction's own checks, made before psi is evaluated.
        w = kg.level(set_a, solved_level(set_a).E, 0)
        with pytest.raises(ValueError, match=match):
            kg.ground_state_from_W(w, x0, dx, n)

    def test_long_grid_accepted_as_given(self, set_a):
        w = kg.level(set_a, solved_level(set_a).E, 0)
        x0, dx, n = linspace_grid(set_a.domain_start(), 200.0, 16000)
        psi = kg.ground_state_from_W(w, x0, dx, n)
        assert (psi.x0, psi.dx, psi.n) == (x0, dx, n)
        assert psi.l2_norm() == pytest.approx(1.0, rel=1e-12)

    def test_non_normalizable_raises(self):
        w = Superpotential(nu=0.5, mu=-0.2, lambda_eff=0.5, q=1.0)
        with pytest.raises(NonNormalizableError):
            kg.ground_state_from_W(w, *linspace_grid(0.1, 40.0, 512))

    def test_underflowing_psi_normalizes(self):
        # lam = 2^-9 on set A: |psi|^2 lies below the smallest double on all of
        # (0, 40/lam], so exp(log psi) alone has grid norm 0.  Shifted by the
        # largest log(psi) the ground state normalizes.  closed_form_psi underflows
        # here too, so the shape is checked against it at half the exponents
        # (nu/2, mu/2), whose square is psi up to a constant.
        p = params(dict(SET_A, lam=0.001953125))
        lv = solved_level(p)
        w = kg.level(p, lv.E, 0)
        psi = kg.ground_state_from_W(w, *linspace_grid(p.domain_start(), 40.0 / p.lam, 2000))
        x = psi.x
        assert psi.l2_norm() == pytest.approx(1.0, rel=1e-12)
        full = closed_form_psi(p, w, x)
        assert np.sum(np.abs(full) ** 2) == 0.0
        half = closed_form_psi(p, Superpotential(w.nu / 2, w.mu / 2, p.lambda_eff, p.q), x).real
        shape = (half / half.max()) ** 2
        shape /= np.sqrt(np.sum(shape * shape) * psi.dx)
        values = np.asarray(psi.values)
        np.testing.assert_allclose(values.real, shape, rtol=0, atol=1e-12)
        assert not np.any(values.imag)

    def test_hermitian_tail_decay(self, set_a):
        lv = solved_level(set_a)
        w = kg.level(set_a, lv.E, 0)
        x_end = 20.0 / w.mu.real + 8.0
        psi = kg.ground_state_from_W(w, *linspace_grid(set_a.domain_start(), x_end, 2000))
        assert abs(psi.values[-1]) < 1e-8 * psi.max_modulus()

    def test_small_q_exponential_limit(self):
        # ln(1 - q k) ~ -q k: psi -> exp(-(nu/lam) e^{-lam x}) exp(-mu x).
        p = params(dict(V0=0.0, S0=1.0, lam=0.2, q=1e-8, m=1.0))
        w = kg.level(p, 0.0, 0)
        psi = kg.ground_state_from_W(w, *linspace_grid(0.1, 60.0, 800))
        x = np.asarray(psi.x)
        limit = np.exp(-(w.nu / p.lam) * np.exp(-p.lam * x)) * np.exp(-w.mu * x)
        limit /= np.sqrt(np.sum(np.abs(limit) ** 2) * psi.dx)
        assert np.max(np.abs(psi.values - limit)) <= 1e-6 * np.max(np.abs(limit))

    def test_complex_branch_max_modulus_normalization(self):
        p = params(SET_C, branch=Branch.PT_SYMMETRIC)
        lv = kg.solve_level(p, 0)[0]
        w = kg.level(p, lv.E, 0)
        period = 2 * np.pi / p.lam
        psi = kg.ground_state_from_W(w, *linspace_grid(0.05 * period, 0.95 * period, 600))
        assert psi.max_modulus() == pytest.approx(1.0, rel=1e-12)


class TestRouteEquivalence:
    @pytest.mark.parametrize("branch,vi", [
        (Branch.HERMITIAN, 0.0),
        (Branch.PT_SYMMETRIC, 0.0),
        (Branch.NON_HERMITIAN, 0.1),
    ])
    def test_two_evaluation_routes_agree(self, branch, vi):
        p = params(SET_C, branch=branch, VI=vi)
        lv = kg.solve_level(p, 0)[0]
        w = kg.level(p, lv.E, 0)
        if branch is Branch.HERMITIAN:
            grid = linspace_grid(p.domain_start(), 60.0, 900)
        else:
            period = 2 * np.pi / p.lam
            grid = linspace_grid(0.05 * period, 0.95 * period, 900)
        hermitian = branch is Branch.HERMITIAN and w.mu.real > 0
        psi_w = kg.ground_state_from_W(w, *grid)
        raw = closed_form_psi(p, w, psi_w.x)
        if hermitian:
            ref = raw / (np.sqrt(np.sum(np.abs(raw) ** 2) * psi_w.dx))
        else:
            ref = raw / np.max(np.abs(raw))
        # Normalization can differ by a constant phase between the two routes.
        idx = int(np.argmax(np.abs(ref)))
        ref = ref * (psi_w.values[idx] / ref[idx])
        np.testing.assert_allclose(psi_w.values, ref, atol=1e-12)

    def test_pure_phase_factor_on_nonhermitian_branch(self):
        # With mu purely imaginary the exponential factor has unit modulus, so
        # |psi| is carried by the deformation power alone.
        p = params(SET_C, branch=Branch.NON_HERMITIAN, VI=0.1)
        psi, base = (
            kg.ground_state_from_W(Superpotential(nu=0.5 + 0.1j, mu=mu, lambda_eff=p.lambda_eff, q=p.q),
                                   *linspace_grid(1.0, 20.0, 300))
            for mu in (0.3j, 0.0)
        )
        np.testing.assert_allclose(np.abs(psi.values), np.abs(base.values), rtol=1e-12)

    def test_grid_through_the_pole_raises(self):
        # q = 2: 1 - q*exp(-lam*x) vanishes at ln(2)/lam, the middle grid point.
        p = params(dict(SET_A, q=2.0))
        pole = np.log(2.0) / p.lam
        w = Superpotential(nu=1.5, mu=0.3, lambda_eff=p.lambda_eff, q=p.q)
        with pytest.raises(DomainError, match="pole"):
            kg.ground_state_from_W(w, *linspace_grid(pole - 1.0, pole + 1.0, 33))

    @pytest.mark.parametrize("q,lambda_eff,pole", [(1.0, 0.2, 0.0), (-1.0, 0.2j, math.pi / 0.2)],
                             ids=["exact-zero", "complex-branch"])
    def test_grid_through_other_poles_raises(self, q, lambda_eff, pole):
        # The middle grid point: 1 - q*k is exactly 0 at x = 0 for q = 1, where the
        # log of the base would raise ValueError; |q| = 1 on a complex branch puts
        # a pole at pi/lam for q = -1.
        w = Superpotential(nu=1.5, mu=0.3, lambda_eff=lambda_eff, q=q)
        with pytest.raises(DomainError, match="pole"):
            kg.ground_state_from_W(w, *linspace_grid(pole - 1.0, pole + 1.0, 33))

    @pytest.mark.parametrize("q", [2.0, -2.0])
    def test_overflowing_kernel_is_non_normalizable(self, q):
        # exp(-lam*x) overflows on all of [-5000, -4937]: numpy gave inf there and a
        # nan norm, where cmath.exp raises OverflowError.
        w = Superpotential(nu=1.5, mu=0.3, lambda_eff=0.2, q=q)
        with pytest.raises(NonNormalizableError, match="grid norm of psi is nan"):
            kg.ground_state_from_W(w, -5000.0, 1.0, 64)

    def test_nan_samples_fail_the_max_modulus_norm(self):
        # A complex lambda_eff with a negative real part: k overflows right of
        # x = 3548.9, so the last samples are nan, and a max() that skipped them
        # normalized the finite ones.
        w = Superpotential(nu=1.5, mu=0.3j, lambda_eff=-0.2 + 0.2j, q=2.0)
        with pytest.raises(NonNormalizableError, match="grid norm of psi is nan"):
            kg.ground_state_from_W(w, 3500.0, 1.0, 64)

    def test_boundary_value_finite_for_nonnegative_exponent(self, set_c):
        lv = solved_level(set_c)
        w = kg.level(set_c, lv.E, 0)
        psi = kg.ground_state_from_W(w, *linspace_grid(set_c.domain_start(), 60.0, 900))
        assert np.isfinite(psi.values[0].real) and np.isfinite(psi.values[0].imag)


# The spectrum and wavefunction cases of the benchmark: sets A-C on every branch
# with a bound level at n = 0 (PTSymmetric B has none).
BENCHMARK_CASES = [
    (name, branch) for name in ("A", "B", "C") for branch in Branch if (name, branch) != ("B", Branch.PT_SYMMETRIC)
]


class TestNumpyRoute:
    @pytest.mark.parametrize("name,branch", BENCHMARK_CASES, ids=[f"{n}-{b.value}" for n, b in BENCHMARK_CASES])
    def test_samples_match_the_numpy_route(self, name, branch):
        # On the CLI grid, every normalizable level: the plain-Python samples differ
        # from the numpy route's only in the last digits (at most 7.1e-15 of max|psi|).
        p = params({"A": SET_A, "B": SET_B, "C": SET_C}[name], branch=branch,
                   VI=0.1 if branch is Branch.NON_HERMITIAN else 0.0)
        x0 = p.domain_start()
        dx = (p.box_end() - x0) / 1999
        levels = [lv for lv in kg.spectrum(p, 8) if LevelFlag.NORMALIZABLE_MU_POSITIVE in lv.flags]
        assert levels
        for lv in levels:
            w = kg.level(p, lv.E, lv.n)
            psi = kg.ground_state_from_W(w, x0, dx, 2000)
            ref = numpy_ground_state(w, x0, dx, 2000)
            assert np.max(np.abs(np.asarray(psi.values) - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestNodeCount:
    def test_nodeless_ground_state(self, set_a):
        lv = solved_level(set_a)
        w = kg.level(set_a, lv.E, 0)
        psi = kg.ground_state_from_W(w, *linspace_grid(set_a.domain_start(), 100.0, 1200))
        assert kg.node_count(psi) == 0

    def test_constant_function(self):
        assert kg.node_count(GridFunction(0.0, 0.1, np.full(64, 2.0, dtype=complex))) == 0

    def test_oracle_eigenvector_nodes(self, set_a):
        # Sturm oscillation: the k-th discretized eigenvector has k sign changes.
        cfg = kg.OracleConfig(n_points=1500)
        for k in range(4):
            res = kg.solve_selfconsistent(set_a, k, cfg, seed=0.5)
            assert kg.node_count(res.eigenvector) == k

    def test_near_zero_samples_ignored(self):
        vals = np.array([1.0] * 20 + [1e-15, -1e-15] + [1.0] * 20, dtype=complex)
        assert kg.node_count(GridFunction(0.0, 0.1, vals)) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_samples_rejected(self, bad):
        # One non-finite sample would make this sine with 3 nodes read 0.
        x = np.linspace(0.0, 1.0, 64)
        vals = np.sin(4.0 * np.pi * x[1:-1]).astype(complex)
        assert kg.node_count(GridFunction(0.0, x[1], vals)) == 3
        vals[10] = bad
        with pytest.raises(ValueError, match="finite samples"):
            kg.node_count(GridFunction(0.0, x[1], vals))

    def test_complex_samples_rejected(self):
        vals = np.linspace(-1, 1, 32) + 0.5j
        with pytest.raises(ValueError):
            kg.node_count(GridFunction(0.0, 0.1, vals))
