"""Finite-difference verifier: discretization quality and self-consistent solves."""

import numpy as np
import pytest
import scipy.linalg

import kg_hierarchy as kg
from kg_hierarchy import OracleConfig, PotentialParams
from kg_hierarchy.errors import NoBoundStateError
from kg_hierarchy.oracle import BandedOperator, assemble_bands, discretize

from conftest import SET_A, SET_B, SET_C, params

# q = 3 puts the left wall on the deformation pole.
SET_D = dict(V0=0.3, S0=0.5, lam=0.25, q=3.0, m=1.0)


def box_operator(length: float, n: int, fd: int) -> BandedOperator:
    h = length / (n + 1)
    return BandedOperator(assemble_bands(np.zeros(n), h, fd), h * np.arange(1, n + 1), h, fd)


class TestDiscretize:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(n_points=32)
        with pytest.raises(ValueError):
            OracleConfig(fd_order=3)
        with pytest.raises(ValueError):
            OracleConfig(x_max=1.0).resolve(params(SET_A))  # below 10/lam

    def test_box_ground_state(self):
        # V = 0: lowest eigenvalue of the Dirichlet box is (pi/L)^2.
        op = box_operator(50.0, 1000, 4)
        assert op.eigenvalues(0)[0] == pytest.approx((np.pi / 50.0) ** 2, rel=1e-8)

    @pytest.mark.parametrize("fd", [2, 4])
    def test_matrix_symmetric_exactly(self, fd, set_a):
        op = discretize(set_a, 0.5, OracleConfig(n_points=300, fd_order=fd))
        dense = op.to_dense()
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("fd,lo,hi", [(2, 1.7, 2.3), (4, 3.6, 4.4)])
    def test_order_of_accuracy(self, fd, lo, hi):
        # Grid-refinement study on the third box level.
        exact = (3.0 * np.pi / 6.0) ** 2
        errs = [abs(box_operator(6.0, n, fd).eigenvalues(2)[2] - exact) for n in (48, 96, 192)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(lo < o < hi for o in orders)

    def test_complex_branch_rejected(self):
        p = params(SET_A, branch=kg.Branch.PT_SYMMETRIC)
        with pytest.raises(ValueError, match="Hermitian"):
            discretize(p, 0.5, OracleConfig())

    def test_wall_at_pole_for_strong_deformation(self):
        # q > 1: the box starts at the pole ln(q)/lam, keeping the grid clean.
        p = params(dict(V0=0.5, S0=1.0, lam=0.5, q=2.0, m=1.0))
        op = discretize(p, 0.3, OracleConfig(n_points=500))
        assert op.x[0] > np.log(2.0) / 0.5
        assert np.all(np.isfinite(op.bands))

    def test_wall_at_negative_pole_for_weak_deformation(self, set_c):
        # 0 < q < 1: the natural wall sits at negative x0 = ln(q)/lam.
        op = discretize(set_c, 0.2, OracleConfig(n_points=500))
        assert op.x[0] < 0.0
        assert op.x[0] > np.log(0.8) / 0.25


class TestShiftInvertKernel:
    """count_below and eigenpair against the full banded reduction (eig_banded)."""

    K = 5

    @staticmethod
    def operator(base: dict, fd: int) -> BandedOperator:
        return discretize(params(base), 0.3, OracleConfig(n_points=600, fd_order=fd))

    @pytest.mark.parametrize("fd", [2, 4])
    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids="ABCD")
    def test_count_below_matches_eigenvalues(self, base, fd):
        op = self.operator(base, fd)
        eigs = op.eigenvalues(self.K)
        shifts = [eigs[0] - 1.0, -1e6]
        # Offsets of 1e-11 * max(|lambda_j|, m^2) stay well above eps*|A|; 1e-11
        # of a near-threshold eigenvalue (~5e-4) would not, and there either
        # count is right.
        shifts += [lam + sign * 1e-11 * max(abs(lam), 1.0) for lam in eigs[:-1] for sign in (-1.0, 1.0)]
        shifts += list(0.5 * (eigs[:-1] + eigs[1:]))
        for s in shifts:
            assert op.count_below(s) == int(np.sum(eigs < s)), s

    @pytest.mark.parametrize("fd", [2, 4])
    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids="ABCD")
    def test_eigenpair_from_any_gap(self, base, fd):
        op = self.operator(base, fd)
        eigs = op.eigenvalues(self.K)
        shifts = [eigs[0] - 1.0, *(0.5 * (eigs[:-1] + eigs[1:])), eigs[-1]]
        for k in range(4):
            for shift in shifts:
                lam, vec = op.eigenpair(k, shift)
                # Relative to max(|lambda_k|, m^2): both solvers are accurate to
                # eps*|A| absolutely, and lambda_3 of set A is -7.8e-4.
                assert abs(lam - eigs[k]) <= 1e-12 * max(abs(eigs[k]), 1.0), (k, shift)
                assert np.linalg.norm(op.matvec(vec) - lam * vec) < 1e-9
                assert kg.node_count(kg.GridFunction(float(op.x[0]), op.h, vec.astype(complex))) == k

    def test_count_survives_exact_zero_pivot(self):
        # s equal to the leading diagonal entry zeroes the first pivot.
        op = box_operator(10.0, 100, 4)
        s = float(op.bands[2, 0])
        assert op.count_below(s) == int(np.sum(op.eigenvalues(99) < s))

    def test_compare_never_calls_eig_banded(self, set_b, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eig_banded is O(N^2); the oracle solve must not call it")

        monkeypatch.setattr(scipy.linalg, "eig_banded", refuse)
        report = kg.compare(set_b, kg.solve_level(set_b, 0), OracleConfig(n_points=2000))
        assert report.ok
        assert [r.E_oracle is not None for r in report.rows] == [False, True]


class TestSolveSelfConsistent:
    def test_matches_analytic_vector_free(self, set_a):
        # Primary cross-check at a tight tolerance (this family is grid-friendly).
        lv = [l for l in kg.solve_level(set_a, 0) if l.E.real > 0][0]
        res = kg.solve_selfconsistent(set_a, 0, OracleConfig(), seed=0.5)
        assert abs(res.E - lv.E.real) / abs(res.E) < 1e-4
        assert res.outer_iters <= 20

    def test_epsilon_consistency_invariant(self, set_a):
        res = kg.solve_selfconsistent(set_a, 1, OracleConfig(n_points=2000), seed=0.5)
        assert abs(res.epsilon - (res.E ** 2 - 1.0)) < 1e-10
        assert res.epsilon < 0

    def test_default_seeds_find_both_signs(self, set_a):
        r_pos = kg.solve_selfconsistent(set_a, 0, OracleConfig(n_points=2000), seed=+0.5)
        r_neg = kg.solve_selfconsistent(set_a, 0, OracleConfig(n_points=2000), seed=-0.5)
        assert r_pos.E == pytest.approx(-r_neg.E, rel=1e-9)

    def test_weak_coupling_no_bound_state(self):
        p = params(dict(V0=0.001, S0=0.001, lam=5.0, q=1.0, m=1.0))
        with pytest.raises(NoBoundStateError):
            kg.solve_selfconsistent(p, 0, OracleConfig(n_points=1000))

    def test_richardson_estimate_bounds_grid_step(self, set_a):
        # |eps(n) - eps(2n)| must stay below 10x the Richardson error estimate.
        cfg = OracleConfig(n_points=2000)
        res = kg.solve_selfconsistent(set_a, 0, cfg, seed=0.5)
        eps_n = discretize(set_a, res.E, cfg).eigenvalues(0)[0]
        eps_2n = discretize(set_a, res.E, OracleConfig(n_points=4000)).eigenvalues(0)[0]
        assert abs(eps_n - eps_2n) < 10.0 * res.grid_convergence_est

    def test_box_relaxation_monotone(self):
        # Fixed spacing, growing box: the discretized ground level only drops.
        p = params(dict(V0=0.0, S0=1.0, lam=1.0, q=1.0, m=1.0))
        eps = []
        for x_max in (12.0, 16.0, 20.0, 24.0):
            cfg = OracleConfig(x_max=x_max, n_points=int(x_max / 0.01))
            eps.append(discretize(p, 0.0, cfg).eigenvalues(0)[0])
        assert all(a > b for a, b in zip(eps, eps[1:]))


class TestLevelCounting:
    def test_strong_coupling_count_matches_negative_eigenvalues(self):
        # Deep well: the analytic enumeration and the discretized operator must
        # agree on how many bound levels exist.
        p = params(dict(V0=0.0, S0=2.0, lam=0.1, q=1.0, m=1.0))
        analytic_levels = sorted({lv.n for lv in kg.spectrum(p, 20)})
        assert analytic_levels == list(range(8))
        eigs = discretize(p, 0.0, OracleConfig()).eigenvalues(11)
        assert int(np.sum(eigs < 0)) == 8
        for n in analytic_levels:
            assert eigs[n] == pytest.approx(kg.level(p, 0.0, n).epsilon.real, abs=2e-5)

    def test_weak_coupling_counts_agree_on_zero(self):
        p = params(dict(V0=0.001, S0=0.001, lam=5.0, q=1.0, m=1.0))
        assert kg.spectrum(p, 5) == []
        eigs = discretize(p, 0.0, OracleConfig(n_points=1000)).eigenvalues(2)
        assert np.all(eigs >= 0)


class TestCompare:
    def test_synthetic_zero_diff(self, set_a):
        # Feeding the oracle's own result back in must give a vanishing diff.
        cfg = OracleConfig(n_points=2000)
        res = kg.solve_selfconsistent(set_a, 0, cfg, seed=0.5)
        synthetic = kg.EnergyLevel(
            n=0, E=complex(res.E), mu=kg.level(set_a, res.E, 0).mu,
            residual=0.0, branch=set_a.branch, mass=set_a.m,
            flags=frozenset({kg.LevelFlag.NORMALIZABLE_MU_POSITIVE}),
        )
        report = kg.compare(set_a, [synthetic], cfg)
        assert report.rows[0].rel_diff < 1e-9
        assert report.rows[0].grid_convergence_est is not None

    def test_non_normalizable_levels_skipped(self, set_b):
        levels = kg.solve_level(set_b, 0)
        report = kg.compare(set_b, levels, OracleConfig(n_points=2000))
        skipped = [r for r in report.rows if r.skipped]
        assert len(skipped) == 1
        assert "non-normalizable" in skipped[0].skipped

    def test_report_ok_contract(self, set_a):
        levels = [lv for lv in kg.solve_level(set_a, 0)]
        report = kg.compare(set_a, levels, OracleConfig(n_points=2000))
        assert report.ok
        assert 0.0 < report.worst_rel_diff < 1e-3
