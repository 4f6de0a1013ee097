"""Finite-difference verifier: discretization quality, inertia counts and one-shot root checks."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import kg_hierarchy as kg
from kg_hierarchy import OracleConfig, PotentialParams, oracle
from kg_hierarchy.errors import ComplexLevelError, NoBoundStateError
from kg_hierarchy.oracle import BandedOperator, _box, _pole_wall, _pole_wall_rows, assemble_bands, discretize

from conftest import SET_A, SET_B, SET_C, eig_banded_reference, params

# q = 3 puts the left wall on the deformation pole.
SET_D = dict(V0=0.3, S0=0.5, lam=0.25, q=3.0, m=1.0)
# Test ids that end in "4" name the order of the 5-point stencil.
SET_IDS = ["A-4", "B-4", "C-4", "D-4"]


def to_dense(op: BandedOperator) -> np.ndarray:
    """The operator as a dense n x n array, read from its upper bands and mirrored."""
    upper2, upper1 = op.bands[0, 2:], op.bands[1, 1:]
    return (np.diag(op.bands[2]) + np.diag(upper1, 1) + np.diag(upper1, -1)
            + np.diag(upper2, 2) + np.diag(upper2, -2))


def ldlt_count(op: BandedOperator, s: float) -> int:
    """Eigenvalues of op below s, counted row by row as the negative pivots d_j of
    the unpivoted A - s*I = L D L^T (Sylvester's law): a second route to
    count_below, which gets the same pivots from chained banded Cholesky calls.

    With l1 = L[j, j-1], l2 = L[j, j-2] and the band entries b = A[j+1, j],
    c = A[j+2, j]:

        d_j = A[j, j] - s - l1^2 d_{j-1} - l2^2 d_{j-2}
        L[j+1, j] = (b - L[j+1, j-1] l1 d_{j-1}) / d_j,   L[j+2, j] = c / d_j

    An exact zero pivot nudges s down by one ulp.
    """
    sub1 = op.bands[1, 1:].tolist() + [0.0]
    sub2 = op.bands[0, 2:].tolist() + [0.0, 0.0]
    while True:
        neg = 0
        d1 = d2 = 1.0
        l1 = l2 = l1_next = 0.0
        try:
            for a, b, c in zip((op.bands[2] - s).tolist(), sub1, sub2):
                d = a - l1 * l1 * d1 - l2 * l2 * d2
                if d < 0.0:
                    neg += 1
                l2 = l1_next
                l1, l1_next = (b - l2 * l1 * d1) / d, c / d
                d2, d1 = d1, d
        except ZeroDivisionError:
            s = math.nextafter(s, -math.inf)
            continue
        return neg


def box_operator(length: float, n: int) -> BandedOperator:
    h = length / (n + 1)
    return BandedOperator(assemble_bands(np.zeros(n), h), h * np.arange(1, n + 1), h)


class TestDiscretize:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(n_points=32)
        # The pole ln(q)/lam = 207.2 lies past the box end 40/lam = 200;
        # the box used to be built backwards, with h < 0.
        with pytest.raises(ValueError, match="deformation pole"):
            discretize(params(dict(SET_A, q=1e18)), 0.5, OracleConfig(n_points=100))

    @pytest.mark.parametrize("n_points", [1000.5, 4000.0, "4000"])
    def test_n_points_must_be_an_integer(self, n_points):
        # 1000.5 passed, and its box of 1001 points ended at 200.0999, not 40/lam = 200.
        with pytest.raises(ValueError, match="n_points must be an integer >= 64"):
            OracleConfig(n_points=n_points)

    def test_numpy_integer_n_points(self):
        cfg = OracleConfig(n_points=np.int64(4000))
        assert cfg == OracleConfig()
        op = discretize(params(SET_A), 0.5, cfg)
        assert op.n == 4000 and op.x[-1] + op.h == pytest.approx(200.0, rel=1e-15)

    def test_box_ground_state(self):
        # V = 0: lowest eigenvalue of the Dirichlet box is (pi/L)^2.
        op = box_operator(50.0, 1000)
        assert op.eigenvalues(0)[0] == pytest.approx((np.pi / 50.0) ** 2, rel=1e-8)

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids=SET_IDS)
    def test_matrix_symmetric_exactly(self, base):
        # to_dense mirrors the upper bands, so dense == dense.T holds for any
        # bands; each interior row the wall closure leaves alone must be the
        # symmetric stencil itself, with V_eff bit-equal to effective_potential.
        p, E, cfg = params(base), 0.5, OracleConfig(n_points=300)
        op = discretize(p, E, cfg)
        inv_h2 = 1.0 / (op.h * op.h)
        stencil = np.array([1.0, -16.0, 30.0, -16.0, 1.0]) * inv_h2 / 12.0
        v = kg.effective_potential(p, complex(E), op.x).real
        dense = to_dense(op)
        wall = _box(p, cfg).wall
        for j in range(max(2, wall[1] if wall else 0), op.n - 2):
            row = np.zeros(op.n)
            row[j - 2 : j + 3] = stencil
            row[j] += v[j]
            assert np.array_equal(dense[j], row), j
        w = np.random.default_rng(0).standard_normal(op.n)
        np.testing.assert_allclose(dense @ w, op.matvec(w), rtol=0, atol=1e-13 * op.norm)

    @pytest.mark.parametrize("lo,hi", [(3.6, 4.4)], ids=["4-3.6-4.4"])
    def test_order_of_accuracy(self, lo, hi):
        # Grid-refinement study on the third box level.
        exact = (3.0 * np.pi / 6.0) ** 2
        errs = [abs(box_operator(6.0, n).eigenvalues(2)[2] - exact) for n in (48, 96, 192)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(lo < o < hi for o in orders)

    def test_complex_branch_rejected(self):
        p = params(SET_A, branch=kg.Branch.PT_SYMMETRIC)
        with pytest.raises(ValueError, match="Hermitian"):
            discretize(p, 0.5, OracleConfig())

    @pytest.mark.parametrize("E", [0.5 + 0.1j, float("nan"), float("inf"), -float("inf"), complex(0.5, float("nan"))])
    def test_non_real_or_non_finite_energy_rejected(self, set_b, E):
        # 0.5 + 0.1j gave the bands of E = 0.5, Im Gamma2 dropped; nan or inf
        # ended in "bands must be finite".
        with pytest.raises(kg.ParameterError, match="E must be real and finite") as info:
            discretize(set_b, E, OracleConfig(n_points=500))
        assert info.value.param == "E"

    def test_real_complex_energy_is_the_float(self, set_b):
        cfg = OracleConfig(n_points=500)
        assert np.array_equal(discretize(set_b, complex(0.5, 0.0), cfg).bands, discretize(set_b, 0.5, cfg).bands)

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

    def test_wall_at_minus_box_end_without_pole(self):
        # q < 0: no pole; the potential flattens to a plateau on the left, and
        # the box spans [-40/lam, 40/lam].
        p = params(dict(SET_A, q=-0.5))
        cfg = OracleConfig()
        op = discretize(p, 0.5, cfg)
        assert op.x[0] == -p.box_end() + op.h
        report = kg.compare(p, kg.spectrum(p, 8), cfg)
        assert report.ok
        assert all(row.E_oracle is not None for row in report.rows)
        assert report.worst_rel_diff < 1e-6


class TestPoleWallClosure:
    """Rows next to a left wall on the pole, where V_eff ~ A/t^2 + B/t."""

    @staticmethod
    def local_solution(p: PotentialParams, E: float):
        # Independent of the oracle: A, B from the couplings, s(s - 1) = A,
        # f = t^s (1 + beta t) with beta = B/(2s).
        g1, g2 = p.S0**2 - p.V0**2, 2.0 * (p.m * p.S0 + E * p.V0)
        qlam = p.q * p.lam
        a, b = g1 / qlam**2, -(g1 / p.q + g2) / qlam
        s = 0.5 + np.sqrt(0.25 + a)
        beta = b / (2.0 * s)
        f = lambda t: t**s * (1.0 + beta * t)
        f2 = lambda t: s * (s - 1.0) * t ** (s - 2.0) + beta * s * (s + 1.0) * t ** (s - 1.0)
        return f, f2

    @staticmethod
    def assert_wall_exponent(p: PotentialParams):
        # s(s - 1) = A has two roots, s and 1 - s; the bound solution starts as
        # t^s with the one above 1/2, whichever route gives s.
        s, a = _pole_wall(p, 0.01)[0], p.gamma1.real / (p.q * p.lam) ** 2
        assert s > 0.5
        assert abs(s * (s - 1.0) - a) <= 1e-14 * (1.0 + s * s)

    @pytest.mark.parametrize("base", [SET_B, SET_D], ids=["B", "D"])
    def test_wall_exponent_is_the_root_above_one_half(self, base):
        self.assert_wall_exponent(params(base))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        a=st.floats(-0.24, 3.7),
        v0=st.floats(0.0, 2.0),
        lam=st.floats(0.05, 2.0),
        q=st.floats(0.05, 10.0),
    )
    def test_wall_exponent_on_drawn_parameters(self, a, v0, lam, q):
        # Gamma1 = S0^2 - V0^2 = a*(q*lam)^2 to rounding, so A = a stays above the
        # discriminant bound -1/4 and below 3.75 (s < 5/2, a wall with rows).
        g1 = a * (q * lam) ** 2
        s0, v0 = (math.sqrt(v0 * v0 + g1), v0) if v0 * v0 + g1 >= 0.0 else (0.0, math.sqrt(-g1))
        self.assert_wall_exponent(params(dict(V0=v0, S0=s0, lam=lam, q=q, m=1.0)))

    def test_complex_wall_exponent_rejected(self):
        # Gamma1 = -0.35 lies below -(q*lam)^2/4 = -0.140625: nu1, and so s, is
        # complex, and discretize raises as spectrum does.
        p = params(dict(SET_D, V0=0.6, S0=0.1))
        with pytest.raises(ComplexLevelError, match="discriminant bound"):
            discretize(p, -0.5, OracleConfig(n_points=400))
        with pytest.raises(ComplexLevelError, match="discriminant bound"):
            kg.spectrum(p, 2)

    def test_rows_reproduce_the_local_solution(self):
        p, E = params(SET_D), -0.9956637780343593
        op = discretize(p, E, OracleConfig(n_points=1000))
        f, f2 = self.local_solution(p, E)
        t = op.h * np.arange(1, 8)
        v = kg.effective_potential(p, E, op.x[:3]).real
        applied = op.matvec(np.concatenate([f(t), np.zeros(op.n - t.size)]))[:3]
        expected = -f2(t[:3]) + v * f(t[:3])
        # Rounding of a row is eps times its largest term, 30/(12 h^2) * f.
        assert np.all(np.abs(applied - expected) <= 1e-12 * f(t[:3]) / op.h**2)
        # Only the diagonal of the first three rows differs from the plain reflection.
        v = kg.effective_potential(p, complex(E), op.x).real
        plain = assemble_bands(v, op.h)
        assert np.array_equal(op.bands[:2], plain[:2])
        assert np.array_equal(op.bands[2, 3:], plain[2, 3:])
        assert np.all(op.bands[2, :3] != plain[2, :3])

    def test_s_equal_one_is_the_ghost_factor_with_exact_b(self):
        # Gamma1 = 0 (set B): the first row's correction is the ghost reflection
        # (-1 + beta h)/(1 + beta h) with beta = B/2; the next two rows need none.
        p, E, h = params(SET_B), -0.995532828318463, 0.1
        beta = -(p.m * p.S0 + E * p.V0) / (p.q * p.lam)
        rows = _pole_wall_rows(p, E, h, *_pole_wall(p, h)) * 12.0 * h * h
        assert rows[0] == pytest.approx((-1.0 + beta * h) / (1.0 + beta * h), abs=1e-12)
        assert np.all(np.abs(rows[1:]) < 1e-12)

    @pytest.mark.parametrize(
        "base,n_points,rows",
        [
            (SET_A, 1000, 0),
            (SET_C, 1000, 0),
            (dict(SET_A, q=-0.5), 1000, 0),
            (SET_B, 400, 0),
            (SET_B, 1000, 2),
            (SET_B, 4000, 3),
            (SET_D, 400, 2),
            (SET_D, 1000, 3),
        ],
        ids=["A", "C", "A-q-negative", "B-400", "B-coarse", "B", "D-400", "D"],
    )
    def test_closure_is_chosen_for_every_energy_at_once(self, base, n_points, rows):
        # A (s = 5.52) and C (s = 2.56) keep the plain reflection: their wall
        # error h^(2s-1) is below h^4; for q < 0 the left wall is -40/lam.  B
        # (s = 1, 1 + beta*t > 0 on t <= rows*h for every |E| <= m) gets no row
        # at 400 points, two at 1000 and three at 4000; at s = 1 only the first
        # carries a correction above rounding.  The choice must not switch as E
        # moves, and every wall without rows is the odd reflection, diagonal
        # (30 - 1)/(12 h^2) + v.
        p = params(base)
        cfg = OracleConfig(n_points=n_points)
        box = _box(p, cfg)
        x, h = box.x, box.h
        stencil = np.array([1.0, -16.0, 30.0, -16.0, 1.0]) * (1.0 / (h * h)) / 12.0
        for E in (-0.99, -0.6, 0.0, 0.3, 0.9, 0.99):
            v = kg.effective_potential(p, E, x).real
            bands, plain = discretize(p, E, cfg).bands, assemble_bands(v, h)
            wall_rows = _pole_wall_rows(p, E, h, *box.wall) if box.wall else None
            assert (0 if wall_rows is None else wall_rows.size) == rows, E
            assert np.array_equal(bands[:2], plain[:2])
            assert np.array_equal(bands[2, rows:], plain[2, rows:]), E
            assert rows == 0 or bands[2, 0] != plain[2, 0], E
            reflected = stencil[2] + v - stencil[0]
            assert bands[2, -1] == reflected[-1], E
            assert rows > 0 or bands[2, 0] == reflected[0], E

    @pytest.mark.parametrize(
        "base,n_points,coarse",
        [(SET_A, 400, False), (SET_B, 400, True), (SET_B, 480, True), (SET_B, 500, False), (SET_D, 400, False)],
        ids=["A-400", "B-400", "B-480", "B-500", "D-400"],
    )
    def test_coarse_wall_mark(self, base, n_points, coarse):
        # Only a pole wall with s < 5/2 whose grid is too coarse for one row
        # (set B: h >= 0.4 up to 499 points) falls back to the odd reflection;
        # A's s = 5.52 wants no row, and D at 400 points gets two.
        p = params(base)
        rows = kg.compare(p, kg.solve_level(p, 0), OracleConfig(n_points=n_points)).rows
        solved = [row for row in rows if not row.skipped]
        assert solved and all(row.coarse_wall == coarse for row in solved)

    @pytest.mark.parametrize("base,n_points,tol", [(SET_D, 1000, 2e-4), (SET_B, 4000, 3e-5)], ids="DB")
    def test_level_zero_accuracy(self, base, n_points, tol):
        # Without the closure: 7.5e-3 on D at 1000 points, 1.1e-4 on B at 4000.
        p = params(base)
        roots = [lv.E.real for lv in kg.solve_level(p, 0) if kg.LevelFlag.NORMALIZABLE_MU_POSITIVE in lv.flags]
        assert roots
        for E in roots:
            res = kg.solve_selfconsistent(p, 0, OracleConfig(n_points=n_points), seed=E)
            assert abs(res.E - E) < tol * abs(E)


class TestShiftInvertKernel:
    """count_below, eigenpair and eigenvalues against the full banded reduction (eig_banded)."""

    K = 5

    @staticmethod
    def operator(base: dict) -> BandedOperator:
        return discretize(params(base), 0.3, OracleConfig(n_points=600))

    @pytest.mark.parametrize("n_points", [600, 4000])
    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids=SET_IDS)
    def test_count_below_matches_eigenvalues(self, base, n_points):
        # Three routes to the inertia: count_below, the row-by-row LDL^T pivots
        # of ldlt_count, and the eigenvalues of LAPACK's full banded reduction.
        op = discretize(params(base), 0.3, OracleConfig(n_points=n_points))
        # One eigenvalue more than the shifts need, so that every count is checked.
        above = scipy.linalg.eig_banded(op.bands, eigvals_only=True, select="i", select_range=(0, self.K + 1))
        eigs = above[:-1]
        # The eigenvalues ladder of certified eigenpairs agrees to rounding.
        assert np.all(np.abs(op.eigenvalues(self.K) - eigs) <= 1e-12 * np.maximum(np.abs(eigs), 1.0))
        shifts = [eigs[0] - 1.0, -1e6]
        # COUNT_SLACK*eps*|A| is the slack eigenpair's counts allow for rounding.
        # Offsets of 1e-11 * max(|lambda_j|, m^2) stay well above eps*|A|; 1e-11
        # of a near-threshold eigenvalue (~5e-4) would not, and there either
        # count is right.
        for lam in eigs:
            for offset in (oracle.COUNT_SLACK * oracle.EPS * op.norm, 1e-11 * max(abs(lam), 1.0)):
                shifts += [lam - offset, lam + offset]
        shifts += list(0.5 * (eigs[:-1] + eigs[1:]))
        for s in shifts:
            assert op.count_below(s) == ldlt_count(op, s) == int(np.sum(above < s)), s

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids=SET_IDS)
    def test_norm_is_the_dense_infinity_norm(self, base):
        # Every row counts, the wall rows too: set A's largest row sum is its
        # first row, closed by the odd reflection next to the pole, and set D's
        # first rows carry the pole-wall corrections.
        op = self.operator(base)
        dense = np.abs(to_dense(op)).sum(1).max()
        assert abs(op.norm - dense) <= 1e-15 * dense

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids=SET_IDS)
    def test_eigenpair_from_any_gap(self, base, monkeypatch):
        op = self.operator(base)
        eigs, vecs = eig_banded_reference(op, self.K)
        shifts = [eigs[0] - 1.0, *(0.5 * (eigs[:-1] + eigs[1:])), eigs[-1]]
        calls = []
        ritz = BandedOperator._ritz
        monkeypatch.setattr(BandedOperator, "_ritz", lambda op, *a: calls.append(a) or ritz(op, *a))
        cold = warm = 0
        for k in range(4):
            # A warm start that is the neighbouring eigenvector, with almost no
            # share of eigenvector k, must not change the certified answer.
            starts = [None, *(vecs[:, j] for j in (k - 1, k + 1) if j >= 0)]
            for shift in shifts:
                rounds = []
                for start in starts:
                    calls.clear()
                    lam, vec = op.eigenpair(k, shift, start)
                    rounds.append(len(calls))
                    # Relative to max(|lambda_k|, m^2): both solvers are accurate to
                    # eps*|A| absolutely, and lambda_3 of set A is -7.8e-4.
                    assert abs(lam - eigs[k]) <= 1e-12 * max(abs(eigs[k]), 1.0), (k, shift)
                    assert np.linalg.norm(op.matvec(vec) - lam * vec) < 1e-9
                    vec = op.polish(lam, vec)
                    assert kg.node_count(kg.GridFunction(float(op.x[0]), op.h, vec.astype(complex))) == k
                cold += rounds[0] * (len(rounds) - 1)
                warm += sum(rounds[1:])
        # A missed first round restarts from the generic vector, so such a start
        # costs about as many rounds as a cold one (1.0-1.2 times; 5-12 times if
        # every round restarted from the warm start).
        assert warm <= 2 * cold

    def test_certified_eigenpair_takes_one_count(self, monkeypatch):
        # A Ritz value with residual r has an eigenvalue within r, so once
        # count_below(theta - tol) == k the upper count cannot fail.
        op = self.operator(SET_B)
        eigs, _ = eig_banded_reference(op, self.K)
        calls = []
        orig = BandedOperator.count_below

        def counted(self, s):
            calls.append(s)
            return orig(self, s)

        monkeypatch.setattr(BandedOperator, "count_below", counted)
        for k in range(4):
            calls.clear()
            lam, _ = op.eigenpair(k, float(eigs[k]) + 1e-9)
            assert abs(lam - eigs[k]) <= 1e-12 * max(abs(eigs[k]), 1.0)
            assert len(calls) == 1, k

    def test_count_survives_exact_zero_pivot(self):
        # s equal to the leading diagonal entry zeroes the first pivot.
        op = box_operator(10.0, 100)
        s = float(op.bands[2, 0])
        assert op.count_below(s) == int(np.sum(eig_banded_reference(op, 99)[0] < s))

    def test_operator_takes_only_the_five_point_stencil(self):
        # count_below reads three bands; tridiagonal storage would count wrong.
        x = np.arange(1.0, 101.0)
        with pytest.raises(ValueError, match="3 x 100"):
            BandedOperator(np.ones((2, 100)), x, 1.0)
        with pytest.raises(ValueError, match="3 x 100"):
            BandedOperator(np.ones((3, 99)), x, 1.0)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_operator_rejects_non_finite_bands(self, bad, k):
        # A NaN or inf entry used to leave eigenpair's bracket open forever.
        h = 0.1
        v = np.zeros(200)
        v[100] = bad
        with pytest.raises(ValueError, match="finite"):
            BandedOperator(assemble_bands(v, h), h * np.arange(1, 201), h).eigenpair(k, 0.0)

    @pytest.mark.parametrize("k", [-1, 100])
    def test_eigenpair_index_outside_the_matrix(self, k):
        with pytest.raises(ValueError, match="outside 0..99"):
            box_operator(10.0, 100).eigenpair(k, 0.0)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_eigenpair_shift_must_be_finite(self, shift):
        with pytest.raises(ValueError, match="shift must be finite"):
            box_operator(10.0, 100).eigenpair(0, shift)

    def test_compare_never_calls_eig_banded(self, set_b, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eig_banded is O(N^2); the oracle solve must not call it")

        monkeypatch.setattr(scipy.linalg, "eig_banded", refuse)
        levels = kg.solve_level(set_b, 0)
        report = kg.compare(set_b, levels, OracleConfig(n_points=2000))
        assert report.ok
        assert [r.E_oracle is not None for r in report.rows] == [False, True]
        assert discretize(set_b, levels[1].E.real, OracleConfig(n_points=2000)).eigenvalues(3).size == 4


def compared_roots(p: PotentialParams) -> list[kg.EnergyLevel]:
    """The levels of spectrum(p, 8) that compare checks (no skip_reason)."""
    return [lv for lv in kg.spectrum(p, 8) if not oracle.skip_reason(p, lv)]


class TestSolveSelfConsistent:
    def test_matches_analytic_vector_free(self, set_a):
        # Primary cross-check at a tight tolerance (this family is grid-friendly).
        lv = [l for l in kg.solve_level(set_a, 0) if l.E.real > 0][0]
        res = kg.solve_selfconsistent(set_a, 0, OracleConfig(), seed=lv.E.real)
        assert abs(res.E - lv.E.real) / abs(res.E) < 1e-4
        assert res.outer_iters == 1

    def test_epsilon_consistency_invariant(self, set_a):
        lv = [l for l in kg.solve_level(set_a, 1) if l.E.real > 0][0]
        res = kg.solve_selfconsistent(set_a, 1, OracleConfig(n_points=2000), seed=lv.E.real)
        assert abs(res.epsilon - (res.E ** 2 - 1.0)) < 1e-10
        assert res.epsilon < 0

    @pytest.mark.parametrize("k", [1.5, -1, "1", None])
    def test_level_index_must_be_a_nonnegative_integer(self, set_a, k):
        # k = 1.5 solved level 1 (E = 0.8678) and eigenpair(1.5, 0) gave eigenvalue 1;
        # k_max = -1 gave empty spectra; "1" and None raised a raw TypeError.
        cfg = OracleConfig(n_points=1000)
        op = discretize(set_a, 0.5, cfg)
        solves = [("k", lambda: kg.solve_selfconsistent(set_a, k, cfg, seed=0.5)),
                  ("k_max", lambda: op.eigenvalues(k))]
        if k != -1:  # eigenpair keeps its "outside 0..n-1" message for -1
            solves.append(("k", lambda: op.eigenpair(k, 0.0)))
        for name, solve in solves:
            with pytest.raises(kg.ParameterError, match=f"{name} must be an integer >= 0") as info:
                solve()
            assert info.value.param == name

    def test_seed_is_required(self, set_a):
        with pytest.raises(TypeError, match="seed"):
            kg.solve_selfconsistent(set_a, 0, OracleConfig(n_points=1000))

    def test_seeds_of_both_signs_give_exact_negatives(self, set_a):
        # V0 = 0: the discretized problem does not depend on the sign of E.
        E = [lv.E.real for lv in kg.solve_level(set_a, 0) if lv.E.real > 0][0]
        r_pos = kg.solve_selfconsistent(set_a, 0, OracleConfig(n_points=2000), seed=+E)
        r_neg = kg.solve_selfconsistent(set_a, 0, OracleConfig(n_points=2000), seed=-E)
        assert r_pos.E == -r_neg.E

    @pytest.mark.parametrize(
        "base,k,E",
        [(SET_C, 3, 0.99368), (SET_B, 3, 0.97606), (dict(V0=0.3, S0=0.6, lam=0.3, q=1.0, m=1.0), 2, 0.98813)],
        ids=["C3", "B3", "V0.3-S0.6-k2"],
    )
    def test_shallow_bound_level(self, base, k, E):
        # Shallow levels with eps_k(0) > 0, bound only near |E| = m.
        p = params(base)
        (seed,) = [lv.E.real for lv in kg.solve_level(p, k) if lv.E.real > 0.9]
        res = kg.solve_selfconsistent(p, k, OracleConfig(), seed=seed)
        assert res.E == pytest.approx(E, abs=1e-5)

    @pytest.mark.parametrize("base", [SET_A, SET_B], ids="AB")
    def test_unbound_level_raises(self, base):
        # Sets A and B have four bound levels; the fifth eigenvalue is not negative.
        with pytest.raises(NoBoundStateError):
            kg.solve_selfconsistent(params(base), 4, OracleConfig(), seed=0.5)

    def test_non_real_seed_rejected(self, set_a, monkeypatch):
        # 0.5 + 0.1j escaped as a raw TypeError from float(seed); a zero
        # imaginary part is the float.
        cfg = OracleConfig(n_points=1000)
        E = [lv.E.real for lv in kg.solve_level(set_a, 0) if lv.E.real > 0][0]
        as_complex, as_float = (kg.solve_selfconsistent(set_a, 0, cfg, seed=s) for s in (complex(E, 0.0), E))
        assert (as_complex.E, as_complex.epsilon) == (as_float.E, as_float.epsilon)
        monkeypatch.setattr(oracle, "discretize", lambda *args: pytest.fail("discretize called"))
        with pytest.raises(kg.ParameterError, match="seed must be finite and real") as info:
            kg.solve_selfconsistent(set_a, 0, cfg, seed=0.5 + 0.1j)
        assert info.value.param == "seed"

    @pytest.mark.parametrize("seed", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_seed_rejected(self, set_a, seed, monkeypatch):
        # A nan or inf seed reached discretize and was reported as
        # "bands must be finite"; it is rejected before any discretization.
        monkeypatch.setattr(oracle, "discretize", lambda *args: pytest.fail("discretize called"))
        with pytest.raises(kg.ParameterError, match="seed must be finite") as info:
            kg.solve_selfconsistent(set_a, 0, OracleConfig(n_points=1000), seed=seed)
        assert info.value.param == "seed"

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids="ABCD")
    def test_root_fed_back_moves_at_second_order(self, base):
        # The step from the analytic root is abs_diff to first order; from the
        # discretized root it found, the next step is of order abs_diff^2.
        # Each root takes one eigensolve on the N grid, and its vector has n nodes.
        p, cfg = params(base), OracleConfig()
        for lv in compared_roots(p):
            res = kg.solve_selfconsistent(p, lv.n, cfg, seed=lv.E.real)
            again = kg.solve_selfconsistent(p, lv.n, cfg, seed=res.E)
            assert abs(again.E - res.E) < 1e-3 * abs(res.E - lv.E.real), lv
            assert res.outer_iters == 1
            assert kg.node_count(res.eigenvector) == lv.n

    def test_local_model_without_real_root(self, set_a, monkeypatch):
        # An eigensolve whose defect g lies far below -b^2/4: the local model
        # d^2 - b*d - g = 0 has no real root, and the check ends with a typed
        # error, not a math domain error.
        eigenpair = BandedOperator.eigenpair

        def deep(op, k, shift, *a):
            eps, vec = eigenpair(op, k, shift, *a)
            return shift - 100.0, vec

        monkeypatch.setattr(BandedOperator, "eigenpair", deep)
        with pytest.raises(kg.NoRootError, match="no real root"):
            kg.solve_selfconsistent(set_a, 0, OracleConfig(n_points=1000), seed=0.5)

    def test_coarse_pole_wall_grid_fails_the_check(self, set_b):
        # 372 points: too coarse for the pole-wall closure, and eps_0 at the
        # analytic root is far from E^2 - m^2.  The step is then no distance to
        # a discretized root, and compare fails the row, whatever E + d is;
        # the vector still has 0 nodes, and the estimate covers the error in eps.
        lv = compared_roots(set_b)[0]
        cfg = OracleConfig(n_points=372)
        res = kg.solve_selfconsistent(set_b, 0, cfg, seed=lv.E.real)
        assert kg.node_count(res.eigenvector) == 0 and res.coarse_wall
        assert abs(res.epsilon - (lv.E.real ** 2 - 1.0)) < res.grid_convergence_est
        assert abs(res.E - lv.E.real) >= oracle.REL_TOL * abs(lv.E.real)
        report = kg.compare(set_b, [lv], cfg)
        assert not report.ok and report.rows[0].rel_diff >= oracle.REL_TOL

    def test_weak_coupling_no_bound_state(self):
        p = params(dict(V0=0.001, S0=0.001, lam=5.0, q=1.0, m=1.0))
        with pytest.raises(NoBoundStateError):
            kg.solve_selfconsistent(p, 0, OracleConfig(n_points=1000), seed=0.5)

    def test_richardson_estimate_bounds_grid_step(self, set_a):
        # |eps(n) - eps(2n)| must stay below 10x the Richardson error estimate.
        cfg = OracleConfig(n_points=2000)
        lv = [l for l in kg.solve_level(set_a, 0) if l.E.real > 0][0]
        res = kg.solve_selfconsistent(set_a, 0, cfg, seed=lv.E.real)
        eps_n = discretize(set_a, res.E, cfg).eigenvalues(0)[0]
        eps_2n = discretize(set_a, res.E, OracleConfig(n_points=4000)).eigenvalues(0)[0]
        assert abs(eps_n - eps_2n) < 10.0 * res.grid_convergence_est

    def test_box_relaxation_monotone(self):
        # Fixed spacing h = 0.01, growing box [0, length] with its left wall on
        # the pole: the discretized ground level only drops.
        p, h = params(dict(V0=0.0, S0=1.0, lam=1.0, q=1.0, m=1.0)), 0.01
        eps = []
        for length in (12.0, 16.0, 20.0, 24.0):
            x = h * np.arange(1, round(length / h))
            op = BandedOperator(assemble_bands(kg.effective_potential(p, 0.0, x).real, h), x, h)
            eps.append(op.eigenvalues(0)[0])
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
        lv = [l for l in kg.solve_level(set_a, 0) if l.E.real > 0][0]
        res = kg.solve_selfconsistent(set_a, 0, cfg, seed=lv.E.real)
        synthetic = kg.EnergyLevel(
            n=0, E=complex(res.E), mu=kg.level(set_a, res.E, 0).mu,
            residual=0.0, mass=set_a.m,
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

    def test_set_a_pairs_are_exact_negatives(self, set_a):
        # V0 = 0: the discrete problem does not depend on the sign of E, so the
        # +-E analytic seeds must give oracle roots that are exact negatives.
        report = kg.compare(set_a, kg.spectrum(set_a, 8), OracleConfig(n_points=2000))
        by_level: dict[int, list[float]] = {}
        for row in report.rows:
            by_level.setdefault(row.n, []).append(row.E_oracle)
        assert len(by_level) == 4
        for n, pair in by_level.items():
            assert len(pair) == 2 and pair[0] == -pair[1], (n, pair)

    def test_report_ok_contract(self, set_a):
        levels = [lv for lv in kg.solve_level(set_a, 0)]
        report = kg.compare(set_a, levels, OracleConfig(n_points=2000))
        assert report.ok
        assert 0.0 < report.worst_rel_diff < 1e-3

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C], ids="ABC")
    def test_roots_off_by_a_thousandth_fail(self, base):
        # Every analytic root times 1 + 1e-3 fails, while the roots pass: the
        # step from each is about 1e-3 of the root, and second-order terms of
        # the one-shot check must not pull it below REL_TOL.
        p = params(base)
        levels = kg.spectrum(p, 8)
        assert kg.compare(p, levels).ok
        assert not kg.compare(p, [lv._replace(E=lv.E * (1.0 + 1e-3)) for lv in levels]).ok

    @pytest.mark.parametrize("base", [SET_A, SET_B, SET_C, SET_D], ids="ABCD")
    def test_next_level_root_fails(self, base):
        # Level n checked at the root of level n + 1 (same sign of E) fails.
        p = params(base)
        roots = compared_roots(p)
        pairs = [(lv, up) for lv in roots for up in roots if up.n == lv.n + 1 and up.E.real * lv.E.real > 0]
        assert pairs
        for lv, up in pairs:
            report = kg.compare(p, [lv._replace(E=up.E)])
            assert not report.ok and report.rows[0].rel_diff > 10.0 * oracle.REL_TOL, (lv.n, up.E)

    def test_step_of_rel_tol_fails_either_way(self, set_b, monkeypatch):
        # A step of REL_TOL*|E_n| or more fails whichever way it points: for
        # one that moves away from 0, |d|/|E_n + d| would lie just below REL_TOL.
        lv = compared_roots(set_b)[1]
        for sign in (1.0, -1.0):
            step = sign * math.copysign(1.0005 * oracle.REL_TOL * abs(lv.E.real), lv.E.real)
            result = oracle.OracleResult(lv.E.real + step, 0.0, None, 1, 0.0, False)
            monkeypatch.setattr(oracle, "solve_selfconsistent", lambda *a, **kw: result)
            report = kg.compare(set_b, [lv])
            assert not report.ok and report.rows[0].rel_diff >= oracle.REL_TOL, sign
