"""Independent finite-difference verifier for the Hermitian branch.

Discretizes (-d2/dx2 + V_eff(x; E)) psi = eps * psi on a box with Dirichlet
walls and solves the energy-dependent eigenproblem self-consistently with an
outer secant iteration on g(E) = eps_k(E) - (E^2 - m^2).

Each eps_k(E) costs O(N) for N grid points: shift-invert and Rayleigh-quotient
iteration with a banded LU solve (Parlett, The Symmetric Eigenvalue Problem,
ch. 4), its index certified by inertia counts from an unpivoted LDL^T
factorization (Sylvester's law; the bisection of Barth, Martin & Wilkinson,
Numer. Math. 9 (1967) 386).  Only BandedOperator.eigenvalues, which returns the
lowest few eigenvalues at once, uses the O(N^2) banded tridiagonal reduction.

Box placement: the left wall sits at the deformation pole x0 = ln(q)/lam when
q > 0 (x0 = 0 for the plain Hulthen case q = 1), because that is where the
potential wall diverges and where the analytic ground state vanishes; for
0 < q < 1 the pole lies at negative x and the analytic eigenfunctions do not
vanish at x = 0, so clamping the wall to 0 would shift every eigenvalue far
beyond the comparison tolerance.  For q < 0 there is no pole (the potential
flattens to a plateau on the left) and the wall is pushed to -x_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import DomainError, NoBoundStateError, NonConvergenceError, OuterDivergenceError
from .grid import GridFunction
from .hierarchy import superpotential_derivative, superpotential_eval
from .potential import Branch, PotentialParams, effective_potential
from .spectra import EnergyLevel, LevelFlag

DEFAULT_REL_TOL = 1e-3
# Outer secant iteration: |g(E)| target and iteration budget.
OUTER_TOL = 1e-10
MAX_OUTER = 100
# Shift-invert eigensolve: a Ritz value is accepted at residual RITZ_FLOOR*eps*|A|;
# inertia counts get COUNT_SLACK*eps*|A| of rounding slack.  MAX_RITZ_STEPS bounds
# the iteration from one shift, MAX_ROUNDS the restarts from bisected brackets.
EPS = float(np.finfo(float).eps)
RITZ_FLOOR = 1e3
COUNT_SLACK = 64.0
MAX_RITZ_STEPS = 8
MAX_ROUNDS = 64


@dataclass(frozen=True)
class OracleConfig:
    """Discretization controls.

    x_max defaults to 40/lam at resolution time; n_points is the number of
    interior grid points; fd_order selects the 3-point or 5-point stencil.
    """

    x_max: float | None = None
    n_points: int = 4000
    fd_order: int = 4

    def __post_init__(self) -> None:
        if self.n_points < 64:
            raise ValueError("n_points must be >= 64")
        if self.fd_order not in (2, 4):
            raise ValueError("fd_order must be 2 or 4")

    def resolve(self, p: PotentialParams) -> "OracleConfig":
        x_max = self.x_max if self.x_max is not None else 40.0 / p.lam
        if not 10.0 / p.lam <= x_max < math.inf:
            raise ValueError(f"x_max must be finite and extend beyond 10/lam = {10.0 / p.lam:g}")
        return replace(self, x_max=x_max)


def _interior_grid(p: PotentialParams, cfg: OracleConfig) -> tuple[np.ndarray, float]:
    """Interior points and spacing of the Dirichlet box (cfg already resolved)."""
    x_left = max(math.log(p.q) / p.lam, -cfg.x_max) if p.q > 0 else -cfg.x_max
    h = (cfg.x_max - x_left) / (cfg.n_points + 1)
    return x_left + h * np.arange(1, cfg.n_points + 1), h


@dataclass(frozen=True)
class BandedOperator:
    """Symmetric banded form of -d2/dx2 + v(x) with Dirichlet walls."""

    bands: np.ndarray = field(repr=False)  # LAPACK upper-banded storage
    x: np.ndarray = field(repr=False)  # interior points
    h: float
    fd_order: int

    @property
    def n(self) -> int:
        return self.x.size

    def eigenvalues(self, k_max: int) -> np.ndarray:
        """The k_max + 1 lowest eigenvalues by full banded reduction (O(N^2))."""
        return scipy.linalg.eig_banded(
            self.bands, lower=False, eigvals_only=True, select="i", select_range=(0, k_max)
        )

    def count_below(self, s: float) -> int:
        """Number of eigenvalues below s, in O(N).

        By Sylvester's law of inertia it is the number of negative pivots d_j of
        the unpivoted factorization A - s*I = L D L^T.  With l1 = L[j, j-1],
        l2 = L[j, j-2] and the band entries b = A[j+1, j], c = A[j+2, j]:

            d_j = A[j, j] - s - l1^2 d_{j-1} - l2^2 d_{j-2}
            L[j+1, j] = (b - L[j+1, j-1] l1 d_{j-1}) / d_j,   L[j+2, j] = c / d_j

        The 3-point stencil is the case c = 0.  An exact zero pivot means s is
        an eigenvalue of a leading block; s is then nudged down by one ulp.
        """
        u = self.bands.shape[0] - 1
        sub1 = self.bands[u - 1, 1:].tolist() + [0.0]
        sub2 = self.bands[0, 2:].tolist() + [0.0, 0.0] if u == 2 else [0.0] * self.n
        while True:
            neg = 0
            d1 = d2 = 1.0
            l1 = l2 = l1_next = 0.0
            try:
                for a, b, c in zip((self.bands[u] - s).tolist(), sub1, sub2):
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

    def eigenpair(self, k: int, shift: float) -> tuple[float, np.ndarray]:
        """k-th eigenpair (k = 0 lowest) by shift-invert iteration from shift, in O(N).

        Inverse iteration at the shift, then Rayleigh-quotient iteration, gives a
        Ritz pair (theta, v) with residual r = |A v - theta v|.  It is accepted
        only when r is at the rounding floor and the inertia counts put exactly k
        eigenvalues below theta - tol and k + 1 below theta + tol (tol = r plus
        rounding), so theta is lambda_k to within tol.  Otherwise more counts
        widen or bisect a bracket [lo, hi] until it holds lambda_k alone, and the
        iteration restarts from its midpoint.  Two more inverse-iteration sweeps
        at theta clean the eigenvector.
        """
        u, n = self.bands.shape[0] - 1, self.n
        if not 0 <= k < n:
            raise ValueError(f"eigenvalue index {k} outside 0..{n - 1}")
        if not math.isfinite(shift):
            raise ValueError(f"shift must be finite, got {shift}")
        ab = np.zeros((2 * u + 1, n))  # general band form for solve_banded
        ab[: u + 1] = self.bands
        radius = np.zeros(n)
        for r in range(u):
            d = u - r
            ab[u + d, :-d] = self.bands[r, d:]
            radius[:-d] += np.abs(self.bands[r, d:])
            radius[d:] += np.abs(self.bands[r, d:])
        anorm = float(np.max(np.abs(self.bands[u]) + radius))
        floor = RITZ_FLOOR * EPS * anorm
        # Bracket with count_below(lo) = below_lo <= k < below_hi = count_below(hi).
        lo, hi, below_lo, below_hi = -math.inf, math.inf, 0, n
        start = np.random.default_rng(0).standard_normal(n)
        sigma = float(shift)
        for _ in range(MAX_ROUNDS):
            theta, v, res = self._ritz(ab, sigma, start, floor)
            tol = res + COUNT_SLACK * EPS * anorm
            if res <= floor and lo - tol <= theta <= hi + tol:
                below, upto = self.count_below(theta - tol), self.count_below(theta + tol)
                if below <= k < upto:
                    for _ in range(2):
                        v = self._inverse_step(ab, theta, v)
                    v *= np.sign(v[np.argmax(np.abs(v))]) or 1.0
                    return theta, v
                if below > k and theta - tol < hi:
                    hi, below_hi = theta - tol, below
                elif upto <= k and theta + tol > lo:
                    lo, below_lo = theta + tol, upto
            # Probe at least once, until lambda_k is alone in a finite [lo, hi]:
            # a closed bracket is halved; an open end moves out by doubling steps
            # that start at the last miss |theta - sigma| or a tenth of |theta|.
            step = abs(theta - sigma) + 0.1 * abs(theta) + tol
            while True:
                if lo > -math.inf and hi < math.inf:
                    probe = 0.5 * (lo + hi)
                    if not lo < probe < hi:
                        break
                elif hi < math.inf:
                    probe, step = hi - step, 2.0 * step
                elif lo > -math.inf:
                    probe, step = lo + step, 2.0 * step
                else:
                    probe = sigma
                below = self.count_below(probe)
                if below <= k:
                    lo, below_lo = probe, below
                else:
                    hi, below_hi = probe, below
                if below_lo == k and below_hi == k + 1 and lo > -math.inf and hi < math.inf:
                    break
            sigma = 0.5 * (lo + hi)
        raise NonConvergenceError(
            f"eigenvalue {k}: no certified Ritz value after {MAX_ROUNDS} rounds "
            f"(bracket [{lo:.17g}, {hi:.17g}])"
        )

    def _ritz(self, ab: np.ndarray, sigma: float, v: np.ndarray, floor: float) -> tuple[float, np.ndarray, float]:
        """Two inverse-iteration steps at sigma, then Rayleigh-quotient steps.

        Stops when the residual |A v - theta v| reaches floor; returns (theta, v, residual).
        """
        for step in range(MAX_RITZ_STEPS):
            v = self._inverse_step(ab, sigma, v)
            av = self.matvec(v)
            theta = float(v @ av)
            res = float(np.linalg.norm(av - theta * v))
            if res <= floor:
                break
            if step >= 1:
                sigma = theta
        return theta, v, res

    def _inverse_step(self, ab: np.ndarray, sigma: float, v: np.ndarray) -> np.ndarray:
        """Normalized (A - sigma I)^-1 v; sigma moves up by one ulp off an exactly singular shift."""
        u = self.bands.shape[0] - 1
        while True:
            ab[u] = self.bands[u] - sigma
            try:
                w = scipy.linalg.solve_banded((u, u), ab, v, check_finite=False)
            except np.linalg.LinAlgError:
                sigma = math.nextafter(sigma, math.inf)
                continue
            return w / np.linalg.norm(w)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A @ v from the banded storage."""
        u = self.bands.shape[0] - 1
        y = self.bands[u] * v
        for r in range(u):
            d = u - r
            y[:-d] += self.bands[r, d:] * v[d:]
            y[d:] += self.bands[r, d:] * v[:-d]
        return y

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        u = self.bands.shape[0] - 1
        for r in range(u + 1):
            offset = u - r
            diag = self.bands[r, offset:]
            a += np.diag(diag, k=offset)
            if offset:
                a += np.diag(diag, k=-offset)
        return a


def _ghost_factor(v_near: np.ndarray, h: float) -> float:
    """Ghost-point closure coefficient for the 5-point stencil at a Dirichlet wall.

    A Dirichlet eigenfunction obeys psi'' = (V - eps) psi, so at a wall where the
    potential behaves like A/t^2 + B/t the smooth continuation satisfies
    psi(-h) = psi(h) * (-1 + B*h/(1 + B*h/2)) + O(h^4).  B is extracted from the
    first two potential samples (y_i = t_i V(t_i) = A/t_i + B; the A/t part
    cancels exactly), so the closure stays potential agnostic.  For a regular
    wall B -> V-slope terms of order h and the factor reduces to the plain odd
    reflection -1.
    """
    b_tilde = h * (4.0 * v_near[1] - v_near[0])
    bh = b_tilde * h
    if abs(bh) > 1.0:
        return -1.0
    return -1.0 + bh / (1.0 + 0.5 * bh)


def assemble_bands(v: np.ndarray, h: float, fd_order: int) -> np.ndarray:
    """Upper-banded stencil for -d2/dx2 + diag(v) with Dirichlet boundaries.

    The 5-point scheme eliminates the ghost point behind each wall with the
    singularity-aware reflection of :func:`_ghost_factor`; only the corner
    diagonal entries are touched, so the matrix stays symmetric and eigenvalues
    keep 4th-order accuracy even with a Coulomb-like 1/t wall term.
    """
    n = v.size
    inv_h2 = 1.0 / (h * h)
    if fd_order == 2:
        bands = np.zeros((2, n))
        bands[0, 1:] = -inv_h2
        bands[1] = 2.0 * inv_h2 + v
        return bands
    bands = np.zeros((3, n))
    bands[0, 2:] = inv_h2 / 12.0
    bands[1, 1:] = -16.0 * inv_h2 / 12.0
    bands[2] = 30.0 * inv_h2 / 12.0 + v
    bands[2, 0] += _ghost_factor(v[:2], h) * inv_h2 / 12.0
    bands[2, -1] += _ghost_factor(v[[-1, -2]], h) * inv_h2 / 12.0
    return bands


def discretize(p: PotentialParams, E: float, cfg: OracleConfig) -> BandedOperator:
    """Banded symmetric matrix of -d2/dx2 + V_eff(x; E) on the Dirichlet box."""
    if p.branch is not Branch.HERMITIAN:
        raise ValueError("the finite-difference verifier covers the Hermitian branch only")
    cfg = cfg.resolve(p)
    x, h = _interior_grid(p, cfg)
    try:
        v = np.asarray(effective_potential(p, complex(E), x))
    except DomainError as exc:
        raise DomainError(f"deformation pole inside the oracle grid: {exc}") from exc
    if np.max(np.abs(v.imag)) > 1e-12 * (1.0 + np.max(np.abs(v.real))):
        raise ValueError("effective potential is not real on the Hermitian branch")
    return BandedOperator(bands=assemble_bands(v.real, h, cfg.fd_order), x=x, h=h, fd_order=cfg.fd_order)


@dataclass(frozen=True)
class OracleResult:
    """Converged self-consistent eigenvalue with grid diagnostics."""

    E: float
    epsilon: float
    eigenvector: GridFunction
    outer_iters: int
    grid_convergence_est: float

    def __post_init__(self) -> None:
        if self.epsilon >= 0.0:
            raise ValueError("oracle results must have eps < 0 (bound state)")


def _eps_k(p: PotentialParams, E: float, k: int, cfg: OracleConfig, shift: float) -> float:
    return discretize(p, E, cfg).eigenpair(k, shift)[0]


def solve_selfconsistent(
    p: PotentialParams, k: int, cfg: OracleConfig | None = None, *, seed: float | None = None
) -> OracleResult:
    """Secant iteration on g(E) = eps_k(E) - (E^2 - m^2).

    Every eps_k(E) is one BandedOperator.eigenpair(k, shift) solve in O(N),
    shifted at E^2 - m^2 (which eps_k(E) approaches as g -> 0); the Richardson
    estimate re-solves on 2N points, shifted at the converged eps.  With no
    explicit seed the two physical candidates are probed from E = +m/2 and
    E = -m/2 and the first converged bound root is returned.
    """
    cfg = (cfg or OracleConfig()).resolve(p)
    seeds = [seed] if seed is not None else [+0.5 * p.m, -0.5 * p.m]
    if seed is None:
        probes = [_eps_k(p, s, k, cfg, s * s - p.m * p.m) for s in (-0.5 * p.m, 0.0, +0.5 * p.m)]
        if min(probes) >= 0.0:
            raise NoBoundStateError(
                f"eps_{k}(E) >= 0 across the scan: level {k} is not bound"
            )
    last_error: Exception | None = None
    for s in seeds:
        try:
            return _secant_run(p, k, cfg, float(s))
        except (NoBoundStateError, OuterDivergenceError) as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def _secant_run(p: PotentialParams, k: int, cfg: OracleConfig, seed: float) -> OracleResult:
    def g(E: float) -> float:
        return _eps_k(p, E, k, cfg, E * E - p.m * p.m) - (E * E - p.m * p.m)

    e0 = seed
    e1 = seed + 0.01 * p.m if seed > -0.99 * p.m else seed + 0.02 * p.m
    g0, g1 = g(e0), g(e1)
    iters = 2
    for _ in range(MAX_OUTER):
        if abs(g1) < OUTER_TOL:
            break
        if g1 == g0:
            e0, g0 = e1, g1
            e1 = e1 + 0.01 * p.m
            g1 = g(e1)
            iters += 1
            continue
        e_next = e1 - g1 * (e1 - e0) / (g1 - g0)
        if not math.isfinite(e_next) or abs(e_next) > 5.0 * p.m:
            raise OuterDivergenceError(f"secant iterate escaped to E = {e_next}")
        e0, g0 = e1, g1
        e1 = e_next
        g1 = g(e1)
        iters += 1
    else:
        raise OuterDivergenceError(
            f"|g| = {abs(g1):.3e} after {MAX_OUTER} outer iterations"
        )
    E = e1
    op = discretize(p, E, cfg)
    eps, vec = op.eigenpair(k, E * E - p.m * p.m)
    if eps >= 0.0 or abs(E) >= p.m:
        raise NoBoundStateError(f"converged level {k} is not bound (eps = {eps:g}, E = {E:g})")
    if abs(eps - (E * E - p.m * p.m)) >= OUTER_TOL:
        raise OuterDivergenceError(
            f"self-consistency defect {abs(eps - (E * E - p.m * p.m)):.3e} "
            f"exceeds {OUTER_TOL:g} after convergence"
        )
    fine = replace(cfg, n_points=2 * cfg.n_points)
    eps_fine = _eps_k(p, E, k, fine, eps)
    factor = 2.0**cfg.fd_order
    est = abs(eps - eps_fine) * factor / (factor - 1.0)
    psi = GridFunction(float(op.x[0]), op.h, vec.astype(np.complex128))
    return OracleResult(
        E=float(E),
        epsilon=float(eps),
        eigenvector=psi,
        outer_iters=iters,
        grid_convergence_est=float(est),
    )


@dataclass(frozen=True)
class CompareRow:
    n: int
    E_analytic: complex
    E_oracle: float | None
    abs_diff: float | None
    rel_diff: float | None
    grid_convergence_est: float | None
    skipped: str = ""


@dataclass(frozen=True)
class CompareReport:
    rows: list[CompareRow]
    rel_tol: float

    @property
    def worst_rel_diff(self) -> float:
        diffs = [r.rel_diff for r in self.rows if r.rel_diff is not None]
        return max(diffs) if diffs else 0.0

    @property
    def ok(self) -> bool:
        return self.worst_rel_diff < self.rel_tol


def compare(
    p: PotentialParams,
    levels: list[EnergyLevel],
    cfg: OracleConfig | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> CompareReport:
    """Per-level table of analytic vs self-consistent discretized energies.

    Each analytic root seeds its own outer iteration (the convergence criterion
    is still the oracle's own); roots with Re(mu) <= 0 describe non-normalizable
    solutions with no discretized counterpart and are reported as skipped.
    """
    cfg = (cfg or OracleConfig()).resolve(p)
    rows: list[CompareRow] = []
    for lv in levels:
        if LevelFlag.NORMALIZABLE_MU_POSITIVE not in lv.flags:
            rows.append(
                CompareRow(lv.n, lv.E, None, None, None, None, skipped="non-normalizable (Re mu <= 0)")
            )
            continue
        res = solve_selfconsistent(p, lv.n, cfg, seed=float(lv.E.real))
        diff = abs(lv.E - res.E)
        rows.append(
            CompareRow(
                n=lv.n,
                E_analytic=lv.E,
                E_oracle=res.E,
                abs_diff=diff,
                rel_diff=diff / abs(res.E),
                grid_convergence_est=res.grid_convergence_est,
            )
        )
    return CompareReport(rows=rows, rel_tol=rel_tol)


def partner_eigenvalues(
    p: PotentialParams,
    E: complex,
    cfg: OracleConfig | None = None,
    k_max: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Discretized spectra of the partner pair (W^2 - W', W^2 + W') at level 0.

    Unbroken-factorization bookkeeping predicts eig(V2)_k = eig(V1)_{k+1} for the
    bound part of the spectra.
    """
    from .hierarchy import make_superpotential

    cfg = (cfg or OracleConfig()).resolve(p)
    w = make_superpotential(p, E, 0)
    x, h = _interior_grid(p, cfg)
    wv = np.asarray(superpotential_eval(w, x))
    wd = np.asarray(superpotential_derivative(w, x))
    v1 = (wv * wv - wd).real
    v2 = (wv * wv + wd).real
    op1 = BandedOperator(assemble_bands(v1, h, cfg.fd_order), x, h, cfg.fd_order)
    op2 = BandedOperator(assemble_bands(v2, h, cfg.fd_order), x, h, cfg.fd_order)
    return op1.eigenvalues(k_max), op2.eigenvalues(k_max)
