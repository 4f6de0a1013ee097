"""Independent finite-difference verifier for the Hermitian branch.

Discretizes (-d2/dx2 + V_eff(x; E)) psi = eps * psi on a box with Dirichlet
walls and solves the energy-dependent eigenproblem self-consistently with an
outer secant iteration on g(E) = eps_k(E) - (E^2 - m^2).

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

from .errors import DomainError, NoBoundStateError, OuterDivergenceError
from .grid import GridFunction
from .hierarchy import superpotential_derivative, superpotential_eval
from .potential import Branch, PotentialParams, effective_potential
from .spectra import EnergyLevel, LevelFlag

DEFAULT_REL_TOL = 1e-3
# Outer secant iteration: |g(E)| target and iteration budget.
OUTER_TOL = 1e-10
MAX_OUTER = 100


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
        if x_max < 10.0 / p.lam:
            raise ValueError("x_max must extend beyond 10/lam")
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
        return scipy.linalg.eig_banded(
            self.bands, lower=False, eigvals_only=True, select="i", select_range=(0, k_max)
        )

    def eigenpair(self, k: int) -> tuple[float, np.ndarray]:
        """k-th eigenpair; the eigenvector comes from banded inverse iteration."""
        lam = float(self.eigenvalues(k)[k])
        u = self.bands.shape[0] - 1
        n = self.n
        # General banded LU form of A - (lam + shift) I; the tiny shift keeps the
        # factorization away from exact singularity.
        shift = 1e-10 * (1.0 + abs(lam))
        ab = np.zeros((2 * u + 1, n))
        ab[: u + 1] = self.bands
        for r in range(u):
            offset = u - r
            ab[u + offset, :-offset] = self.bands[r, offset:]
        ab[u] -= lam + shift
        rng = np.random.default_rng(0)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for _ in range(3):
            v = scipy.linalg.solve_banded((u, u), ab, v)
            v /= np.linalg.norm(v)
        # Fix an overall sign so results are deterministic: make the largest
        # component positive.
        v *= np.sign(v[np.argmax(np.abs(v))]) or 1.0
        return lam, v

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


def _eps_k(p: PotentialParams, E: float, k: int, cfg: OracleConfig) -> float:
    op = discretize(p, E, cfg)
    return float(op.eigenvalues(k)[k])


def solve_selfconsistent(
    p: PotentialParams, k: int, cfg: OracleConfig | None = None, *, seed: float | None = None
) -> OracleResult:
    """Secant iteration on g(E) = eps_k(E) - (E^2 - m^2).

    With no explicit seed the two physical candidates are probed from
    E = +m/2 and E = -m/2 and the first converged bound root is returned.
    """
    cfg = (cfg or OracleConfig()).resolve(p)
    seeds = [seed] if seed is not None else [+0.5 * p.m, -0.5 * p.m]
    if seed is None:
        probes = [_eps_k(p, s, k, cfg) for s in (-0.5 * p.m, 0.0, +0.5 * p.m)]
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
        return _eps_k(p, E, k, cfg) - (E * E - p.m * p.m)

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
    eps, vec = op.eigenpair(k)
    if eps >= 0.0 or abs(E) >= p.m:
        raise NoBoundStateError(f"converged level {k} is not bound (eps = {eps:g}, E = {E:g})")
    if abs(eps - (E * E - p.m * p.m)) >= OUTER_TOL:
        raise OuterDivergenceError(
            f"self-consistency defect {abs(eps - (E * E - p.m * p.m)):.3e} "
            f"exceeds {OUTER_TOL:g} after convergence"
        )
    fine = replace(cfg, n_points=2 * cfg.n_points)
    eps_fine = _eps_k(p, E, k, fine)
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
