"""Independent finite-difference verifier for the Hermitian branch.

Discretizes (-d2/dx2 + V_eff(x; E)) psi = eps * psi on a box with Dirichlet
walls and checks a claimed root E_n of the energy-dependent eigenproblem
eps_k(E) = E^2 - m^2 in one shot: one certified eigenpair at E_n and its
Hellmann-Feynman slope give the discretized root next to E_n to second order
(solve_selfconsistent).

Each eps_k(E) costs O(N) for N grid points: shift-invert and Rayleigh-quotient
iteration with a banded LU solve (Parlett, The Symmetric Eigenvalue Problem,
ch. 4), its index certified by inertia counts: the negative pivots of the
unpivoted A - s*I = L D L^T (Sylvester's law; the bisection of Barth, Martin &
Wilkinson, Numer. Math. 9 (1967) 386), taken from LAPACK's banded Cholesky,
restarted past each negative pivot.  BandedOperator.eigenvalues, the lowest
few at once, is a ladder of these certified eigenpairs: at a fixed E, the SUSY
hierarchy's levels -mu_k(E)^2 with Re mu_k > 0.

Inverse iteration from a good start vector converges in one step (Parlett,
ch. 4), so the Richardson eigensolve on the doubled grid starts from the
N-grid vector, and only the vector returned is cleaned
(BandedOperator.polish); a cold eigensolve starts from the fixed vector
sin(j*phi), phi the golden angle.

Only scipy's LAPACK extension, scipy.linalg._flapack, is loaded, and only at
the first eigensolve, so the closed-form commands never pay for it: spectrum,
sweep and wavefunction never import this module and load no numpy either (they
check a given oracle.n_points with OracleConfig, which lives in potential).
scipy.linalg itself, with its much larger import, is never loaded.

Box placement: the left wall sits at the deformation pole x0 = ln(q)/lam when
q > 0 (x0 = 0 for the plain Hulthen case q = 1), because that is where the
potential wall diverges and where the analytic ground state vanishes; for
0 < q < 1 the pole lies at negative x and the analytic eigenfunctions do not
vanish at x = 0, so clamping the wall to 0 would shift every eigenvalue far
beyond the comparison tolerance.  For q < 0 there is no pole (the potential
flattens to a plateau on the left) and the wall is pushed to -40/lam.  The right
wall is PotentialParams.box_end(), 40/lam.

Wall closure: near the pole V_eff ~ A/t^2 + B/t and the bound solution starts
as t^s, with s(s - 1) = A: s = nu1/(q*lam), the exponent of the hierarchy's
ground state.  For s < 5/2 up to three rows next to the pole get
diagonal corrections from t^s (1 + beta*t); every other wall, and a pole wall
too coarse for one row (coarse_wall), uses the odd reflection psi(-h) = -psi(h).
_box chooses it once per grid, with the wall, x, h and u(x) = k/(1 - q*k); per
energy only Gamma2(E) in V_eff = Gamma1*u^2 - Gamma2(E)*u and the rows' beta(E)
are computed.  assemble_bands gives the observed orders.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import NoBoundStateError, NonConvergenceError, NoRootError, ParameterError
from .hierarchy import level_chain, level_coefficients, level_index
from .potential import Branch, OracleConfig, PotentialParams, gamma2, gamma_form, screened_ratio
from .spectra import EnergyLevel, LevelFlag, _quadratic_roots
from .wavefunctions import GridFunction

REL_TOL = 1e-3
# Shift-invert eigensolve: a Ritz value is accepted at residual RITZ_FLOOR*eps*|A|;
# inertia counts get COUNT_SLACK*eps*|A| of rounding slack.  MAX_RITZ_STEPS bounds
# the iteration from one shift, MAX_ROUNDS the restarts from bisected brackets.
EPS = float(np.finfo(float).eps)
RITZ_FLOOR = 1e3
COUNT_SLACK = 64.0
MAX_RITZ_STEPS = 8
MAX_ROUNDS = 64
# A cold eigensolve starts from sin(j*phi), phi the golden angle: fixed and generic.
START_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# Pole-wall closure: the most rows next to the wall that it corrects, and the
# wall exponent from which the plain odd reflection is already below the
# stencil's h^4 (the wall error is of order h^(2s - 1)).
POLE_WALL_ROWS = 3
POLE_WALL_MAX_S = 2.5


_Box = namedtuple("_Box", "x h u wall coarse_wall")


@functools.lru_cache(maxsize=2)
def _box(p: PotentialParams, cfg: OracleConfig) -> _Box:
    """The Dirichlet box of cfg, cached for the N and 2N grids: interior points x and
    u(x) = k/(1 - q*k), float64 and read-only, spacing h, wall = (s, rows) of
    _pole_wall or None (odd reflection), and coarse_wall (_pole_wall gave rows = 0)."""
    x_end = p.box_end()
    if p.branch is not Branch.HERMITIAN:
        raise ValueError("the finite-difference verifier covers the Hermitian branch only")
    pole = p.pole_position
    at_pole = pole is not None and pole >= -x_end
    x_left = pole if at_pole else -x_end
    h = (x_end - x_left) / (cfg.n_points + 1)
    x = x_left + h * np.arange(1, cfg.n_points + 1)
    u = screened_ratio(p.q, p.lambda_eff, x).real.copy()
    x.flags.writeable = u.flags.writeable = False
    wall = _pole_wall(p, h) if at_pole else None
    coarse = wall is not None and wall[1] == 0
    return _Box(x, h, u, None if coarse else wall, coarse)


@functools.cache
def _lapack():
    """scipy's f2py LAPACK extension, loaded without running scipy/linalg/__init__.py.

    The module is registered in sys.modules under its own name, so scipy.linalg,
    if a caller loads it later, reuses it and scipy.linalg.lapack hands out the
    same routine objects; if scipy.linalg is already loaded, its module is returned.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import importlib.machinery
        import importlib.util
        import os

        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        dirs = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(name, dirs)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


@dataclass(frozen=True)
class BandedOperator:
    """Symmetric pentadiagonal form of -d2/dx2 + v(x) with Dirichlet walls.

    bands holds the 5-point stencil, 3 x n: bands[0, j] = A[j-2, j],
    bands[1, j] = A[j-1, j] and bands[2, j] = A[j, j]; any other shape, or a
    NaN or inf entry, where eigenpair's bracket never closes, is a ValueError.
    """

    bands: np.ndarray = field(repr=False)  # LAPACK upper-banded storage
    x: np.ndarray = field(repr=False)  # interior points
    h: float

    def __post_init__(self) -> None:
        # count_below factors a band of two superdiagonals; other storage would count wrong.
        if self.bands.shape != (3, self.x.size):
            raise ValueError(f"bands must be 3 x {self.x.size} (5-point stencil), got {self.bands.shape}")
        if not np.all(np.isfinite(self.bands)):
            raise ValueError("bands must be finite")

    @property
    def n(self) -> int:
        return self.x.size

    @functools.cached_property
    def norm(self) -> float:
        """Infinity norm of A, the scale of its eigenvalues' rounding."""
        upper2, upper1 = np.abs(self.bands[0, 2:]), np.abs(self.bands[1, 1:])
        radius = np.zeros(self.n)
        radius[:-2] += upper2
        radius[2:] += upper2
        radius[:-1] += upper1
        radius[1:] += upper1
        return float(np.max(np.abs(self.bands[2]) + radius))

    @functools.cached_property
    def _lu_band(self) -> np.ndarray:
        """A in LAPACK gbtrf band form, 7 x n: two rows of fill-in space, the two
        superdiagonals, the diagonal and the two subdiagonals.  _factor rewrites
        the diagonal row with that of A - sigma I before each factorization."""
        ab = np.zeros((7, self.n))
        ab[2:5] = self.bands
        ab[5, :-1] = self.bands[1, 1:]
        ab[6, :-2] = self.bands[0, 2:]
        return ab

    def eigenvalues(self, k_max: int) -> np.ndarray:
        """The k_max + 1 lowest eigenvalues, each a certified eigenpair, in O(N) each.

        The first shift, -|A|, lies below the whole spectrum; each later one is
        the eigenvalue below plus the last gap, a guess at the next eigenvalue.
        """
        eigs = []
        shift = -self.norm
        for k in range(level_index(k_max, "k_max") + 1):
            eigs.append(self.eigenpair(k, shift)[0])
            shift = 2.0 * eigs[-1] - eigs[-2] if k else eigs[-1]
        return np.array(eigs)

    def count_below(self, s: float) -> int:
        """Number of eigenvalues below s, in O(N).

        By Sylvester's law of inertia it is the number of negative pivots d_j of
        the unpivoted factorization A - s*I = L D L^T.  LAPACK's banded
        Cholesky, pbtrf, computes those pivots column by column and stops at the
        first d_f <= 0 (info = f + 1), leaving d_f in place and the Schur
        complement in columns f onward.  Column f is then eliminated by hand:
        with b = A[f, f+1] and c = A[f, f+2] of that complement, b^2/d_f,
        b*c/d_f and c^2/d_f come off the (f+1, f+1), (f+1, f+2) and (f+2, f+2)
        entries, and pbtrf restarts on the columns after f.  Every column is
        factored once, so a count of k costs one banded Cholesky and k + 1 calls.

        An exact zero pivot means s is an eigenvalue of a leading block; s is
        then nudged down by one ulp.
        """
        dpbtrf = _lapack().dpbtrf
        while True:
            # Fortran order, so that pbtrf factors each column slice in place.
            c = np.array(self.bands, order="F")
            c[2] -= s
            neg = 0
            while True:
                c, info = dpbtrf(c, overwrite_ab=True)
                if info == 0:
                    return neg
                f = info - 1
                d = c[2, f]
                if d == 0.0:
                    break
                neg += 1
                if f + 1 == c.shape[1]:
                    return neg
                b = c[1, f + 1]
                c[2, f + 1] -= b * b / d
                if f + 2 < c.shape[1]:
                    cc = c[0, f + 2]
                    c[1, f + 2] -= b * cc / d
                    c[2, f + 2] -= cc * cc / d
                c = c[:, f + 1 :]
            s = math.nextafter(s, -math.inf)

    def eigenpair(self, k: int, shift: float, start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """k-th eigenpair (k = 0 lowest) by shift-invert iteration from shift, in O(N).

        Inverse iteration at the shift, then Rayleigh-quotient iteration, gives a
        Ritz pair (theta, v) with residual r = |A v - theta v|.  It is accepted
        only when r is at the rounding floor and the inertia counts put at most k
        eigenvalues below theta - tol and more than k below theta + tol (tol = r
        plus rounding), so theta is lambda_k to within tol.  Some eigenvalue lies
        within r of theta, so the second count is needed only when the first is
        below k.  Otherwise more counts widen or bisect a bracket [lo, hi] until
        it holds lambda_k alone, and the iteration restarts from its midpoint.

        The first round starts from start (a warm start) or else, like every
        restart, from sin(j*phi), phi the golden angle.  The vector returned is
        the Ritz vector v, accurate to the residual floor; polish(theta, v)
        cleans it when its shape, not just theta, is wanted.  A k that is no
        integer raises ParameterError, an integer outside 0..n-1 ValueError.
        """
        n = self.n
        if not isinstance(k, numbers.Integral):
            k = level_index(k, "k")
        if not 0 <= k < n:
            raise ValueError(f"eigenvalue index {k} outside 0..{n - 1}")
        if not math.isfinite(shift):
            raise ValueError(f"shift must be finite, got {shift}")
        anorm = self.norm
        floor = RITZ_FLOOR * EPS * anorm
        # Bracket with count_below(lo) = below_lo <= k < below_hi = count_below(hi).
        lo, hi, below_lo, below_hi = -math.inf, math.inf, 0, n
        sigma = float(shift)
        for _ in range(MAX_ROUNDS):
            if start is None:
                start = np.sin(START_ANGLE * np.arange(1.0, n + 1.0))
            theta, v, res = self._ritz(sigma, start, floor)
            tol = res + COUNT_SLACK * EPS * anorm
            if res <= floor and lo - tol <= theta <= hi + tol:
                # Some eigenvalue lies within res of theta, so count_below(theta + tol)
                # exceeds below; it is counted only when below < k leaves it open.
                below = self.count_below(theta - tol)
                upto = self.count_below(theta + tol) if below < k else below + 1
                if below <= k < upto:
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
            sigma, start = 0.5 * (lo + hi), None
        raise NonConvergenceError(
            f"eigenvalue {k}: no certified Ritz value after {MAX_ROUNDS} rounds "
            f"(bracket [{lo:.17g}, {hi:.17g}])"
        )

    def _ritz(self, sigma: float, v: np.ndarray, floor: float) -> tuple[float, np.ndarray, float]:
        """Two inverse-iteration steps at sigma, then Rayleigh-quotient steps.

        Stops when the residual |A v - theta v| reaches floor; returns (theta, v, residual).
        The two steps at sigma share one factorization.
        """
        factors = self._factor(sigma)
        for step in range(MAX_RITZ_STEPS):
            v = self._solve(factors, v)
            av = self.matvec(v)
            theta = float(v @ av)
            res = float(np.linalg.norm(av - theta * v))
            if res <= floor:
                break
            if step >= 1:
                sigma = theta
                factors = self._factor(sigma)
        return theta, v, res

    def polish(self, theta: float, v: np.ndarray) -> np.ndarray:
        """Eigenvector v of theta cleaned by two inverse-iteration sweeps at theta
        from one factorization; unit norm, largest entry made positive."""
        factors = self._factor(theta)
        for _ in range(2):
            v = self._solve(factors, v)
        return v * (np.sign(v[np.argmax(np.abs(v))]) or 1.0)

    def _factor(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Banded LU of A - sigma I (LAPACK gbtrf); sigma moves up by one ulp off an exactly singular shift."""
        ab = self._lu_band
        while True:
            ab[4] = self.bands[2] - sigma
            lu, piv, info = _lapack().dgbtrf(ab, 2, 2)
            if info == 0:
                return lu, piv
            sigma = math.nextafter(sigma, math.inf)

    def _solve(self, factors: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
        """Normalized (A - sigma I)^-1 v from the factors of A - sigma I."""
        lu, piv = factors
        w, _ = _lapack().dgbtrs(lu, 2, 2, v, piv)
        return w / np.linalg.norm(w)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A @ v from the banded storage."""
        upper2, upper1 = self.bands[0, 2:], self.bands[1, 1:]
        y = self.bands[2] * v
        y[:-2] += upper2 * v[2:]
        y[2:] += upper2 * v[:-2]
        y[:-1] += upper1 * v[1:]
        y[1:] += upper1 * v[:-1]
        return y


def _pole_wall(p: PotentialParams, h: float) -> tuple[float, int] | None:
    """The wall exponent s and the number of rows to correct at a left wall on the pole.

    With t = x - ln(q)/lam, V_eff = A/t^2 + B/t + O(1) near the pole, where
    A = Gamma1/(q*lam)^2 and B = -(Gamma1/q + Gamma2(E))/(q*lam), and the
    bound solution starts as f = t^s (1 + beta*t) with s(s - 1) = A and
    beta = B/(2s).  s = nu1/(q*lam), nu1 from level_chain, is the root above
    1/2: the exponent of the hierarchy's ground state (1 - q*k)^(nu1/(q*lam)).
    Below the discriminant bound level_chain raises ComplexLevelError.  The
    rows corrected are the most, up to POLE_WALL_ROWS, for which
    1 + beta*t_j > 0 holds for every |E| <= m; that test bounds
    |Gamma2(E)| by 2m(|S0| + |V0|), so the number of rows depends on the grid
    and not on E: a closure that switched as E moves would make eps_k(E) jump,
    and the slope of solve_selfconsistent, a difference quotient in E, would
    see the jump.
    rows = 0 on a grid too coarse for one row: the odd reflection is then a
    fallback (coarse_wall).  None where it is the closure: s >= POLE_WALL_MAX_S.
    """
    qlam = p.q * p.lam
    s = level_chain(p)[0].real / qlam
    if s >= POLE_WALL_MAX_S:
        return None
    b_max = abs(p.gamma1.real / p.q) + 2.0 * p.m * (abs(p.S0) + abs(p.V0))
    rows = POLE_WALL_ROWS
    while rows > 0 and b_max / (qlam * 2.0 * s) * rows * h >= 1.0:
        rows -= 1
    return s, rows


def _pole_wall_rows(p: PotentialParams, E: float, h: float, s: float, rows: int) -> np.ndarray:
    """Diagonal corrections at energy E for the first rows at a pole wall (s, rows from _pole_wall).

    Row j (t_j = j*h) of the 5-point stencil, with f = t^s (1 + beta*t) = 0 on
    the wall and on the ghost point behind it, computes L_h f instead of f'';
    the correction delta_j = (L_h f - f'')(t_j) / f(t_j) makes the row reproduce
    (-f'' + V_eff f)(t_j).  Only the diagonal changes, so the matrix stays
    symmetric.  At s = 1 (Gamma1 = 0) delta_1 is the ghost reflection
    (-1 + beta*h)/(1 + beta*h) with the exact B, and later rows need none.
    """
    # complex(E), as in discretize, so a Gamma2 warning is not repeated.
    beta = -(p.gamma1.real / p.q + gamma2(p, complex(E)).real) / (p.q * p.lam * 2.0 * s)
    # f(i*h)/h^s on the stencil points i = -1 (ghost), 0 (wall), 1, ..., rows + 2.
    i = np.arange(-1.0, rows + 3.0)
    f = np.where(i > 0.0, np.abs(i) ** s * (1.0 + beta * i * h), 0.0)
    l_h = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / 12.0
    j = i[2:-2]
    f2 = j ** (s - 2.0) * (s * (s - 1.0) + beta * s * (s + 1.0) * j * h)
    return (l_h - f2) / (h * h * f[2:-2])


def assemble_bands(v: np.ndarray, h: float, wall_rows: np.ndarray | None = None) -> np.ndarray:
    """Upper-banded 5-point stencil for -d2/dx2 + diag(v) with Dirichlet boundaries.

    The ghost point behind each wall is eliminated by the odd reflection
    psi(-h) = -psi(h), or, at the left wall, the diagonal corrections wall_rows
    (:func:`_pole_wall_rows`) are added to the first rows instead.  Only
    diagonal entries are touched, so the matrix stays symmetric.  Observed
    level-0 orders: 4 at a regular wall and at a pole wall with a 1/t term and
    no 1/t^2 term (s = 1); about 2s - 1 with an A/t^2 term and s < 5/2.  At
    V0 = 0.3, S0 = 0.5, lam = 0.25, q = 3 (s = 1.23) the error at 1000-8000
    points is about 100 times below that of the plain reflection.
    """
    n = v.size
    inv_h2 = 1.0 / (h * h)
    bands = np.zeros((3, n))
    bands[0, 2:] = inv_h2 / 12.0
    bands[1, 1:] = -16.0 * inv_h2 / 12.0
    bands[2] = 30.0 * inv_h2 / 12.0 + v
    if wall_rows is None:
        bands[2, 0] -= inv_h2 / 12.0
    else:
        bands[2, : wall_rows.size] += wall_rows
    bands[2, -1] -= inv_h2 / 12.0
    return bands


def discretize(p: PotentialParams, E: float, cfg: OracleConfig) -> BandedOperator:
    """Banded symmetric matrix of -d2/dx2 + V_eff(x; E) on the Dirichlet box;
    a non-real or non-finite E, which this real matrix cannot hold, raises ParameterError("E"),
    and a wall on the pole with a complex nu1 (level_chain) ComplexLevelError."""
    z = complex(E)
    if z.imag != 0.0 or not math.isfinite(z.real):
        raise ParameterError("E", f"E must be real and finite, got {E!r}")
    box = _box(p, cfg)
    v = gamma_form(p, z, box.u).real
    wall_rows = _pole_wall_rows(p, E, box.h, *box.wall) if box.wall else None
    return BandedOperator(bands=assemble_bands(v, box.h, wall_rows), x=box.x, h=box.h)


@dataclass(frozen=True)
class OracleResult:
    """The discretized root next to a claimed root, with grid diagnostics."""

    E: float
    epsilon: float  # eps_k(E) = E^2 - m^2, to first order in the step from the seed
    eigenvector: GridFunction
    outer_iters: int  # eigensolves on the N grid: one
    grid_convergence_est: float
    coarse_wall: bool  # the pole wall fell back to the odd reflection (_box)


def solve_selfconsistent(p: PotentialParams, k: int, cfg: OracleConfig | None = None, *, seed: float) -> OracleResult:
    """One-shot check of a claimed root seed of eps_k(E) = E^2 - m^2: the
    discretized root next to it, from one certified eigensolve.

    At E = seed, BandedOperator.eigenpair(k, E^2 - m^2) gives (eps, v) in O(N),
    the defect g = eps - (E^2 - m^2) and, from the same v, the Hellmann-Feynman
    slope s = v^T diag(dV_eff/dE) v.  The returned root is E + d, d the root
    nearest 0 of the local model eps + s*d = (E + d)^2 - m^2: g/(2E - s) to
    first order (the Rayleigh-functional step of Ruhe, SIAM J. Numer. Anal. 10
    (1973) 674; Voss, Handbook of Linear Algebra, 2nd ed., 2013), with an
    error of order d^2.  The model keeps the d^2 that the first-order step
    drops: without it a root off by 1e-3 reads about 5e-7 of itself closer,
    and at V0 = 0, S0 = 1, lam = 0.2, q = m = 1 every root times 1 + 1e-3
    passes compare.  V_eff is affine in E, so the slope diagonal is the
    difference of two discretizations; the pole-wall rows, not affine in E,
    perturb it, and the root at order d^2.  The Richardson estimate takes
    eps_k(seed) on 2N points, shifted at eps and started from v interpolated
    onto that grid; v is cleaned (polish) after.

    The step is the distance to a discretized root only while it is small, so
    compare fails a row whose step reaches REL_TOL*|seed|, whatever E + d is.
    A local model with no real root raises NoRootError, eps >= 0 or
    |E + d| >= m NoBoundStateError, and a non-real or non-finite seed ParameterError("seed").
    """
    k = level_index(k, "k")
    z = complex(seed)
    if z.imag != 0.0 or not math.isfinite(z.real):
        raise ParameterError("seed", f"seed must be finite and real, got {seed!r}")
    E = z.real
    cfg = cfg or OracleConfig()
    op = discretize(p, E, cfg)
    dE = 0.01 * p.m
    slope = (discretize(p, E + dE, cfg).bands[-1] - op.bands[-1]) / dE
    eps, vec = op.eigenpair(k, E * E - p.m * p.m)
    g = eps - (E * E - p.m * p.m)
    s = float(vec @ (slope * vec))
    # The model is d^2 + (2E - s)*d - g = 0; the closed form's last root, C/t, is
    # the step, the root nearest 0 (s = 2E and g = 0 leave d = 0).
    d = _quadratic_roots(1.0, 0.5 * (2.0 * E - s), -g)[-1]
    if d.imag:
        raise NoRootError(f"level {k}: the local model at E = {E} has no real root")
    d = d.real
    if eps >= 0.0 or abs(E + d) >= p.m:
        raise NoBoundStateError(f"level {k} is not bound next to E = {E:g} (eps = {eps:g}, E + d = {E + d:g})")
    fine = discretize(p, E, OracleConfig(n_points=2 * cfg.n_points))
    eps_fine = fine.eigenpair(k, eps, np.interp(fine.x, op.x, vec))[0]
    # Richardson for an h^4 error: halving h divides it by 2^4 = 16.
    est = abs(eps - eps_fine) * 16.0 / 15.0
    vec = op.polish(eps, vec)
    return OracleResult(
        E=E + d,
        epsilon=eps + s * d,
        eigenvector=GridFunction(float(op.x[0]), op.h, vec.astype(np.complex128)),
        outer_iters=1,
        grid_convergence_est=float(est),
        coarse_wall=_box(p, cfg).coarse_wall,
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
    coarse_wall: bool = False


@dataclass(frozen=True)
class CompareReport:
    rows: list[CompareRow]

    @property
    def worst_rel_diff(self) -> float:
        diffs = [r.rel_diff for r in self.rows if r.rel_diff is not None]
        return max(diffs) if diffs else 0.0

    @property
    def ok(self) -> bool:
        return self.worst_rel_diff < REL_TOL


def skip_reason(p: PotentialParams, lv: EnergyLevel) -> str:
    """Why an analytic root has no discretized counterpart, or "" when it has one.

    Such a root's closed-form solution does not decay: Re(mu) <= 0 on the
    right, or, for q < 0, where psi ~ exp(-(rho_n/q + mu)*x) as x -> -inf,
    Re(rho_n/q + mu) >= 0 on the left.
    """
    if LevelFlag.NORMALIZABLE_MU_POSITIVE not in lv.flags:
        return "non-normalizable (Re mu <= 0)"
    if p.q < 0.0 and (level_coefficients(p, lv.n)[0] / p.q + lv.mu).real >= 0.0:
        return "non-normalizable left tail (Re(rho/q + mu) >= 0)"
    return ""


def compare(
    p: PotentialParams,
    levels: list[EnergyLevel],
    cfg: OracleConfig | None = None,
) -> CompareReport:
    """Per-level table of analytic vs discretized energies; ok below REL_TOL.

    Each analytic root gets its one-shot check, solve_selfconsistent; a root
    with a skip_reason is reported as skipped.  rel_diff is relative to the
    smaller of the two energies, so that a step of REL_TOL times the analytic
    root or more fails whichever way it points.
    """
    rows: list[CompareRow] = []
    for lv in levels:
        if skipped := skip_reason(p, lv):
            rows.append(CompareRow(lv.n, lv.E, None, None, None, None, skipped=skipped))
            continue
        res = solve_selfconsistent(p, lv.n, cfg, seed=float(lv.E.real))
        diff = abs(lv.E - res.E)
        scale = min(abs(lv.E), abs(res.E))
        rows.append(
            CompareRow(
                n=lv.n,
                E_analytic=lv.E,
                E_oracle=res.E,
                abs_diff=diff,
                rel_diff=diff / scale if scale else math.inf,
                grid_convergence_est=res.grid_convergence_est,
                coarse_wall=res.coarse_wall,
            )
        )
    return CompareReport(rows=rows)

