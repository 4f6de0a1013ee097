"""Self-consistent bound-state energies for every level and branch.

The level condition eps_n(E) = E^2 - m^2 is implicit in E because Gamma2 is
affine in E; the honest residual is

    f_n(E) = (E^2 - m^2) + mu_n(E)^2.

Since mu_n = a + b*E is affine in E, f_n is the quadratic

    (1 + b^2) E^2 + 2*a*b*E + (a^2 - m^2).

On the Hermitian branch its real roots in (-m, m) are found by a sign scan plus
bisection.  On the complex branches both roots come from the cancellation-safe
quadratic formula (Higham, Accuracy and Stability of Numerical Algorithms,
sec. 1.8).  Either way every root is Newton-polished on f_n and certified by
|f_n(E)| < 1e-12.  The closed form E = +/- sqrt(m^2 - mu_n^2) is exact whenever
V0_eff = 0 and is used as an internal cross-check there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import CrossCheckError, NoRootError, NonConvergenceError
from .hierarchy import level, level_coefficients
from .potential import Branch, PotentialParams

# Hermitian sign-scan resolution, residual certificate and Newton budget.
SCAN_POINTS = 2048
RESIDUAL_TOL = 1e-12
MAX_NEWTON_ITER = 200


class LevelFlag(Enum):
    NORMALIZABLE_MU_POSITIVE = "NormalizableMuPositive"
    REAL_BOUND_STATE = "RealBoundState"
    COMPLEX_PAIR = "ComplexPair"


@dataclass(frozen=True)
class EnergyLevel:
    """A solved bound-state energy with residual diagnostics."""

    n: int
    E: complex
    mu: complex
    residual: float
    branch: Branch
    mass: float
    flags: frozenset = field(default_factory=frozenset)
    note: str = ""

    @property
    def epsilon(self) -> complex:
        # Recomputed, never stored: eps = E^2 - m^2.
        return self.E * self.E - self.mass * self.mass


@dataclass(frozen=True)
class PlusMinusPair:
    """The +/- energy pair of the explicit formula; minus is the exact negation."""

    plus: complex
    minus: complex
    epsilon: complex
    re_epsilon_negative: bool

    def __iter__(self):
        return iter((self.plus, self.minus))

    def __len__(self) -> int:
        return 2


def energy_residual(p: PotentialParams, n: int, E: complex) -> complex:
    """f_n(E) = (E^2 - m^2) + mu_n(E)^2; a root is a self-consistent bound energy."""
    lvl = level(p, E, n)
    return E * E - p.m * p.m + lvl.mu * lvl.mu


def closed_form_energy(p: PotentialParams, n: int) -> complex:
    """Explicit energy expression with Gamma2 frozen at E = 0.

    With mu_n frozen at mu_n(0) = a, eps_n = E^2 - m^2 gives
    E = (i/2q) * sqrt(4 q^2 (a^2 - m^2)) = i*sign(q)*sqrt(a^2 - m^2).  Exact when
    V0_eff = 0 (Gamma2 is then energy independent).
    """
    _, a, _ = level_coefficients(p, n)
    return complex(1j * math.copysign(1.0, p.q) * cmath.sqrt(a * a - p.m * p.m))


def _newton_polish(p: PotentialParams, n: int, a: complex, b: complex, E0: complex) -> tuple[complex, float]:
    E = complex(E0)
    for _ in range(MAX_NEWTON_ITER):
        mu = a + b * E
        f = E * E - p.m * p.m + mu * mu
        if abs(f) < RESIDUAL_TOL:
            return E, abs(f)
        df = 2.0 * E + 2.0 * mu * b
        if df == 0:
            E = E + RESIDUAL_TOL + 1e-9
            continue
        E = E - f / df
    mu = a + b * E
    f = E * E - p.m * p.m + mu * mu
    if abs(f) < RESIDUAL_TOL:
        return E, abs(f)
    raise NonConvergenceError(
        f"level {n}: Newton polishing of E = {E:.6g} stalled at |f| = {abs(f):.3e} "
        f"after {MAX_NEWTON_ITER} iterations"
    )


def _flags_for(p: PotentialParams, E: complex, mu: complex) -> frozenset:
    flags = set()
    if mu.real > 0.0:
        flags.add(LevelFlag.NORMALIZABLE_MU_POSITIVE)
    if abs(E.imag) <= 1e-12 * (1.0 + abs(E)) and abs(E.real) < p.m:
        flags.add(LevelFlag.REAL_BOUND_STATE)
    if p.branch is not Branch.HERMITIAN:
        flags.add(LevelFlag.COMPLEX_PAIR)
    return frozenset(flags)


def _make_level(p: PotentialParams, n: int, E: complex, res: float, note: str = "") -> EnergyLevel:
    lvl = level(p, E, n)
    return EnergyLevel(
        n=n,
        E=complex(E),
        mu=lvl.mu,
        residual=res,
        branch=p.branch,
        mass=p.m,
        flags=_flags_for(p, E, lvl.mu),
        note=note,
    )


def solve_level(p: PotentialParams, n: int) -> list[EnergyLevel]:
    """All self-consistent bound energies at level n (at most two).

    Hermitian branch: sign scan of f_n at SCAN_POINTS interior points of (-m, m),
    bisection of each bracket to 1e-13 in E, then a short Newton polish; the
    parabola vertex is checked separately so that a degenerate double root is
    still found (returned once, note "double_root").  Complex branches: both
    roots of the level quadratic in closed form, each Newton-polished; a root
    listed once with note "double_root" is one the two polished roots share.
    Every returned root has |f_n(E)| < 1e-12; a root that cannot reach it raises
    NonConvergenceError.
    """
    _, a, b = level_coefficients(p, n)
    if p.branch is Branch.HERMITIAN:
        found = _solve_level_hermitian(p, n, a, b)
    else:
        found = _solve_level_complex(p, n, a, b)
    if not found:
        raise NoRootError(f"level {n} supports no self-consistent bound energy")
    if p.v0_eff == 0:
        _crosscheck_closed_form(p, n, found)
    return found


def _solve_level_hermitian(p: PotentialParams, n: int, a: complex, b: complex) -> list[EnergyLevel]:
    a0, b0 = a.real, b.real

    def f(E: float) -> float:
        mu = a0 + b0 * E
        return E * E - p.m * p.m + mu * mu

    # Endpoints carry f(+/-m) = mu^2 >= 0; they serve as bracket ends while the
    # filter below keeps the threshold E = +/-m out of the root list.
    grid = np.linspace(-p.m, p.m, SCAN_POINTS + 2)
    mu_g = a0 + b0 * grid
    fg = grid * grid - p.m * p.m + mu_g * mu_g

    roots: list[tuple[complex, float, str]] = []
    signs = np.sign(fg)
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if fm == 0.0 or (hi - lo) < 1e-13:
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        E, res = _newton_polish(p, n, a, b, 0.5 * (lo + hi))
        roots.append((complex(E.real), res, ""))
    # Exact hits on scan nodes.
    for i in np.nonzero(fg == 0.0)[0]:
        roots.append((complex(float(grid[i])), 0.0, ""))
    # Tangency: f is an upward parabola in E, so a degenerate double root can only
    # sit at the vertex, where f' = 2E + 2*mu*mu' vanishes (f' is linear in E).
    a_lead = 1.0 + b0 * b0
    vertex = -a0 * b0 / a_lead
    f_v = f(vertex)
    if -p.m < vertex < p.m and abs(f_v) < RESIDUAL_TOL:
        roots.append((complex(vertex), abs(f_v), "double_root"))

    # A root within the certificate of +/-m is the threshold itself: there mu = 0
    # and f' = +/-2m, so |f| < RESIDUAL_TOL places it within RESIDUAL_TOL/(2m) of
    # +/-m; the band excluded here is twice that wide.
    edge = p.m - RESIDUAL_TOL / p.m
    out: list[EnergyLevel] = []
    for E, res, note in sorted(roots, key=lambda r: r[0].real):
        if not (-edge < E.real < edge):
            continue
        if any(abs(E - lv.E) < 1e-10 * (1.0 + abs(E)) for lv in out):
            continue
        out.append(_make_level(p, n, E, res, note))
    return out


def _quadratic_roots(A: complex, h: complex, C: complex) -> list[complex]:
    """Finite roots of A*E^2 + 2*h*E + C = 0 without cancellation.

    One root is t/A with t = -(h + sqrt(h^2 - A*C)), the sign of the square root
    chosen so that |t| is as large as possible; the other is C/t, from the
    product of the roots.  With A = 0 only C/t is finite.
    """
    sq = cmath.sqrt(h * h - A * C)
    if (h.conjugate() * sq).real < 0.0:
        sq = -sq
    t = -(h + sq)
    if t == 0:  # h = 0 and A*C = 0: E = 0 is a double root
        return [0j, 0j]
    return [C / t] if A == 0 else [t / A, C / t]


def _solve_level_complex(p: PotentialParams, n: int, a: complex, b: complex) -> list[EnergyLevel]:
    out: list[EnergyLevel] = []
    for E0 in _quadratic_roots(1.0 + b * b, a * b, a * a - p.m * p.m):
        E, res = _newton_polish(p, n, a, b, E0)
        if any(abs(E - lv.E) < 1e-10 * (1.0 + abs(E)) for lv in out):
            out[0] = replace(out[0], note="double_root")
            continue
        out.append(_make_level(p, n, E, res))
    out.sort(key=lambda lv: (lv.E.real, lv.E.imag))
    return out


def _crosscheck_closed_form(p: PotentialParams, n: int, found: list[EnergyLevel]) -> None:
    # With V0_eff = 0 the condition is explicit: E = +/- sqrt(m^2 - mu_n^2).
    ref = closed_form_energy(p, n)
    for lv in found:
        if min(abs(lv.E - ref), abs(lv.E + ref)) > 1e-9 * (1.0 + abs(ref)):
            raise CrossCheckError(
                f"level {n}: iterative root {lv.E} disagrees with the explicit "
                f"V0_eff = 0 form +/-{ref}"
            )


def spectrum(p: PotentialParams, n_max: int) -> list[EnergyLevel]:
    """Bound levels for n = 0, 1, ... until NoRoot, loss of normalizability, or n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out: list[EnergyLevel] = []
    for n in range(n_max + 1):
        try:
            found = solve_level(p, n)
        except NoRootError:
            break
        if max(lv.mu.real for lv in found) <= 0.0:
            break
        out.extend(found)
    return out


def _pm_pair(p: PotentialParams, n: int) -> PlusMinusPair:
    _, a, b = level_coefficients(p, n)
    E, _ = _newton_polish(p, n, a, b, closed_form_energy(p, n))
    eps = E * E - p.m * p.m
    return PlusMinusPair(plus=E, minus=-E, epsilon=eps, re_epsilon_negative=eps.real < 0.0)


def pt_energy(p: PotentialParams, n: int) -> PlusMinusPair:
    """The +/- energy pair on the PT-symmetric branch (minus is the exact negation)."""
    if p.branch is not Branch.PT_SYMMETRIC:
        raise ValueError("pt_energy requires branch = PTSymmetric")
    return _pm_pair(p, n)


def nonhermitian_energy(p: PotentialParams, n: int) -> PlusMinusPair:
    """The +/- pair with V0_eff = V0 + i*VI; reports eps and whether Re(eps) < 0."""
    if p.branch is not Branch.NON_HERMITIAN:
        raise ValueError("nonhermitian_energy requires branch = NonHermitian")
    return _pm_pair(p, n)
