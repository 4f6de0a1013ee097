"""Self-consistent bound-state energies for every level and branch.

The level condition eps_n(E) = E^2 - m^2 is implicit in E because Gamma2 is
affine in E; the honest residual is

    f_n(E) = (E^2 - m^2) + mu_n(E)^2.

Since mu_n = a + b*E is affine in E, f_n is the quadratic

    (1 + b^2) E^2 + 2*a*b*E + (a^2 - m^2).

On the Hermitian branch its real roots in (-m, m) are found by a sign scan of
f_n on the SCAN_POINTS + 2 nodes of np.linspace(-m, m) plus bisection.  Only the
nodes next to the closed-form roots (or the vertex) are evaluated: everywhere
else the sign of the computed f_n provably equals that of the exact quadratic,
so the brackets are those of a scan of every node.  On the complex branches both
roots come from the cancellation-safe quadratic formula (Higham, Accuracy and
Stability of Numerical Algorithms, sec. 1.8).  Either way every root is
Newton-polished on f_n and certified by |f_n(E)| < 1e-12.  The closed form
E = +/- sqrt(m^2 - mu_n^2) is exact whenever V0_eff = 0 and is used as an
internal cross-check there.

spectrum_batch solves many parameter points level by level: level n for every
point still bound, the Hermitian scan, bisection and Newton polish as float64
array operations over all their roots at once (every imaginary part is exactly
0 there, and real arithmetic gives the digits of the complex one), the complex
branches root by root.  spectrum and solve_level are that solver on one point.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import CrossCheckError, KGHierarchyError, NoRootError, NonConvergenceError
from .hierarchy import (
    Coefficients,
    LevelChain,
    chain_coefficients,
    level,
    level_chain,
    level_coefficients,
    level_mu,
)
from .potential import Branch, PotentialParams

# Hermitian sign-scan resolution, residual certificate and Newton budget.
SCAN_POINTS = 2048
RESIDUAL_TOL = 1e-12
MAX_NEWTON_ITER = 200
_U = 2.0**-53  # unit roundoff of float64


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
    return _explicit_energy(p, level_coefficients(p, n)[1])


def _explicit_energy(p: PotentialParams, a: complex) -> complex:
    # closed_form_energy from mu_n(0) = a.
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
    raise _stalled(n, E, abs(f))


def _stalled(n: int, E: complex, abs_f: float) -> NonConvergenceError:
    return NonConvergenceError(
        f"level {n}: Newton polishing of E = {E:.6g} stalled at |f| = {abs_f:.3e} "
        f"after {MAX_NEWTON_ITER} iterations"
    )


def _flags_for(p: PotentialParams, E: complex, mu: complex) -> frozenset:
    return _flag_set(
        mu.real > 0.0,
        abs(E.imag) <= 1e-12 * (1.0 + abs(E)) and abs(E.real) < p.m,
        p.branch is not Branch.HERMITIAN,
    )


@functools.cache
def _flag_set(*on: bool) -> frozenset:
    # One shared frozenset per combination of the LevelFlag conditions, in their order.
    return frozenset(flag for flag, is_on in zip(LevelFlag, on) if is_on)


def _make_level(
    p: PotentialParams, n: int, coeffs: Coefficients, E: complex, res: float, note: str = ""
) -> EnergyLevel:
    mu = level_mu(p, n, coeffs, E)
    return EnergyLevel(
        n=n,
        E=complex(E),
        mu=mu,
        residual=res,
        branch=p.branch,
        mass=p.m,
        flags=_flags_for(p, E, mu),
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
    found = _solve_levels([p], [level_coefficients(p, n)], n)[0]
    if isinstance(found, KGHierarchyError):
        raise found
    return found


def spectrum_batch(points: Sequence[PotentialParams], n_max: int) -> list[list[EnergyLevel]]:
    """spectrum(p, n_max) for every point, solved level by level for all points at once.

    Level n is solved for every point whose levels 0..n-1 were all bound and
    normalizable.  If any point raises, the error of the first such point in
    the order of ``points`` is raised, as a loop over spectrum() would.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out: list[list[EnergyLevel]] = [[] for _ in points]
    chains: list[LevelChain] = []
    error: KGHierarchyError | None = None
    active = list(range(len(points)))
    for n in range(n_max + 1):
        todo, coeffs = [], []
        for i in active:
            try:
                if n == 0:
                    chains.append(level_chain(points[i]))
                coeffs.append(chain_coefficients(chains[i], n))
            except KGHierarchyError as exc:
                error = exc  # later points no longer matter
                break
            todo.append(i)
        active = []
        for i, found in zip(todo, _solve_levels([points[i] for i in todo], coeffs, n)):
            if isinstance(found, NoRootError):
                continue
            if isinstance(found, KGHierarchyError):
                error = found
                break
            if max(lv.mu.real for lv in found) > 0.0:
                out[i].extend(found)
                active.append(i)
        if not active:
            break
    if error is not None:
        raise error
    return out


def spectrum(p: PotentialParams, n_max: int) -> list[EnergyLevel]:
    """Bound levels for n = 0, 1, ... until NoRoot, loss of normalizability, or n_max."""
    return spectrum_batch([p], n_max)[0]


def _solve_levels(
    points: Sequence[PotentialParams], coeffs: Sequence[Coefficients], n: int
) -> list[list[EnergyLevel] | KGHierarchyError]:
    # Level n of each point: its roots, or the typed error that solving it raised
    # (NoRootError when it has none).  Hermitian points are solved together.
    out: list = [None] * len(points)
    herm = [i for i, p in enumerate(points) if p.branch is Branch.HERMITIAN]
    if herm:
        solved = _solve_hermitian([points[i] for i in herm], [coeffs[i] for i in herm], n)
        for i, found in zip(herm, solved):
            out[i] = found
    for i, p in enumerate(points):
        if out[i] is None:
            try:
                out[i] = _solve_level_complex(p, n, coeffs[i])
            except KGHierarchyError as exc:
                out[i] = exc
    for i, (p, found) in enumerate(zip(points, out)):
        if isinstance(found, KGHierarchyError):
            continue
        if not found:
            out[i] = NoRootError(f"level {n} supports no self-consistent bound energy")
        elif p.v0_eff == 0:
            try:
                _crosscheck_closed_form(p, n, coeffs[i][1], found)
            except CrossCheckError as exc:
                out[i] = exc
    return out


def _f(E: np.ndarray, a0: np.ndarray, b0: np.ndarray, m: np.ndarray) -> np.ndarray:
    # f_n in the order of operations of the complex residual, so that on the
    # Hermitian branch, where every imaginary part is 0, the digits are the same.
    mu = a0 + b0 * E
    return E * E - m * m + mu * mu


def _scan(m: np.ndarray, a0: np.ndarray, b0: np.ndarray):
    """The sign scan of f at the SCAN_POINTS + 2 nodes of np.linspace(-m, m), per point.

    Returns the brackets (point, lo, hi, f(lo)) between neighbouring nodes of
    opposite sign and the nodes (point, E) where f is exactly 0, in point and
    grid order, as a scan of every node gives them.  Only the nodes near the
    closed-form roots r = v +/- s (v the vertex) are evaluated.  Elsewhere
    the sign of the computed f is that of the exact quadratic
    F(E) = A*(E - r1)*(E - r2), A = 1 + b^2: for |E| <= m the rounding error
    of f is at most about 6u*(m^2 + (|a| + |b|*m)^2), below
    B = 16u*(m^2 + (|a| + |b|*m)^2), and |F| >= A*d^2 > B at distance
    d = 2*sqrt(B/A) from both roots (from v when they are complex).  The
    window adds the rounding error of the roots themselves, absolute floors
    for underflow, and two nodes on each side; a window that is not finite,
    or covers the grid, is the full scan.  The end nodes +/-m, where
    f = mu^2 >= 0, can be bracket ends; the threshold filter of the caller
    keeps +/-m itself out of the root list.
    """
    last = SCAN_POINTS + 1
    step = (m - (-m)) / last
    with np.errstate(all="ignore"):
        lead = 1.0 + b0 * b0
        v = -a0 * b0 / lead
        s = np.sqrt(np.maximum(m * m * lead - a0 * a0, 0.0)) / lead
        big = np.abs(a0) + np.abs(b0) * m
        bound = 16.0 * _U * (m * m + big * big) + 1e-300
        half = (
            2.0 * np.sqrt(bound / lead)
            + np.sqrt(8.0 * _U * (m * m * lead + a0 * a0)) / lead
            + 8.0 * _U * (np.abs(v) + s + m)
            + 1e-150
        )
        ends = []
        for c in (v - s, v + s):
            lo = np.floor((c - half + m) / step) - 2.0
            hi = np.ceil((c + half + m) / step) + 2.0
            lo = np.clip(np.where(np.isnan(lo), 0.0, lo), 0.0, last + 1.0).astype(np.int64)
            hi = np.clip(np.where(np.isnan(hi), last, hi), -1.0, last).astype(np.int64)
            ends.append((lo, hi))
    (lo1, hi1), (lo2, hi2) = ends
    # Overlapping or touching windows are merged, so that no node is scanned twice.
    merge = lo2 <= hi1 + 1
    hi1 = np.where(merge, np.maximum(hi1, hi2), hi1)
    hi2 = np.where(merge, lo2 - 1, hi2)
    seg_lo = np.stack([lo1, lo2], axis=1).ravel()
    lens = np.maximum(np.stack([hi1, hi2], axis=1).ravel() - seg_lo + 1, 0)
    seg = np.repeat(np.arange(len(lens)), lens)  # point i owns segments 2i and 2i + 1
    node = np.arange(len(seg)) - np.repeat(np.cumsum(lens) - lens - seg_lo, lens)
    pt = seg // 2
    E = np.where(node == last, m[pt], node.astype(float) * step[pt] + (-m[pt]))
    fg = _f(E, a0[pt], b0[pt], m[pt])
    sg = np.sign(fg)
    k = np.nonzero((seg[:-1] == seg[1:]) & (sg[:-1] * sg[1:] < 0))[0]
    z = np.nonzero(fg == 0.0)[0]
    return (pt[k], E[k], E[k + 1], fg[k]), (pt[z], E[z])


def _bisect(a0, b0, m, lo, hi, flo) -> np.ndarray:
    # Every bracket at once, each stopping as the scalar loop did: at an exact
    # zero or once the bracket is narrower than 1e-13.
    live = np.ones(len(lo), dtype=bool)
    for _ in range(200):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fm = _f(mid, a0, b0, m)
        live &= ~((fm == 0.0) | ((hi - lo) < 1e-13))
        left = flo * fm < 0
        hi = np.where(live & left, mid, hi)
        lo = np.where(live & ~left, mid, lo)
        flo = np.where(live & ~left, fm, flo)
    return 0.5 * (lo + hi)


def _polish(a0, b0, m, E):
    # _newton_polish on every root at once: (E, |f|, stalled).
    res = np.zeros(len(E))
    live = np.ones(len(E), dtype=bool)
    for it in range(MAX_NEWTON_ITER + 1):
        mu = a0 + b0 * E
        f = E * E - m * m + mu * mu
        done = live & (np.abs(f) < RESIDUAL_TOL)
        res[done] = np.abs(f[done])
        live &= ~done
        if not live.any() or it == MAX_NEWTON_ITER:
            break
        df = 2.0 * E + 2.0 * mu * b0
        with np.errstate(all="ignore"):
            step = np.where(df == 0, E + RESIDUAL_TOL + 1e-9, E - f / df)
        E = np.where(live, step, E)
    res[live] = np.abs(f[live])
    return E, res, live


def _solve_hermitian(
    points: Sequence[PotentialParams], coeffs: Sequence[Coefficients], n: int
) -> list[list[EnergyLevel] | KGHierarchyError]:
    # On this branch every imaginary part is exactly 0, and real float64
    # arithmetic gives the same digits as the complex one.
    m = np.array([p.m for p in points])
    a0 = np.array([c[1].real for c in coeffs])
    b0 = np.array([c[2].real for c in coeffs])
    (pt, lo, hi, flo), (zpt, zE) = _scan(m, a0, b0)
    E, res, stalled = _polish(a0[pt], b0[pt], m[pt], _bisect(a0[pt], b0[pt], m[pt], lo, hi, flo))

    roots: list[list[tuple[float, float, str]]] = [[] for _ in points]
    stalls: dict[int, NonConvergenceError] = {}
    for i, e, r, bad in zip(pt.tolist(), E.tolist(), res.tolist(), stalled.tolist()):
        if bad:
            stalls.setdefault(i, _stalled(n, complex(e), r))
        roots[i].append((e, r, ""))
    for i, e in zip(zpt.tolist(), zE.tolist()):
        roots[i].append((e, 0.0, ""))
    # Tangency: f is an upward parabola in E, so a degenerate double root can only
    # sit at the vertex, where f' = 2E + 2*mu*mu' vanishes (f' is linear in E).
    vertex = -a0 * b0 / (1.0 + b0 * b0)
    f_v = np.abs(_f(vertex, a0, b0, m))
    for i in np.nonzero((-m < vertex) & (vertex < m) & (f_v < RESIDUAL_TOL))[0].tolist():
        roots[i].append((float(vertex[i]), float(f_v[i]), "double_root"))

    out: list = []
    for i, (p, found) in enumerate(zip(points, roots)):
        if i in stalls:
            out.append(stalls[i])
            continue
        # A root within the certificate of +/-m is the threshold itself: there mu = 0
        # and f' = +/-2m, so |f| < RESIDUAL_TOL places it within RESIDUAL_TOL/(2m) of
        # +/-m; the band excluded here is twice that wide.
        edge = p.m - RESIDUAL_TOL / p.m
        kept: list[tuple[float, float, str]] = []
        for root in sorted(found, key=lambda r: r[0]):
            e = root[0]
            if -edge < e < edge and not any(abs(e - k[0]) < 1e-10 * (1.0 + abs(e)) for k in kept):
                kept.append(root)
        out.append([_make_level(p, n, coeffs[i], complex(e), r, note) for e, r, note in kept])
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


def _solve_level_complex(p: PotentialParams, n: int, coeffs: Coefficients) -> list[EnergyLevel]:
    _, a, b = coeffs
    out: list[EnergyLevel] = []
    for E0 in _quadratic_roots(1.0 + b * b, a * b, a * a - p.m * p.m):
        E, res = _newton_polish(p, n, a, b, E0)
        if any(abs(E - lv.E) < 1e-10 * (1.0 + abs(E)) for lv in out):
            out[0] = replace(out[0], note="double_root")
            continue
        out.append(_make_level(p, n, coeffs, E, res))
    out.sort(key=lambda lv: (lv.E.real, lv.E.imag))
    return out


def _crosscheck_closed_form(p: PotentialParams, n: int, a: complex, found: list[EnergyLevel]) -> None:
    # With V0_eff = 0 the condition is explicit: E = +/- sqrt(m^2 - mu_n^2).
    ref = _explicit_energy(p, a)
    for lv in found:
        if min(abs(lv.E - ref), abs(lv.E + ref)) > 1e-9 * (1.0 + abs(ref)):
            raise CrossCheckError(
                f"level {n}: iterative root {lv.E} disagrees with the explicit "
                f"V0_eff = 0 form +/-{ref}"
            )


def _pm_pair(p: PotentialParams, n: int) -> PlusMinusPair:
    _, a, b = level_coefficients(p, n)
    E, _ = _newton_polish(p, n, a, b, _explicit_energy(p, a))
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
