"""Self-consistent bound-state energies for every level and branch.

The level condition eps_n(E) = E^2 - m^2 is implicit in E because Gamma2 is
affine in E; the honest residual is

    f_n(E) = (E^2 - m^2) + mu_n(E)^2.

Since mu_n = a + b*E is affine in E, f_n is the quadratic

    (1 + b^2) E^2 + 2*a*b*E + (a^2 - m^2).

One solver serves every branch: both roots come from the cancellation-safe
quadratic formula (Higham, Accuracy and Stability of Numerical Algorithms,
sec. 1.8), each is Newton-polished on f_n and certified by |f_n(E)| < 1e-12,
and two polished roots that coincide are listed once.  On the Hermitian branch
only real roots in (-m, m) are kept, and when rounding turns a double root
into a complex pair, the parabola's vertex stands in for it.  With V0_eff = 0
the formula is the explicit E = +/- sqrt(m^2 - mu_n^2).

The solver is scalar Python, point by point and root by root, with no arrays:
a level has at most two roots.  On the Hermitian branch every imaginary part
is exactly 0, so the coefficients are taken as floats and the roots and the
Newton polish run in float arithmetic, which gives the digits of the complex
one without -0 imaginary parts.  The module imports no numpy, and EnergyLevel
is a NamedTuple, so the spectrum and sweep commands start without numpy or
dataclasses.  spectrum and solve_level share one root pass, giving each root of
a level as (E, mu, residual, note), and one EnergyLevel constructor.  spectrum
stops at n_max or at the first level with no root of Re(mu) > 0 (none flagged
NormalizableMuPositive, a level with no root included) and wraps only the roots
it returns; solve_level is one level, and only it raises NoRootError.
"""

from __future__ import annotations

import cmath
import itertools
from enum import Enum
from typing import NamedTuple

from .errors import NoRootError, NonConvergenceError
from .hierarchy import Coefficients, chain_coefficients, level_chain, level_coefficients, level_index
from .potential import Branch, PotentialParams

# Residual certificate and Newton budget.
RESIDUAL_TOL = 1e-12
MAX_NEWTON_ITER = 200
_U = 2.0**-53  # unit roundoff of float64

# (E, mu, residual, note) of one polished root of a level.
Root = tuple[complex, complex, float, str]


class LevelFlag(Enum):
    NORMALIZABLE_MU_POSITIVE = "NormalizableMuPositive"
    REAL_BOUND_STATE = "RealBoundState"
    COMPLEX_PAIR = "ComplexPair"


class EnergyLevel(NamedTuple):
    """A solved bound-state energy with residual diagnostics."""

    n: int
    E: complex
    mu: complex
    residual: float
    mass: float
    flags: frozenset = frozenset()
    note: str = ""

    @property
    def epsilon(self) -> complex:
        # Recomputed, never stored: eps = E^2 - m^2.
        return self.E * self.E - self.mass * self.mass


def _newton_polish(p: PotentialParams, n: int, a: complex, b: complex, E: complex) -> tuple[complex, float]:
    # Newton on f_n from E, in complex or, on the Hermitian branch, float arithmetic:
    # f at the start and after each of up to MAX_NEWTON_ITER steps.
    for step in range(MAX_NEWTON_ITER + 1):
        mu = a + b * E
        f = E * E - p.m * p.m + mu * mu
        if abs(f) < RESIDUAL_TOL:
            return E, abs(f)
        if step == MAX_NEWTON_ITER:
            break
        df = 2.0 * E + 2.0 * mu * b
        if df == 0:
            E = E + RESIDUAL_TOL + 1e-9
            continue
        E = E - f / df
    raise NonConvergenceError(
        f"level {n}: Newton polishing of E = {complex(E):.6g} stalled at |f| = {abs(f):.3e} "
        f"after {MAX_NEWTON_ITER} iterations"
    )


# One shared frozenset per combination of the three LevelFlag conditions, in their order.
_FLAG_SETS = {
    on: frozenset(flag for flag, is_on in zip(LevelFlag, on) if is_on)
    for on in itertools.product((False, True), repeat=len(LevelFlag))
}


def _make_level(p: PotentialParams, n: int, E: complex, mu: complex, residual: float, note: str) -> EnergyLevel:
    on = (
        mu.real > 0.0,
        abs(E.imag) <= 1e-12 * (1.0 + abs(E)) and abs(E.real) < p.m,
        p.branch is not Branch.HERMITIAN,
    )
    return EnergyLevel(n, complex(E), mu, residual, p.m, _FLAG_SETS[on], note)


def solve_level(p: PotentialParams, n: int) -> list[EnergyLevel]:
    """All self-consistent bound energies at level n (at most two).

    Both roots of the level quadratic come from the cancellation-safe formula,
    each Newton-polished.  Hermitian branch: the real roots in (-m, m), none
    within 8 rounding units of the threshold +/-m.  When the formula gives a
    complex pair whose vertex has |f_n| < 1e-12, the pair is a double root
    split by rounding, and the vertex is polished in its place.  On every
    branch a root the two polished roots share is listed once, with note
    "double_root".  On the PT-symmetric and non-Hermitian branches both roots
    are returned, flagged ComplexPair; they are a +/- pair only when
    V0_eff = 0.  Every returned root has |f_n(E)| < 1e-12; a root that
    cannot reach it raises NonConvergenceError.  A level with no root raises
    NoRootError.
    """
    roots = _level_roots(p, n, level_coefficients(p, n))
    if not roots:
        raise NoRootError(f"level {n} supports no self-consistent bound energy")
    return [_make_level(p, n, *root) for root in roots]


def spectrum(p: PotentialParams, n_max: int) -> list[EnergyLevel]:
    """Bound levels for n = 0, 1, ..., n_max, up to the first level with no root
    flagged NormalizableMuPositive (a level with no root is one); never NoRootError."""
    n_max = level_index(n_max, "n_max")
    chain = level_chain(p)
    out: list[EnergyLevel] = []
    for n in range(n_max + 1):
        roots = _level_roots(p, n, chain_coefficients(chain, n))
        if not any(mu.real > 0.0 for _, mu, _, _ in roots):
            break
        out.extend(_make_level(p, n, *root) for root in roots)
    return out


def _level_roots(p: PotentialParams, n: int, coeffs: Coefficients) -> list[Root]:
    # Level n's polished, deduplicated roots from its coefficients, sorted; [] when it has none.
    _, ca, cb = coeffs
    m = p.m
    hermitian = p.branch is Branch.HERMITIAN
    # On the Hermitian branch every imaginary part here is exactly 0, and float
    # arithmetic gives the same digits as the complex one without writing -0 into them.
    a, b = (ca.real, cb.real) if hermitian else (ca, cb)
    A, h = 1.0 + b * b, a * b
    starts = _quadratic_roots(A, h, a * a - m * m)
    if hermitian:
        if starts[0].imag == 0.0:
            starts = [E0.real for E0 in starts if -m < E0.real < m]
        else:
            # A complex pair.  f is an upward parabola in E, so a double root that
            # rounding split into this pair can only sit at the vertex, where
            # f' = 2E + 2*mu*mu' vanishes (f' is linear in E).
            vertex = -h / A
            mu_v = a + b * vertex
            tangent = abs(vertex * vertex - m * m + mu_v * mu_v) < RESIDUAL_TOL
            starts = [vertex, vertex] if tangent else []
        # A root within 8 rounding units of +/-m is the threshold itself, where
        # mu = 0: no bound state.  The closed form places a threshold root within
        # a few units of +/-m, and a bound root next to it (mu > 0) stays.
        edge = m * (1.0 - 8.0 * _U)
    out: list[Root] = []
    for E0 in starts:
        E, res = _newton_polish(p, n, a, b, E0)
        if hermitian and not -edge < E < edge:
            continue
        if any(abs(E - kept[0]) < 1e-10 * (1.0 + abs(E)) for kept in out):
            out[0] = (*out[0][:3], "double_root")
            continue
        # mu from the complex coefficients, as level() gives it.
        out.append((E, complex(ca + cb * E), res, ""))
    out.sort(key=lambda root: (root[0].real, root[0].imag))
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
