"""Hierarchy ground-state wavefunctions sampled on uniform grids, and grid diagnostics.

Integrating the ansatz superpotential gives the closed form

    psi(x) = N * (1 - q*k(x))^(nu/(q*lambda_eff)) * exp(-mu*x),

with k = exp(-lambda_eff*x).  The deformation parameter appears in the exponent
denominator, which is why q = 0 is excluded at construction.  On the
non-Hermitian branch mu is (up to the stored convention) i times a real decay
constant, so exp(-mu*x) is the expected oscillatory phase factor there.
:func:`ground_state_from_W` is the one evaluation of psi, at the points
GridFunction.x of the grid (x0, dx, n) it is given.  The terms that do not
depend on the level, x and log(1 - q*k), are computed once for the last grid
and shared by the levels sampled on it.  It evaluates one sample at
a time with cmath, so the module loads neither numpy nor dataclasses, and its
complex products are CPython's, not numpy's loops, which pick fused
multiply-add kernels by CPU at run time.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence

from .errors import DomainError, NonNormalizableError
from .hierarchy import Superpotential, level_index
from .potential import POLE_ERROR, POLE_TOL

# Serialized next to wavefunction output: records the normalization rule and the
# generative form actually evaluated.
WAVEFORM_NOTE = (
    "psi(x) = N * (1 - q*exp(-lambda_eff*x))**(nu/(q*lambda_eff)) * exp(-mu*x); "
    "normalization: grid L2 (Hermitian) or max-modulus (complex branches)"
)
# node_count ignores samples below this fraction of the largest modulus.
NODE_FLOOR = 1e-12
MIN_SAMPLES = 16


class GridFunction:
    """A complex-valued function sampled on a uniform grid x0 + i*dx, x0 finite and 0 < dx < inf.

    values is kept as given: a list of complex from ground_state_from_W, the
    eigenvector array of the oracle.
    """

    __slots__ = ("x0", "dx", "values")

    def __init__(self, x0: float, dx: float, values: Sequence[complex]) -> None:
        if len(values) < MIN_SAMPLES:
            raise ValueError(f"GridFunction needs at least {MIN_SAMPLES} samples")
        if not (math.isfinite(x0) and 0.0 < dx < math.inf):
            raise ValueError("GridFunction needs a finite x0 and a finite positive spacing dx")
        self.x0, self.dx, self.values = x0, dx, values

    def __repr__(self) -> str:
        return f"GridFunction(x0={self.x0!r}, dx={self.dx!r}, n={self.n})"

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def x(self) -> list[float]:
        return [self.x0 + self.dx * i for i in range(self.n)]

    def l2_norm(self) -> float:
        """Discrete L2 norm sqrt(dx * sum |v|^2), the sum correctly rounded (math.fsum)."""
        return math.sqrt(self.dx * math.fsum(a * a for a in map(abs, self.values)))

    def max_modulus(self) -> float:
        """max |v|, nan if a sample is nan: max() alone skips a nan that is not first."""
        moduli = list(map(abs, self.values))
        return math.nan if any(map(math.isnan, moduli)) else max(moduli)


def _exp(z: complex) -> complex:
    """cmath.exp(z), or nan where it raises (an overflow, or an infinite imaginary part):
    numpy's exp returns a non-finite value there, which fails the normalization."""
    try:
        return cmath.exp(z)
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan)


@functools.lru_cache(maxsize=1)
def _grid_terms(q: float, lambda_eff: complex, x0: float, dx: float,
                n: int) -> tuple[tuple[float, ...], tuple[complex, ...]]:
    """The level-independent terms of log(psi) on the grid: the points x0 + i*dx (GridFunction.x)
    and log(1 - q*exp(-lambda_eff*x)) at each; DomainError where |1 - q*k| < POLE_TOL.

    Cached for the last grid, since every level of a run is sampled on the same one;
    an exception is not cached, so a pole grid raises on every call."""
    x = tuple(x0 + dx * i for i in range(n))
    base = [1.0 - q * _exp(-lambda_eff * xi) for xi in x]
    # math.hypot, not abs: after an overflowing exp, CPython's complex abs reads a
    # stale errno and raises OverflowError on the nan sample left for it.
    if any(math.hypot(b.real, b.imag) < POLE_TOL for b in base):
        raise DomainError(POLE_ERROR)
    return x, tuple(map(cmath.log, base))


def ground_state_from_W(w: Superpotential, x0: float, dx: float, n: int) -> GridFunction:
    """exp(-integral W) at the n points x0 + i*dx, normalized.

    ParameterError("n") unless n is an integer >= 0, and GridFunction's ValueError
    unless x0 is finite, 0 < dx < inf and n >= MIN_SAMPLES.  Uses the closed-form
    antiderivative integral(W) = mu*x - (nu/(q*lambda_eff)) * log(1 - q*k(x)).
    Hermitian-style data (real lambda_eff) is normalized to unit grid L2 norm and
    requires Re(mu) > 0; complex branches are normalized to unit maximum modulus.
    DomainError where |1 - q*k| < POLE_TOL, NonNormalizableError where psi under- or
    overflows.  log(psi) is shifted by its maximum real part before the
    exponential, so a ground state whose values all lie below the smallest double
    still normalizes.
    """
    # Built before psi is known: it checks the grid, and its x is the points psi
    # is evaluated at.  The values are filled in below.
    psi = GridFunction(x0, dx, [0j] * level_index(n, "n"))
    hermitian = w.lambda_eff.imag == 0.0
    if hermitian and w.mu.real <= 0.0:
        raise NonNormalizableError(
            f"Re(mu) = {w.mu.real:g} <= 0: exp(-mu*x) does not decay; no bound ground state"
        )
    x, log_base = _grid_terms(w.q, w.lambda_eff, x0, dx, psi.n)
    c, mu = w.nu / (w.q * w.lambda_eff), w.mu
    log_psi = [c * lb - mu * xi for lb, xi in zip(log_base, x)]
    # A constant factor, which the normalization divides out again.  One that is
    # not finite means a nan sample, an infinite one, or none above zero.
    peak = max(z.real for z in log_psi)
    norm = math.nan
    if math.isfinite(peak):
        psi.values[:] = [_exp(z - peak) for z in log_psi]
        norm = psi.l2_norm() if hermitian else psi.max_modulus()
    if not 0.0 < norm < math.inf:
        raise NonNormalizableError(
            f"grid norm of psi is {norm:g}: the ground state under- or overflows on this grid"
        )
    scale = 1.0 / norm
    psi.values[:] = [v * scale for v in psi.values]
    return psi


def node_count(f: GridFunction) -> int:
    """Strict sign changes of a real-valued grid function, ignoring near-zero samples;
    ValueError on a non-finite sample."""
    vmax = f.max_modulus()
    if not math.isfinite(vmax):
        raise ValueError("node counting needs finite samples")
    if vmax == 0.0:
        return 0
    if max(abs(v.imag) for v in f.values) > 1e-9 * vmax:
        raise ValueError("node counting expects real-valued samples")
    floor = NODE_FLOOR * vmax
    positive = [v.real > 0.0 for v in f.values if abs(v.real) >= floor]
    return int(sum(a != b for a, b in zip(positive, positive[1:])))
