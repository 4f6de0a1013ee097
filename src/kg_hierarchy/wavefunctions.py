"""Hierarchy ground-state wavefunctions sampled on uniform grids, and grid diagnostics.

Integrating the ansatz superpotential gives the closed form

    psi(x) = N * (1 - q*k(x))^(nu/(q*lambda_eff)) * exp(-mu*x),

with k = exp(-lambda_eff*x).  The deformation parameter appears in the exponent
denominator, which is why q = 0 is excluded at construction.  On the
non-Hermitian branch mu is (up to the stored convention) i times a real decay
constant, so exp(-mu*x) is the expected oscillatory phase factor there.
:func:`ground_state_from_W` is the one evaluation of psi, at the points
GridFunction.x of the grid (x0, dx, n) it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonNormalizableError
from .hierarchy import Superpotential, level_index
from .potential import kernel_and_base

# Serialized next to wavefunction output: records the normalization rule and the
# generative form actually evaluated.
WAVEFORM_NOTE = (
    "psi(x) = N * (1 - q*exp(-lambda_eff*x))**(nu/(q*lambda_eff)) * exp(-mu*x); "
    "normalization: grid L2 (Hermitian) or max-modulus (complex branches)"
)
# node_count ignores samples below this fraction of the largest modulus.
NODE_FLOOR = 1e-12
MIN_SAMPLES = 16


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A complex-valued function sampled on a uniform grid x0 + i*dx, x0 finite and 0 < dx < inf."""

    x0: float
    dx: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < MIN_SAMPLES:
            raise ValueError(f"GridFunction needs at least {MIN_SAMPLES} samples in 1-D")
        if not (math.isfinite(self.x0) and 0.0 < self.dx < math.inf):
            raise ValueError("GridFunction needs a finite x0 and a finite positive spacing dx")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def l2_norm(self) -> float:
        """Discrete L2 norm sqrt(dx * sum |v|^2)."""
        return float(np.sqrt(self.dx * np.sum(np.abs(self.values) ** 2)))

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.values)))


def ground_state_from_W(w: Superpotential, x0: float, dx: float, n: int) -> GridFunction:
    """exp(-integral W) at the n points x0 + i*dx, normalized.

    ParameterError("n") unless n is an integer >= 0, and GridFunction's ValueError
    unless x0 is finite, 0 < dx < inf and n >= MIN_SAMPLES.  Uses the closed-form
    antiderivative integral(W) = mu*x - (nu/(q*lambda_eff)) * log(1 - q*k(x)).
    Hermitian-style data (real lambda_eff) is normalized to unit grid L2 norm and
    requires Re(mu) > 0; complex branches are normalized to unit maximum modulus.
    log(psi) is shifted by its maximum real part before the exponential, so a
    ground state whose values all lie below the smallest double still normalizes.
    """
    # Built before psi is known: it checks the grid, and its x is the points psi
    # is evaluated at.  The values are filled in below.
    psi = GridFunction(x0, dx, np.empty(level_index(n, "n"), dtype=np.complex128))
    hermitian = w.lambda_eff.imag == 0.0
    if hermitian and w.mu.real <= 0.0:
        raise NonNormalizableError(
            f"Re(mu) = {w.mu.real:g} <= 0: exp(-mu*x) does not decay; no bound ground state"
        )
    x = psi.x
    base = kernel_and_base(w.q, w.lambda_eff, x)[1]
    log_psi = (w.nu / (w.q * w.lambda_eff)) * np.log(base) - w.mu * x
    # A constant factor, which the normalization divides out again.
    peak = float(np.max(log_psi.real))
    if np.isfinite(peak):
        log_psi = log_psi - peak
    np.exp(log_psi, out=psi.values)
    norm = psi.l2_norm() if hermitian else psi.max_modulus()
    if not 0.0 < norm < np.inf:
        raise NonNormalizableError(
            f"grid norm of psi is {norm:g}: the ground state under- or overflows on this grid"
        )
    np.multiply(psi.values, 1.0 / norm, out=psi.values)
    return psi


def node_count(f: GridFunction) -> int:
    """Strict sign changes of a real-valued grid function, ignoring near-zero samples;
    ValueError on a non-finite sample."""
    vals = f.values
    vmax = float(np.max(np.abs(vals)))
    if not np.isfinite(vmax):
        raise ValueError("node counting needs finite samples")
    if vmax == 0.0:
        return 0
    if np.max(np.abs(vals.imag)) > 1e-9 * vmax:
        raise ValueError("node counting expects real-valued samples")
    real = vals.real
    keep = np.abs(real) >= NODE_FLOOR * vmax
    signs = np.sign(real[keep])
    return int(np.sum(signs[:-1] * signs[1:] < 0))
