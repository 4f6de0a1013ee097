"""Uniform-grid sampled functions on the half line."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

MIN_SAMPLES = 16


def uniform_grid(x: ArrayLike) -> np.ndarray:
    """x as a 1-D float array of at least MIN_SAMPLES points whose steps agree to
    1e-12 of a step plus rounding: each point of np.linspace is off by up to an
    ulp of max|x|, so the steps of an exactly uniform grid differ by up to
    4*eps*max|x|."""
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 1 or xa.size < MIN_SAMPLES:
        raise ValueError(f"need a 1-D grid with at least {MIN_SAMPLES} points")
    steps = np.diff(xa)
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(xa)) + 1e-12 * abs(steps[0])
    if not np.all(np.abs(steps - steps[0]) <= tol):
        raise ValueError("grid must be uniformly spaced")
    return xa


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A complex-valued function sampled on a uniform grid x0 + i*dx."""

    x0: float
    dx: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < MIN_SAMPLES:
            raise ValueError(f"GridFunction needs at least {MIN_SAMPLES} samples in 1-D")
        if not self.dx > 0:
            raise ValueError("grid spacing dx must be positive")

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

    def scaled(self, factor: complex) -> "GridFunction":
        return GridFunction(self.x0, self.dx, self.values * factor)

