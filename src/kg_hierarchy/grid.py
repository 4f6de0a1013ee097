"""Uniform-grid sampled functions on the half line, and OracleConfig, the box and
grid size that the verifier and the wavefunction command sample on."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from .potential import PotentialParams

MIN_SAMPLES = 16


def uniform_grid(x: ArrayLike) -> np.ndarray:
    """x as a 1-D float array of at least MIN_SAMPLES points whose steps agree to
    1e-12 of a step plus rounding: each point of np.linspace is off by up to an
    ulp of max|x|, so the steps of an exactly uniform grid differ by up to
    4*eps*max|x|."""
    xa = np.asarray(x, dtype=float)
    if xa.ndim != 1 or xa.size < MIN_SAMPLES:
        raise ValueError(f"need a 1-D grid with at least {MIN_SAMPLES} points")
    if not np.all(np.isfinite(xa)):
        raise ValueError("grid points must be finite")
    steps = np.diff(xa)
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(xa)) + 1e-12 * abs(steps[0])
    if not np.all(np.abs(steps - steps[0]) <= tol):
        raise ValueError("grid must be uniformly spaced")
    return xa


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

    def scaled(self, factor: complex) -> "GridFunction":
        return GridFunction(self.x0, self.dx, self.values * factor)


@dataclass(frozen=True)
class OracleConfig:
    """Discretization controls.

    x_max defaults to 40/lam at resolution time and must lie right of the
    deformation pole; n_points is the number of interior grid points of the
    5-point stencil.
    """

    x_max: float | None = None
    n_points: int = 4000

    def __post_init__(self) -> None:
        try:
            n_points = operator.index(self.n_points)
        except TypeError:
            n_points = 0
        if n_points < 64:
            raise ValueError(f"n_points must be an integer >= 64, got {self.n_points!r}")

    def resolve(self, p: PotentialParams) -> "OracleConfig":
        x_max = self.x_max if self.x_max is not None else 40.0 / p.lam
        if not 10.0 / p.lam <= x_max < math.inf:
            raise ValueError(f"x_max must be finite and extend beyond 10/lam = {10.0 / p.lam:g}")
        if not x_max > p.domain_start():
            raise ValueError(f"x_max = {x_max:g} must lie right of the deformation pole at {p.domain_start():g}")
        return replace(self, x_max=x_max)
