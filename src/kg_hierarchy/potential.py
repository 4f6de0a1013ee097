"""q-deformed Hulthen potential family.

Covers the Lorentz vector/scalar split, the three deformation branches
(Hermitian, PT-symmetric, non-Hermitian), and the energy-dependent effective
potential that turns the Klein-Gordon problem into a Schrodinger-form
eigenproblem (-d2/dx2 + V_eff(x; E)) psi = (E^2 - m^2) psi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from .errors import DomainError, GammaPositivityWarning

# Absolute floor on |1 - q*k(x)| before an evaluation counts as sitting on the pole.
POLE_TOL = 1e-12


class Branch(Enum):
    HERMITIAN = "Hermitian"
    PT_SYMMETRIC = "PTSymmetric"
    NON_HERMITIAN = "NonHermitian"


@dataclass(frozen=True)
class PotentialParams:
    """Physical inputs: couplings, screening, deformation, mass and branch.

    V0, S0 are the real vector/scalar coupling strengths, VI the imaginary
    vector part (non-Hermitian branch only), lam > 0 the screening rate,
    q != 0 the deformation parameter and m > 0 the particle mass.
    """

    V0: float
    S0: float
    lam: float
    q: float
    m: float
    VI: float = 0.0
    branch: Branch = Branch.HERMITIAN

    def __post_init__(self) -> None:
        for name in ("V0", "S0", "VI", "lam", "q", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.q == 0:
            raise ValueError(
                "deformation parameter q must be nonzero: the q -> 0 limit sends "
                "every bound energy to infinity"
            )
        if not self.lam > 0:
            raise ValueError("screening parameter lam must be positive")
        if not self.m > 0:
            raise ValueError("mass m must be positive")
        if self.VI != 0.0 and self.branch is not Branch.NON_HERMITIAN:
            raise ValueError("VI must be zero outside the NonHermitian branch")
        g1 = self.gamma1
        if g1.imag == 0.0 and g1.real <= 0.0:
            warnings.warn(
                f"Gamma1 = S0^2 - V0_eff^2 = {g1.real:g} is not positive; the "
                "hierarchy still applies but normalizability is not guaranteed",
                GammaPositivityWarning,
                stacklevel=2,
            )

    @property
    def v0_eff(self) -> complex:
        """Vector coupling entering Gamma1/Gamma2; picks up +i*VI on the non-Hermitian branch."""
        if self.branch is Branch.NON_HERMITIAN:
            return complex(self.V0, self.VI)
        return complex(self.V0)

    @property
    def lambda_eff(self) -> complex:
        """Screening rate after analytic continuation: lam, or i*lam on complex branches."""
        if self.branch is Branch.HERMITIAN:
            return complex(self.lam)
        return complex(0.0, self.lam)

    @property
    def gamma1(self) -> complex:
        return self.S0 * self.S0 - self.v0_eff * self.v0_eff

    @property
    def pole_position(self) -> float | None:
        """Location of the deformation pole on the real axis, if any.

        Hermitian branch: 1 - q*exp(-lam*x) vanishes at x = ln(q)/lam for q > 0.
        Complex branches: the kernel is a pure phase, so a pole needs |q| = 1;
        the first nonnegative pole is returned.
        """
        if self.branch is Branch.HERMITIAN:
            return math.log(self.q) / self.lam if self.q > 0 else None
        if self.q == 1.0:
            return 0.0
        if self.q == -1.0:
            return math.pi / self.lam
        return None

    def domain_start(self, delta: float | None = None) -> float:
        """Left edge for grid work: max(0, pole) plus a small standoff (default 1e-6/lam)."""
        if delta is None:
            delta = 1e-6 / self.lam
        pole = self.pole_position
        base = 0.0 if pole is None else max(0.0, pole)
        return base + delta


class GammaPair(NamedTuple):
    """Effective-potential coefficients at a trial energy.

    gamma1 = S0^2 - V0_eff^2 is energy independent; gamma2 = 2*(m*S0 + E*V0_eff)
    is affine in E.
    """

    gamma1: complex
    gamma2: complex


def gammas(p: PotentialParams, E: complex) -> GammaPair:
    """Coefficient pair (Gamma1, Gamma2(E)) of the effective potential."""
    return GammaPair(p.gamma1, gamma2(p, E))


def gamma2(p: PotentialParams, E: complex) -> complex:
    g2 = 2.0 * (p.m * p.S0 + E * p.v0_eff)
    if g2.imag == 0.0 and g2.real <= 0.0:
        warnings.warn(
            f"Gamma2 = 2(m*S0 + E*V0_eff) = {g2.real:g} is not positive at E = {E}",
            GammaPositivityWarning,
            stacklevel=2,
        )
    return g2


def deformation_kernel(p: PotentialParams, x: ArrayLike) -> np.ndarray | complex:
    """k(x) = exp(-lambda_eff * x): real decay (Hermitian) or pure phase (complex branches)."""
    k = np.exp(-p.lambda_eff * np.asarray(x, dtype=np.complex128))
    return _collapse(k)


def screened_ratio(q: float, lambda_eff: complex, x: ArrayLike) -> np.ndarray:
    """u(x) = k/(1 - q*k) with k = exp(-lambda_eff*x); raises DomainError on the pole."""
    k = np.exp(-lambda_eff * np.asarray(x, dtype=np.complex128))
    denom = 1.0 - q * k
    bad = np.abs(denom) < POLE_TOL
    if np.any(bad):
        raise DomainError(
            "evaluation point within pole tolerance of 1 - q*exp(-lambda_eff*x) = 0"
        )
    return k / denom


def vector_potential(p: PotentialParams, x: ArrayLike) -> np.ndarray | complex:
    """Lorentz vector part -V0_eff * k/(1 - q*k)."""
    return _collapse(-p.v0_eff * screened_ratio(p.q, p.lambda_eff, x))


def scalar_potential(p: PotentialParams, x: ArrayLike) -> np.ndarray | complex:
    """Lorentz scalar part -S0 * k/(1 - q*k)."""
    return _collapse(-p.S0 * screened_ratio(p.q, p.lambda_eff, x))


def effective_potential(p: PotentialParams, E: complex, x: ArrayLike) -> np.ndarray | complex:
    """Gamma-form effective potential Gamma1*u^2 - Gamma2(E)*u."""
    g1, g2_ = gammas(p, E)
    u = screened_ratio(p.q, p.lambda_eff, x)
    return _collapse(g1 * u * u - g2_ * u)


def effective_potential_direct(
    p: PotentialParams, E: complex, x: ArrayLike
) -> np.ndarray | complex:
    """Coupling-form effective potential [S^2 - V^2] + 2[m*S + E*V].

    Algebraically identical to :func:`effective_potential`; kept as the second
    route of the pointwise-identity check.
    """
    v = -p.v0_eff * screened_ratio(p.q, p.lambda_eff, x)
    s = -p.S0 * screened_ratio(p.q, p.lambda_eff, x)
    return _collapse((s * s - v * v) + 2.0 * (p.m * s + E * v))


def _collapse(a: np.ndarray) -> np.ndarray | complex:
    # 0-d results come back as plain python complex for scalar inputs.
    arr = np.asarray(a)
    return complex(arr) if arr.ndim == 0 else arr
