"""q-deformed Hulthen potential family.

Covers the three deformation branches (Hermitian, PT-symmetric,
non-Hermitian) and the energy-dependent effective potential that turns the
Klein-Gordon problem into a Schrodinger-form eigenproblem
(-d2/dx2 + V_eff(x; E)) psi = (E^2 - m^2) psi.  The couplings V0 and S0 enter
V_eff only through Gamma1 and Gamma2(E).

The parameters, the Gamma terms and the oracle's grid size (OracleConfig) are
plain Python; the functions of x import numpy when they are called, so the
spectrum solver never loads it, and return complex128 numpy values shaped like x.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from collections import namedtuple
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DomainError, GammaPositivityWarning, ParameterError

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import ArrayLike

# Absolute floor on |1 - q*k(x)| before an evaluation counts as sitting on the pole,
# and the DomainError message of every evaluation that does.
POLE_TOL = 1e-12
POLE_ERROR = "evaluation point within pole tolerance of 1 - q*exp(-lambda_eff*x) = 0"


# The top-level modules whose frames a warning skips to name its caller.
_INTERNAL = (__name__.partition(".")[0], "collections")


def _caller_stacklevel() -> int:
    """warnings.warn stacklevel of the first frame outside this package and ``collections``.

    Counted from the function that calls this helper (stacklevel 1), so a
    warning names the caller's line however deep in the package it is raised,
    including through ``PotentialParams._replace``, which namedtuple defines in
    ``collections``: the "once" action keys on the registry of the module a
    warning names, and one named there would be shown again.
    """
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] in _INTERNAL:
        level, frame = level + 1, frame.f_back
    return level


class Branch(Enum):
    HERMITIAN = "Hermitian"
    PT_SYMMETRIC = "PTSymmetric"
    NON_HERMITIAN = "NonHermitian"


_ParamTuple = namedtuple("PotentialParams", "V0 S0 lam q m VI branch", defaults=(0.0, Branch.HERMITIAN))


class PotentialParams(_ParamTuple):
    """Physical inputs: couplings, screening, deformation, mass and branch.

    V0, S0 are the real vector/scalar coupling strengths, VI the imaginary
    vector part (non-Hermitian branch only), lam > 0 the screening rate,
    q != 0 the deformation parameter and m > 0 the particle mass.  ``__init__``
    checks the fields the tuple already holds and raises ParameterError (a
    ValueError) naming an invalid one; ``_replace`` checks too, since ``_make``
    calls the constructor.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, V0, S0, lam, q, m, VI=0.0, branch=Branch.HERMITIAN) -> None:
        # A str such as "Hermitian" is no Branch: every `is Branch.HERMITIAN` test
        # would fail, and the parameters would be solved as a complex branch.
        if not isinstance(self.branch, Branch):
            raise ParameterError("branch", f"branch must be a Branch, got {self.branch!r}")
        for name in ("V0", "S0", "VI", "lam", "q", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(name, f"{name} must be finite, got {getattr(self, name)}")
        if self.q == 0:
            raise ParameterError(
                "q",
                "deformation parameter q must be nonzero: the q -> 0 limit sends "
                "every bound energy to infinity",
            )
        if not self.lam > 0:
            raise ParameterError("lam", "screening parameter lam must be positive")
        if not self.m > 0:
            raise ParameterError("m", "mass m must be positive")
        if self.q * self.lam == 0:
            raise ParameterError(
                "q",
                f"q*lam = {self.q:g}*{self.lam:g} underflows to 0; the hierarchy step "
                "q*lambda_eff must be a nonzero double",
            )
        if self.VI != 0.0 and self.branch is not Branch.NON_HERMITIAN:
            raise ParameterError("VI", "VI must be zero outside the NonHermitian branch")
        g1 = self.gamma1
        if g1.imag == 0.0 and g1.real <= 0.0:
            vi = f", VI = {self.VI:g}" if self.VI else ""
            warnings.warn(
                f"Gamma1 = S0^2 - V0_eff^2 = {g1.real:g} is not positive at "
                f"V0 = {self.V0:g}, S0 = {self.S0:g}{vi}; the hierarchy still "
                "applies but normalizability is not guaranteed",
                GammaPositivityWarning,
                stacklevel=_caller_stacklevel(),
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

    def domain_start(self) -> float:
        """Left edge for grid work: max(0, pole) plus a standoff of 1e-6/lam."""
        pole = self.pole_position
        base = 0.0 if pole is None else max(0.0, pole)
        return base + 1e-6 / self.lam

    def box_end(self) -> float:
        """Right edge for grid work: 40/lam, forty screening lengths;
        ValueError unless domain_start() < 40/lam < inf."""
        end, start = 40.0 / self.lam, self.domain_start()
        if not start < end < math.inf:
            raise ValueError(f"the box end 40/lam = {end:g} must be finite and lie right of "
                             f"the deformation pole at {start:g}")
        return end


class OracleConfig(namedtuple("OracleConfig", "n_points", defaults=(4000,))):
    """Discretization control of the finite-difference verifier (kg_hierarchy.oracle):
    n_points, the number of interior grid points of the 5-point stencil on the box
    that ends at PotentialParams.box_end().

    Defined here, without numpy, so that a command checks a given oracle.n_points
    without loading the oracle.  ``__init__`` raises ValueError unless n_points is an
    integer >= 64; ``_replace`` checks too.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, n_points=4000) -> None:
        try:
            ok = operator.index(self.n_points) >= 64
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"n_points must be an integer >= 64, got {self.n_points!r}")


def gamma2(p: PotentialParams, E: complex) -> complex:
    """Gamma2(E) = 2*(m*S0 + E*V0_eff), affine in E; Gamma1 is p.gamma1."""
    g2 = 2.0 * (p.m * p.S0 + E * p.v0_eff)
    if g2.imag == 0.0 and g2.real <= 0.0:
        warnings.warn(
            f"Gamma2 = 2(m*S0 + E*V0_eff) = {g2.real:g} is not positive at E = {E}",
            GammaPositivityWarning,
            stacklevel=_caller_stacklevel(),
        )
    return g2


def kernel_and_base(q: float, lambda_eff: complex, x: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """k = exp(-lambda_eff*x) and the deformation base 1 - q*k, as complex arrays.

    DomainError(POLE_ERROR) where |1 - q*k| < POLE_TOL: the array form of the pole
    check that wavefunctions.ground_state_from_W makes per sample.
    """
    import numpy as np

    k = np.exp(-lambda_eff * np.asarray(x, dtype=np.complex128))
    base = 1.0 - q * k
    if np.any(np.abs(base) < POLE_TOL):
        raise DomainError(POLE_ERROR)
    return k, base


def screened_ratio(q: float, lambda_eff: complex, x: ArrayLike) -> np.ndarray:
    """u(x) = k/(1 - q*k) with k = exp(-lambda_eff*x); raises DomainError on the pole."""
    k, base = kernel_and_base(q, lambda_eff, x)
    return k / base


def effective_potential(p: PotentialParams, E: complex, x: ArrayLike) -> np.ndarray:
    """V_eff = Gamma1*u^2 - Gamma2(E)*u as a complex128 array shaped like x (0-d for scalar x)."""
    return gamma_form(p, E, screened_ratio(p.q, p.lambda_eff, x))


def gamma_form(p: PotentialParams, E: complex, u: np.ndarray) -> np.ndarray:
    """Gamma1*u^2 - Gamma2(E)*u from a precomputed screened ratio u = k/(1 - q*k).

    Only Gamma2 depends on E, so a caller that evaluates many energies on one
    grid computes u once (the oracle does).
    """
    return p.gamma1 * u * u - gamma2(p, E) * u
