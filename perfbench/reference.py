"""Independent reference for the kg-hierarchy outputs, from the paper's formulas.

Nothing here imports the package under test.  The level chain is

    nu1 (nu1 - q*lam_eff) = Gamma1,        rho_n = nu1 + n*q*lam_eff,
    mu_n(E) = a + b*E,  a = (Gamma1 + 2*q*m*S0 - rho_n^2) / (2*q*rho_n),  b = V0_eff / rho_n,

and the level condition E^2 - m^2 + mu_n(E)^2 = 0 is the quadratic

    (1 + b^2) E^2 + 2*a*b*E + (a^2 - m^2) = 0,

solved in closed form with the cancellation-safe formula (one root from the
larger-magnitude sum, the other from the product of the roots).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

HERMITIAN = "Hermitian"
PT_SYMMETRIC = "PTSymmetric"
NON_HERMITIAN = "NonHermitian"
BRANCHES = (HERMITIAN, PT_SYMMETRIC, NON_HERMITIAN)


@dataclass(frozen=True)
class Params:
    V0: float
    S0: float
    lam: float
    q: float
    m: float
    VI: float = 0.0
    branch: str = HERMITIAN

    @property
    def v0_eff(self) -> complex:
        return complex(self.V0, self.VI) if self.branch == NON_HERMITIAN else complex(self.V0)

    @property
    def lam_eff(self) -> complex:
        return complex(self.lam) if self.branch == HERMITIAN else complex(0.0, self.lam)

    @property
    def gamma1(self) -> complex:
        return self.S0 * self.S0 - self.v0_eff * self.v0_eff

    def domain_start(self) -> float:
        """Left edge of the sampled half line: the pole (if any, and >= 0) plus 1e-6/lam."""
        if self.branch == HERMITIAN:
            pole = math.log(self.q) / self.lam if self.q > 0 else None
        elif self.q == 1.0:
            pole = 0.0
        elif self.q == -1.0:
            pole = math.pi / self.lam
        else:
            pole = None
        return (0.0 if pole is None else max(0.0, pole)) + 1e-6 / self.lam


@dataclass(frozen=True)
class Root:
    n: int
    E: complex
    mu: complex
    nu: complex

    @property
    def normalizable(self) -> bool:
        return self.mu.real > 0.0


def nu1(p: Params) -> complex:
    """Root of nu (nu - q*lam_eff) = Gamma1; the mirror root for VI < 0 (antilinear pairing)."""
    qle = p.q * p.lam_eff
    sign = -1.0 if (p.branch == NON_HERMITIAN and p.VI < 0) else 1.0
    return 0.5 * (qle + sign * cmath.sqrt(qle * qle + 4.0 * p.gamma1))


def level_coefficients(p: Params, n: int) -> tuple[complex, complex, complex]:
    """(a, b, rho_n) with mu_n(E) = a + b*E."""
    rho = nu1(p) + n * p.q * p.lam_eff
    a = (p.gamma1 + 2.0 * p.q * p.m * p.S0 - rho * rho) / (2.0 * p.q * rho)
    return a, p.v0_eff / rho, rho


def quadratic_roots(A: complex, half_B: complex, C: complex) -> tuple[complex, complex]:
    """Both roots of A E^2 + 2*half_B*E + C = 0 without cancellation."""
    sq = cmath.sqrt(half_B * half_B - A * C)
    if (half_B.conjugate() * sq).real < 0.0:
        sq = -sq
    t = -(half_B + sq)
    if t == 0:
        return 0j, 0j
    return t / A, C / t


def level_roots(p: Params, n: int) -> list[Root]:
    """Bound roots of level n, sorted as the program lists them.

    Hermitian branch: the real roots strictly inside (-m, m).  Complex branches:
    both roots of the quadratic.
    """
    a, b, rho = level_coefficients(p, n)
    pair = quadratic_roots(1.0 + b * b, a * b, a * a - p.m * p.m)
    if p.branch == HERMITIAN:
        pair = [complex(e.real) for e in pair if e.imag == 0.0 and -p.m < e.real < p.m]
    es = sorted(set(pair), key=lambda e: (e.real, e.imag))
    return [Root(n, E, a + b * E, rho) for E in es]


def spectrum(p: Params, n_max: int) -> list[Root]:
    """Levels n = 0..n_max, stopping at the first level with no root or with no Re(mu) > 0."""
    out: list[Root] = []
    for n in range(n_max + 1):
        roots = level_roots(p, n)
        if not roots or max(r.mu.real for r in roots) <= 0.0:
            break
        out.extend(roots)
    return out


def residual(p: Params, root: Root) -> float:
    """|E^2 - m^2 + mu^2| at the root."""
    return abs(root.E * root.E - p.m * p.m + root.mu * root.mu)


def psi(p: Params, root: Root, x: np.ndarray) -> np.ndarray:
    """Closed-form ground state (1 - q*k)^(nu/(q*lam_eff)) * exp(-mu*x), k = exp(-lam_eff*x).

    Normalized to unit grid L2 norm on the Hermitian branch and to unit maximum
    modulus on the complex branches, on the (uniform) grid x.
    """
    xc = np.asarray(x, dtype=float).astype(np.complex128)
    base = 1.0 - p.q * np.exp(-p.lam_eff * xc)
    vals = np.power(base, root.nu / (p.q * p.lam_eff)) * np.exp(-root.mu * xc)
    if p.branch == HERMITIAN:
        dx = float(x[1] - x[0])
        return vals / math.sqrt(dx * float(np.sum(np.abs(vals) ** 2)))
    return vals / float(np.max(np.abs(vals)))
