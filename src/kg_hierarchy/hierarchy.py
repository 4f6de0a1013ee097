"""Factorization machinery: superpotential ansatz, level recurrence, Riccati check.

The ansatz superpotential W(x) = -nu * k/(1 - q*k) + mu (k = exp(-lambda_eff*x))
factorizes the effective Hamiltonian. Matching the k^2/(1-qk)^2 coefficient gives
the quadratic nu1*(nu1 - q*lambda_eff) = Gamma1; iterating the partner
construction shifts nu by q*lambda_eff per level, so

    rho_n = nu1 + n*q*lambda_eff,
    mu_n  = (Gamma1 + q*Gamma2(E) - rho_n^2) / (2*q*rho_n) = a_n + b_n*E,
    eps_n = -mu_n^2.

Gamma2 is affine in E, so mu_n is too; :func:`chain_coefficients` is the one
place rho_n, a_n and b_n are computed, from nu1 and the other level-independent
terms that :func:`level_chain` collects once per parameter point.  The solver in
spectra takes mu_n = a_n + b_n*E from these coefficients; :func:`level` gives
the superpotential W_n (nu = rho_n, mu = mu_n) at one trial energy.  All
quantities are stored complex on every branch; on the Hermitian branch they
must be real, which level_chain checks for nu1 and level for mu_n.  The level
algebra and :func:`riccati_check`, on the coefficients of W^2 -+ W' in
u = k/(1 - q*k), are plain Python: no function here samples x or loads numpy.

At a fixed E the chain is the bound spectrum of H(E) = -d2/dx2 + V_eff(E),
{-mu_n(E)^2 : Re mu_n > 0}, since each partner shifts rho by q*lambda_eff;
the oracle's discretize(p, E, cfg).eigenvalues reproduces it on a grid.
"""

from __future__ import annotations

import cmath
import operator
from typing import NamedTuple

from .errors import ComplexLevelError, DegenerateRootError, ParameterError, ZeroNuError
from .potential import Branch, PotentialParams, gamma2

_IMAG_TOL = 1e-13
RICCATI_TOL = 1e-10  # scaled tolerance of riccati_check, and so of the verify command

# (rho_n, a, b) of level_coefficients; a level solve computes it once and reuses it.
Coefficients = tuple[complex, complex, complex]
# (nu1, q*lambda_eff, Gamma1 + 2*q*m*S0, q, V0_eff) of level_chain: everything level
# n needs except n, computed once per parameter point.
LevelChain = tuple[complex, complex, complex, float, complex]


class Superpotential(NamedTuple):
    """Ansatz superpotential W(x) = -nu*k/(1 - q*k) + mu, held as its coefficients.

    Level n of the chain is W_n, nu = rho_n and mu = mu_n(E); its partner pair
    W_n^2 -+ W_n' carries the level energy eps_n = -mu_n^2.  riccati_check
    compares W_n^2 -+ W_n' as quadratics in u = k/(1 - q*k), and
    ground_state_from_W samples exp(-integral W) on a grid.
    """

    nu: complex
    mu: complex
    lambda_eff: complex
    q: float

    @property
    def epsilon(self) -> complex:
        # Defined as -mu^2; keeping it derived makes the coupling identity exact.
        return -(self.mu * self.mu)


def solve_nu1(gamma1: complex, q: float, lambda_eff: complex, *, root: int = +1) -> complex:
    """Nonzero root of nu^2 - q*lambda_eff*nu - gamma1 = 0.

    The default takes the +sqrt branch, nu1 = [q*lambda_eff + sqrt((q*lambda_eff)^2
    + 4*gamma1)]/2, which keeps the ground state normalizable for q > 0 and
    gamma1 >= 0.  root=-1 selects the mirror branch (used to keep VI -> -VI runs
    antilinearly paired on the non-Hermitian branch).
    """
    if q == 0:
        raise ParameterError("q", "q must be nonzero")
    qle = q * lambda_eff
    disc = cmath.sqrt(qle * qle + 4.0 * gamma1)
    nu1 = 0.5 * (qle + root * disc)
    scale = max(abs(qle), abs(disc), 1.0)
    if abs(nu1) < 1e-14 * scale:
        raise DegenerateRootError(
            "selected root nu1 = 0; the factorization ansatz degenerates "
            "(gamma1 = 0 with the vanishing root)"
        )
    return complex(nu1)


def level_chain(p: PotentialParams) -> LevelChain:
    """Solve for nu1 and collect the terms of the chain that do not depend on n."""
    gamma1, lambda_eff = p.gamma1, p.lambda_eff
    if p.branch is Branch.HERMITIAN:
        qlam = p.q * p.lam
        if qlam * qlam + 4.0 * gamma1.real < 0.0:
            raise ComplexLevelError(
                f"Gamma1 = {gamma1.real:g} is below the Hermitian discriminant bound "
                f"-(q*lam)^2/4 = {-0.25 * qlam * qlam:g}; nu1 would be complex"
            )
    # For VI < 0 the problem is the antilinear mirror of the VI > 0 one; taking the
    # mirror root makes the two runs exact complex conjugates of each other.
    root = -1 if (p.branch is Branch.NON_HERMITIAN and p.VI < 0) else +1
    nu1 = solve_nu1(gamma1, p.q, lambda_eff, root=root)
    return nu1, p.q * lambda_eff, gamma1 + 2.0 * p.q * p.m * p.S0, p.q, p.v0_eff


def chain_coefficients(chain: LevelChain, n: int) -> Coefficients:
    """(rho_n, a, b) of level n >= 0 from level_chain(p); see level_coefficients."""
    nu1, step, num0, q, v0_eff = chain
    rho = nu1 + n * step
    if abs(rho) < 1e-14 * max(1.0, abs(nu1)):
        raise ZeroNuError(f"rho_{n} = 0; level data undefined")
    denom = 2.0 * q * rho
    if denom == 0:
        raise ZeroNuError(f"2*q*rho_{n} underflows to 0 at q = {q:g}; level data undefined")
    a = (num0 - rho * rho) / denom
    return complex(rho), complex(a), complex(v0_eff / rho)


def level_coefficients(p: PotentialParams, n: int) -> Coefficients:
    """(rho_n, a, b): rho_n = nu1 + n*q*lambda_eff and mu_n(E) = a + b*E at level n.

    Inserting Gamma2(E) = 2*(m*S0 + E*V0_eff) into mu_n gives
    a = (Gamma1 + 2*q*m*S0 - rho_n^2) / (2*q*rho_n) and b = V0_eff / rho_n.
    A solve over many levels computes :func:`level_chain` once and calls
    :func:`chain_coefficients` per level, which is the same arithmetic.
    """
    return chain_coefficients(level_chain(p), level_index(n))


def level_index(n: int, name: str = "n") -> int:
    """n as a Python int; ParameterError(name) unless it is an integer >= 0."""
    try:
        index = operator.index(n)
    except TypeError:
        index = -1
    if index < 0:
        raise ParameterError(name, f"{name} must be an integer >= 0, got {n!r}")
    return index


def level(p: PotentialParams, E: complex, n: int) -> Superpotential:
    """Superpotential W_n of the chain at trial energy E: nu = rho_n, mu = mu_n(E).

    mu_n(E) = a + b*E must be real on the Hermitian branch; a complex one raises
    ComplexLevelError.  A non-finite E raises ParameterError("E").
    """
    if not cmath.isfinite(E):
        raise ParameterError("E", f"trial energy E must be finite, got {E}")
    rho, a, b = level_coefficients(p, n)
    mu = a + b * E
    if p.branch is Branch.HERMITIAN and abs(mu.imag) > _IMAG_TOL * (1.0 + abs(rho) + abs(mu)):
        raise ComplexLevelError(
            f"trial energy E = {E} makes mu_{n} complex on the Hermitian branch"
        )
    return Superpotential(nu=rho, mu=complex(mu), lambda_eff=p.lambda_eff, q=p.q)


def _partner_terms(w: Superpotential, sign: int) -> tuple[list[complex], ...]:
    """Terms of the u^2, u^1 and u^0 coefficients of W^2 + sign*W', with W' = nu*lambda_eff*(u + q*u^2)."""
    nu, mu, lam = w.nu, w.mu, w.lambda_eff
    return [nu * nu, sign * w.q * nu * lam], [-2.0 * nu * mu, sign * nu * lam], [mu * mu]


def riccati_check(
    p: PotentialParams, E: complex, n: int, *, mu_perturbation: complex = 0.0
) -> tuple[float, float, bool]:
    """(residual, scale, ok) of W_n^2 - W_n' = V(n) - eps_n, ok meaning residual < RICCATI_TOL * scale.

    V(n) is V_eff = Gamma1*u^2 - Gamma2(E)*u for n = 0, else W_{n-1}^2 + W_{n-1}' + eps_{n-1}, the
    partner of the previous member, whose ground level sits at eps_n.  Both sides are quadratics in
    u = k/(1 - q*k): the residual is the largest defect of their u^2, u^1 and u^0 coefficients, the
    scale 1 + the largest modulus of a term in one.  mu_perturbation offsets mu_n first (verify
    --perturb-mu); a non-finite one raises ParameterError("mu_perturbation").
    """
    if not cmath.isfinite(mu_perturbation):
        raise ParameterError("mu_perturbation", f"mu_perturbation must be finite, got {mu_perturbation}")
    w = level(p, E, n)
    w = w._replace(mu=w.mu + mu_perturbation)
    lhs = _partner_terms(w, -1)
    if n == 0:
        rhs = [p.gamma1], [-gamma2(p, E)], []
    else:
        w_prev = level(p, E, n - 1)
        rhs = _partner_terms(w_prev, +1)
        rhs[2].append(w_prev.epsilon)
    rhs[2].append(-w.epsilon)
    res = max(abs(sum(left) - sum(right)) for left, right in zip(lhs, rhs))
    scale = 1.0 + max(abs(t) for terms in (*lhs, *rhs) for t in terms)
    return res, scale, res < RICCATI_TOL * scale
