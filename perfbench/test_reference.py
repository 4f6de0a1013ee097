"""Tests of the benchmark's independent reference (run: python3 -m pytest perfbench)."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

import reference as ref

SET_A = dict(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
SET_B = dict(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0)
SET_C = dict(V0=0.3, S0=0.5, lam=0.25, q=0.8, m=1.0)


def mu_explicit(p: ref.Params, n: int) -> complex:
    """mu_n with V0_eff = 0 written out: Gamma2 = 2*m*S0 does not depend on E."""
    qle = p.q * p.lam_eff
    rho = (qle + cmath.sqrt(qle * qle + 4.0 * p.S0 * p.S0)) / 2.0 + n * qle
    return (p.S0 * p.S0 + 2.0 * p.q * p.m * p.S0 - rho * rho) / (2.0 * p.q * rho)


@pytest.mark.parametrize("branch", ["Hermitian", "PTSymmetric"])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.5])
def test_explicit_form_when_v0_is_zero(branch, q):
    p = ref.Params(**dict(SET_A, q=q), branch=branch)
    for n in range(6):
        mu = mu_explicit(p, n)
        E = cmath.sqrt(p.m * p.m - mu * mu)
        expected = sorted({E, -E}, key=lambda e: (e.real, e.imag))
        if branch == "Hermitian":
            expected = [e for e in expected if e.imag == 0.0 and abs(e.real) < p.m]
        roots = ref.level_roots(p, n)
        assert len(roots) == len(expected)
        for r, e in zip(roots, expected):
            assert abs(r.E - e) <= 1e-13 * max(1.0, abs(e))
            assert abs(r.mu - mu) <= 1e-13 * max(1.0, abs(mu))


@pytest.mark.parametrize("s,q", [(0.25, 1.0), (0.25, 2.0), (0.6, 0.7), (1.2, 1.5)])
def test_equal_scalar_and_vector_family(s, q):
    """S0 = V0 = s: Gamma1 = 0, rho_n = (n+1) q lam, and with y = m + E the level
    condition reads (1 + alpha^2) y^2 - 2 (m + s/2q) y + beta^2 = 0,
    alpha = s/rho_n, beta = rho_n/(2q)."""
    p = ref.Params(V0=s, S0=s, lam=0.2, q=q, m=1.0)
    for n in range(6):
        rho = (n + 1) * q * p.lam
        alpha, beta, c = s / rho, rho / (2.0 * q), p.m + s / (2.0 * q)
        disc = c * c - (1.0 + alpha * alpha) * beta * beta
        ys = [] if disc < 0 else [(c - math.sqrt(disc)) / (1 + alpha**2), (c + math.sqrt(disc)) / (1 + alpha**2)]
        expected = sorted(y - p.m for y in ys if -p.m < y - p.m < p.m)
        roots = ref.level_roots(p, n)
        assert [r.n for r in roots] == [n] * len(expected)
        for r, e in zip(roots, expected):
            assert abs(r.E.real - e) <= 1e-12 and r.E.imag == 0.0
            assert abs(r.mu - (alpha * (p.m + e) - beta)) <= 1e-12


def test_set_b_has_the_exact_level_one_root():
    # rho_1 = 0.4: E = 3/5 and mu = 4/5 solve E^2 - m^2 + mu^2 = 0 exactly.
    roots = ref.level_roots(ref.Params(**SET_B), 1)
    assert abs(roots[1].E - 0.6) < 1e-15 and abs(roots[1].mu - 0.8) < 1e-15


def random_params(rng: random.Random) -> ref.Params:
    branch = rng.choice(ref.BRANCHES)
    return ref.Params(
        V0=rng.uniform(0.0, 0.5), S0=rng.uniform(0.3, 1.2), lam=rng.uniform(0.1, 0.4),
        q=rng.uniform(0.3, 3.0), m=1.0, branch=branch,
        VI=rng.uniform(-0.2, 0.2) if branch == "NonHermitian" else 0.0,
    )


def test_roots_solve_the_level_condition():
    rng = random.Random(0)
    for _ in range(300):
        p = random_params(rng)
        for r in ref.spectrum(p, 8):
            assert ref.residual(p, r) < 1e-12 * max(1.0, abs(r.E) ** 2)
            a, b, rho = ref.level_coefficients(p, r.n)
            assert r.mu == a + b * r.E and r.nu == rho


def test_spectrum_follows_the_normalizability_rule():
    rng = random.Random(1)
    for _ in range(300):
        p = random_params(rng)
        levels = ref.spectrum(p, 8)
        ns = sorted({r.n for r in levels})
        assert ns == list(range(len(ns)))
        for n in ns:
            assert max(r.mu.real for r in levels if r.n == n) > 0.0
        if len(ns) < 9:
            stop = ref.level_roots(p, len(ns))
            assert not stop or max(r.mu.real for r in stop) <= 0.0


def test_canonical_level_counts():
    # Set A: E = +/- sqrt(1 - mu_n^2) while mu_n > 0, which holds for n = 0..3.
    assert [r.n for r in ref.spectrum(ref.Params(**SET_A), 8)] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert len(ref.spectrum(ref.Params(**SET_B), 8)) == 8
    assert ref.spectrum(ref.Params(**SET_B, branch="PTSymmetric"), 8) == []


def test_vi_sign_flip_conjugates_the_roots():
    # The VI -> -VI problem is the antilinear mirror image (the mirror nu1 root).
    for q in (0.8, 1.0, 2.0):
        plus = ref.Params(**dict(SET_C, q=q), VI=0.1, branch="NonHermitian")
        minus = ref.Params(**dict(SET_C, q=q), VI=-0.1, branch="NonHermitian")
        for n in range(9):
            mirrored = [r.E.conjugate() for r in ref.level_roots(plus, n)]
            roots = [r.E for r in ref.level_roots(minus, n)]
            assert len(roots) == len(mirrored) == 2
            for e in mirrored:
                assert min(abs(e - r) for r in roots) < 1e-12


@pytest.mark.parametrize("branch", ref.BRANCHES)
def test_psi_is_the_ground_state_of_its_superpotential(branch):
    """d/dx log psi = nu*u - mu = -W with u = k/(1 - q*k), and psi is normalized."""
    p = ref.Params(**SET_C, VI=0.1 if branch == "NonHermitian" else 0.0, branch=branch)
    x = np.linspace(p.domain_start() + 1.0, 20.0, 4001)
    h = x[1] - x[0]
    for r in [r for r in ref.spectrum(p, 8) if r.normalizable][:4]:
        psi = ref.psi(p, r, x)
        logd = (psi[:-4] - 8 * psi[1:-3] + 8 * psi[3:-1] - psi[4:]) / (12 * h) / psi[2:-2]
        k = np.exp(-p.lam_eff * x[2:-2])
        minus_w = r.nu * k / (1.0 - p.q * k) - r.mu
        assert np.max(np.abs(logd - minus_w)) < 1e-6 * max(1.0, np.max(np.abs(minus_w)))
        if branch == "Hermitian":
            assert abs(h * np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12
        else:
            assert abs(np.max(np.abs(psi)) - 1.0) < 1e-12
