"""Hermitian energies against 50-digit roots of the level quadratic.

The reference builds the chain of the paper in mpmath from the float inputs,

    nu1 = (q*lam + sqrt((q*lam)^2 + 4*Gamma1))/2,   rho_n = nu1 + n*q*lam,
    a_n = (Gamma1 + 2*q*m*S0 - rho_n^2)/(2*q*rho_n),   b_n = V0/rho_n,

and solves (1 + b^2)E^2 + 2abE + (a^2 - m^2) = 0 exactly.  Beside each value it
carries a first-order bound on the rounding error of the float evaluation of the
same expression, so a root's tolerance is a few rounding units times its
condition number, not a fixed number.
"""

import csv
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kg_hierarchy as kg

mpmath = pytest.importorskip("mpmath")

MP = mpmath.MPContext()
MP.dps = 50
U = 2.0**-53  # unit roundoff of float64
GOLDEN = Path(__file__).parent / "data" / "golden_spectrum_set_a.csv"


class Rounded:
    """An exact value and a first-order bound on the error of computing it in floats."""

    def __init__(self, value, err=0):
        self.v, self.e = MP.mpf(value), MP.mpf(err)

    @staticmethod
    def lift(x) -> "Rounded":
        return x if isinstance(x, Rounded) else Rounded(x)

    def rounded(self, value, err) -> "Rounded":
        # The float operation adds one rounding of its result.
        return Rounded(value, err + U * abs(value))

    def __add__(self, other):
        other = Rounded.lift(other)
        return self.rounded(self.v + other.v, self.e + other.e)

    __radd__ = __add__

    def __sub__(self, other):
        other = Rounded.lift(other)
        return self.rounded(self.v - other.v, self.e + other.e)

    def __mul__(self, other):
        other = Rounded.lift(other)
        return self.rounded(self.v * other.v, abs(self.v) * other.e + abs(other.v) * self.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Rounded.lift(other)
        value = self.v / other.v
        return self.rounded(value, (self.e + abs(value) * other.e) / abs(other.v))

    def sqrt(self) -> "Rounded":
        value = MP.sqrt(self.v)
        return self.rounded(value, self.e / (2 * value))


def nearest(x) -> float:
    """x rounded to the nearest double."""
    return mpmath.libmp.to_float(x._mpf_, rnd="n")


def reference_spectrum(V0: float, S0: float, lam: float, q: float, m: float, n_max: int):
    """(n, E, tolerance) of every bound level up to spectrum's stop rule, or "ComplexLevelError".

    Calls assume(False) where rounding can decide the outcome: a discriminant,
    Re(mu) or a root's distance to the threshold band within its error bound.
    """
    V0, S0, lam, q, m = map(Rounded, (V0, S0, lam, q, m))
    g1 = S0 * S0 - V0 * V0
    qlam = q * lam
    disc = qlam * qlam + 4.0 * g1
    assume(abs(disc.v) > 8 * disc.e)
    if disc.v < 0:
        return "ComplexLevelError"
    nu1 = 0.5 * (qlam + disc.sqrt())
    num0 = g1 + 2.0 * q * m * S0
    edge = m.v * (1 - 8 * MP.mpf(U))
    out = []
    for n in range(n_max + 1):
        rho = nu1 + n * qlam
        a, b = (num0 - rho * rho) / (2.0 * q * rho), V0 / rho
        A, h, C = 1 + b.v * b.v, a.v * b.v, a.v * a.v - m.v * m.v
        scale = A * (1 + m.v * m.v) + a.v * a.v + m.v * m.v
        # A discriminant that rounding, or the 1e-12 slack of the vertex test, could flip.
        assume(abs(h * h - A * C) / A > 1e-11 * scale)
        level = []
        if h * h > A * C:
            sq = MP.sqrt(h * h - A * C)
            for E in ((-h - sq) / A, (-h + sq) / A):
                mu = a.v + b.v * E
                slope = abs(2 * (A * E + h))
                size = A * E * E + 2 * abs(h * E) + a.v * a.v + m.v * m.v
                tol = 4 * (2 * abs(mu) * (a.e + abs(E) * b.e) + 8 * U * size) / slope
                assume(abs(abs(E) - edge) > tol)
                assume(abs(mu) > 4 * (a.e + abs(E) * b.e + abs(b.v) * tol))
                if abs(E) < edge:
                    level.append((n, E, tol, mu > 0))
        if not any(bound for *_, bound in level):
            break
        out += [(n, E, tol) for n, E, tol, _ in level]
    return out


@st.composite
def hermitian_points(draw) -> dict:
    return dict(
        V0=draw(st.floats(0.0, 0.6)),
        S0=draw(st.floats(0.1, 1.5)),
        lam=draw(st.floats(0.05, 0.5)),
        q=draw(st.floats(0.3, 5.0)),
        m=1.0,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hermitian_points())
@example(dict(V0=0.0, S0=1.0, lam=0.2, q=3.603971527, m=1.0))  # level 2 at E = +/-(1 - 6.2e-13)
@example(dict(V0=0.25, S0=0.25, lam=0.2, q=0.694443691, m=1.0))  # level 5 at E = 1 - 2.1e-13
def test_spectrum_lists_the_exact_bound_roots(point):
    expected = reference_spectrum(**point, n_max=8)
    p = kg.PotentialParams(**point)
    if expected == "ComplexLevelError":
        with pytest.raises(kg.ComplexLevelError):
            kg.spectrum(p, 8)
        return
    got = kg.spectrum(p, 8)
    assert [lv.n for lv in got] == [n for n, _, _ in expected]
    for lv, (n, E, tol) in zip(got, expected):
        assert lv.E.imag == 0.0
        assert abs(lv.E.real - E) <= tol, (n, lv.E.real, MP.nstr(E, 20), MP.nstr(tol, 3))


def test_golden_energies_are_correctly_rounded():
    # Set A has V0 = 0, so mu = a and each root is E = +/-sqrt(m^2 - mu^2), m = 1.
    with GOLDEN.open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    for row in rows:
        E, mu = float(row["re_E"]), MP.mpf(float(row["re_mu"]))
        assert E == nearest(MP.sqrt(1 - mu * mu)) * (1.0 if E > 0 else -1.0), row
