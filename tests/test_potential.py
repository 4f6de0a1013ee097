"""Potential family: construction invariants, pointwise identities, branch behavior."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kg_hierarchy as kg
from kg_hierarchy import Branch, PotentialParams
from kg_hierarchy.errors import DomainError, GammaPositivityWarning
from kg_hierarchy.potential import gamma2, kernel_and_base, screened_ratio

from conftest import SET_C, params

SRC = str(Path(kg.__file__).resolve().parent.parent)


def coupling_form(p, E, x):
    """(V, S, V_eff) from the Lorentz vector/scalar split: V = -V0_eff*u and S = -S0*u
    with u = k/(1 - q*k), and V_eff = (S^2 - V^2) + 2(m*S + E*V), the coupling form
    that the library's Gamma form must equal."""
    u = screened_ratio(p.q, p.lambda_eff, x)
    v, s = -p.v0_eff * u, -p.S0 * u
    return v, s, (s * s - v * v) + 2.0 * (p.m * s + E * v)


class TestConstruction:
    def test_q_zero_rejected(self):
        with pytest.raises(ValueError, match="q must be nonzero"):
            PotentialParams(V0=1.0, S0=1.0, lam=0.2, q=0.0, m=1.0)

    @pytest.mark.parametrize("field,value", [("lam", 0.0), ("lam", -0.5), ("m", 0.0), ("m", -1.0)])
    def test_positive_scale_parameters(self, field, value):
        kwargs = dict(V0=1.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            PotentialParams(**kwargs)

    def test_vi_requires_nonhermitian_branch(self):
        with pytest.raises(ValueError, match="VI"):
            PotentialParams(V0=1.0, S0=1.0, lam=0.2, q=1.0, m=1.0, VI=0.1)
        with pytest.raises(ValueError, match="VI"):
            PotentialParams(V0=1.0, S0=1.0, lam=0.2, q=1.0, m=1.0, VI=0.1, branch=Branch.PT_SYMMETRIC)
        PotentialParams(V0=1.0, S0=1.0, lam=0.2, q=1.0, m=1.0, VI=0.1, branch=Branch.NON_HERMITIAN)

    def test_gamma1_nonpositive_warns_not_raises(self):
        with pytest.warns(GammaPositivityWarning):
            PotentialParams(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0)
        with pytest.warns(GammaPositivityWarning):
            PotentialParams(V0=0.5, S0=0.25, lam=0.2, q=1.0, m=1.0)

    def test_gamma1_warning_names_the_caller(self):
        with pytest.warns(GammaPositivityWarning, match="V0 = 0.25, S0 = 0.25") as record:
            PotentialParams(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0)
        assert record[0].filename == __file__

    def test_gamma1_warning_through_replace_names_the_caller(self):
        base = PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
        with pytest.warns(GammaPositivityWarning, match="V0 = 1.5, S0 = 1") as record:
            base._replace(V0=1.5)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("field,value", [("q", 0.0), ("V0", float("nan"))])
    def test_replace_checks_like_the_constructor(self, field, value):
        # _replace builds the new record through _make, which runs the checks.
        base = PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
        with pytest.raises(kg.ParameterError) as info:
            base._replace(**{field: value})
        assert info.value.param == field

    def test_gamma2_warning_names_the_caller(self, tmp_path):
        # Gamma2 = 2*(m*S0 + E*V0) = -1.7 is raised three calls deep
        # (effective_potential -> gamma_form -> gamma2); with -W always the warning
        # must name the script's line, not a line of the package.
        script = tmp_path / "caller.py"
        script.write_text(
            "import numpy as np\n"
            "import kg_hierarchy as kg\n"
            "p = kg.PotentialParams(V0=0.5, S0=-1.0, lam=0.2, q=1.0, m=1.0)\n"
            "kg.effective_potential(p, 0.3, np.linspace(1.0, 2.0, 5))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "always", str(script)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if "GammaPositivityWarning" in line]
        assert len(lines) == 1 and "Gamma2" in lines[0]
        assert lines[0].startswith(f"{script}:4: ")

    def test_branch_must_be_a_branch(self):
        # The value string of Branch.HERMITIAN used to pass and be solved as a
        # complex branch (lambda_eff = 0.2j).
        for branch in ("Hermitian", None):
            with pytest.raises(kg.ParameterError, match="branch must be a Branch") as info:
                PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0, branch=branch)
            assert info.value.param == "branch"

    def test_underflowing_hierarchy_step_rejected(self):
        with pytest.raises(kg.ParameterError, match="underflows") as info:
            PotentialParams(V0=0.0, S0=1.0, lam=1e-200, q=1e-200, m=1.0)
        assert info.value.param == "q"

    @pytest.mark.parametrize("lam", [0.2, 0.25, 1.0])
    def test_box_end_is_forty_screening_lengths(self, lam):
        assert PotentialParams(V0=0.0, S0=1.0, lam=lam, q=1.0, m=1.0).box_end() == 40.0 / lam

    @pytest.mark.parametrize(
        "lam,q,fragment",
        [(1e-310, 1.0, "40/lam = inf must be finite"), (0.2, 1e18, "deformation pole at 207.233")],
        ids=["overflow", "pole-past-box"],
    )
    def test_box_end_must_be_finite_and_right_of_the_pole(self, lam, q, fragment):
        # 40/lam overflows at lam = 1e-310; at q = 1e18 the pole ln(q)/lam lies past 40/lam = 200.
        with pytest.raises(ValueError, match=fragment):
            PotentialParams(V0=0.0, S0=1.0, lam=lam, q=q, m=1.0).box_end()

    def test_domain_start_beyond_pole_for_q_above_one(self):
        p = PotentialParams(V0=1.0, S0=2.0, lam=0.5, q=2.0, m=1.0)
        x0 = np.log(2.0) / 0.5
        assert p.pole_position == pytest.approx(x0)
        assert p.domain_start() > x0

    @pytest.mark.parametrize("branch", [Branch.PT_SYMMETRIC, Branch.NON_HERMITIAN])
    def test_pole_at_pi_over_lam_for_q_minus_one(self, branch):
        # k = exp(-i*lam*x) = -1 = 1/q at x = pi/lam.
        p = params(dict(SET_C, q=-1.0), branch)
        assert p.pole_position == np.pi / p.lam
        with pytest.raises(DomainError):
            kg.effective_potential(p, 0.5, p.pole_position)


class TestDeformationKernel:
    def test_unit_at_origin(self):
        for branch in Branch:
            p = params(SET_C, branch)
            assert kernel_and_base(p.q, p.lambda_eff, 0.0)[0] == 1.0

    def test_real_decay_or_pure_phase(self):
        x = np.linspace(0.0, 50.0, 101)
        p, p_pt = params(SET_C), params(SET_C, Branch.PT_SYMMETRIC)
        k = kernel_and_base(p.q, p.lambda_eff, x)[0]
        np.testing.assert_allclose(k, np.exp(-SET_C["lam"] * x), rtol=1e-15)
        phase = kernel_and_base(p_pt.q, p_pt.lambda_eff, x)[0]
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=1e-15)


class TestVectorScalar:
    def test_zero_coupling_is_zero(self):
        p = PotentialParams(V0=0.0, S0=1.0, lam=1.0, q=1.0, m=1.0)
        assert coupling_form(p, 0.0, 3.7)[0] == 0

    def test_decay_at_infinity(self):
        p = PotentialParams(V0=1.0, S0=1.0, lam=1.0, q=1.0, m=1.0)
        assert abs(coupling_form(p, 0.0, 60.0)[0]) < 1e-15

    def test_hand_value_hulthen(self):
        # Direct evaluation: -exp(-0.2)/(1 - exp(-0.2)).
        p = PotentialParams(V0=1.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
        expected = -np.exp(-0.2) / (1.0 - np.exp(-0.2))
        got, scalar, _ = coupling_form(p, 0.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(-4.516655566126993, rel=1e-12)
        assert scalar == pytest.approx(expected, rel=1e-14)

    def test_scalar_uses_s0(self):
        p = PotentialParams(V0=0.5, S0=2.0, lam=0.3, q=0.7, m=1.0)
        x = np.linspace(0.5, 5.0, 32)
        v, s, _ = coupling_form(p, 0.0, x)
        np.testing.assert_allclose(s, 4.0 * v, rtol=1e-14)

    def test_pole_raises(self):
        p = PotentialParams(V0=1.0, S0=2.0, lam=0.5, q=2.0, m=1.0)
        with pytest.raises(DomainError):
            coupling_form(p, 0.0, np.log(2.0) / 0.5)


class TestEffectivePotential:
    def test_equal_couplings_at_negative_mass_energy_vanish(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = PotentialParams(V0=0.4, S0=0.4, lam=0.3, q=1.0, m=1.0)
        x = np.linspace(0.1, 30.0, 64)
        np.testing.assert_allclose(kg.effective_potential(p, -1.0, x), 0.0, atol=1e-15)

    def test_hand_value_at_log_two(self):
        # k = 1/2: Gamma1*k^2/(1-k)^2 - Gamma2*k/(1-k) = 1 - 2 = -1.
        p = PotentialParams(V0=0.0, S0=1.0, lam=1.0, q=1.0, m=1.0)
        assert kg.effective_potential(p, 0.0, np.log(2.0)) == pytest.approx(-1.0, abs=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(
        v0=st.floats(-1.5, 1.5),
        s0=st.floats(-1.5, 1.5),
        lam=st.floats(0.1, 2.0),
        q=st.floats(0.1, 1.5),
        m=st.floats(0.2, 2.0),
        e_re=st.floats(-1.5, 1.5),
        e_im=st.floats(-0.5, 0.5),
        t=st.floats(0.05, 0.95),
        branch=st.sampled_from(list(Branch)),
    )
    def test_gamma_form_equals_coupling_form(self, v0, s0, lam, q, m, e_re, e_im, t, branch):
        # The two displayed forms of the effective potential are one identity.
        vi = 0.1 if branch is Branch.NON_HERMITIAN else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = PotentialParams(V0=v0, S0=s0, lam=lam, q=q, m=m, VI=vi, branch=branch)
        E = complex(e_re, e_im)
        # Map t into the admissible half line (pole-free for these q ranges).
        x = p.domain_start() + 0.2 + t * 20.0 / lam
        a = kg.effective_potential(p, E, x)
        b = coupling_form(p, E, x)[2]
        assert abs(a - b) < 1e-12 * (1.0 + abs(a))

    def test_pt_branch_matches_phase_substitution(self):
        p_pt = params(SET_C, branch=Branch.PT_SYMMETRIC)
        x = np.linspace(1.0, 20.0, 200)
        k = np.exp(-1j * p_pt.lam * x)
        g1, g2 = p_pt.gamma1, gamma2(p_pt, 0.3)
        u = k / (1.0 - p_pt.q * k)
        expected = g1 * u * u - g2 * u
        np.testing.assert_allclose(kg.effective_potential(p_pt, 0.3, x), expected, rtol=1e-13)

    def test_hermitian_decay_monotone_beyond_ten_over_lambda(self):
        p = params(SET_C)
        x = np.linspace(10.0 / p.lam, 30.0 / p.lam, 200)
        mags = np.abs(kg.effective_potential(p, 0.2, x))
        assert np.all(np.diff(mags) < 0)
        assert mags[-1] < 1e-2


class TestGammas:
    def test_symmetric_couplings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = PotentialParams(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0)
        assert p.gamma1 == 0
        assert gamma2(p, 0.0) == pytest.approx(0.5)

    def test_vector_free_gamma2_energy_independent(self):
        p = PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
        assert gamma2(p, -0.7) == gamma2(p, 0.9) == 2.0

    def test_nonhermitian_complex_gamma1(self):
        p = params(SET_C, branch=Branch.NON_HERMITIAN, VI=0.1)
        # 0.25 - (0.3 + 0.1i)^2, checked by explicit complex arithmetic.
        assert p.gamma1 == pytest.approx(0.17 - 0.06j, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        e1=st.floats(-1.0, 1.0), e2=st.floats(-1.0, 1.0),
        v0=st.floats(-1.0, 1.0), s0=st.floats(-1.0, 1.0),
    )
    def test_gamma1_constant_gamma2_affine(self, e1, e2, v0, s0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = PotentialParams(V0=v0, S0=s0, lam=0.4, q=0.9, m=1.2)
        # Gamma1 is the property p.gamma1, which takes no energy.  Gamma2 is
        # affine in E: the midpoint value is the mean of the endpoint values.
        mid = gamma2(p, 0.5 * (e1 + e2))
        assert mid == pytest.approx(0.5 * (gamma2(p, e1) + gamma2(p, e2)), abs=1e-12)
