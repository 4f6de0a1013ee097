"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import numpy as np
import pytest

import kg_hierarchy as kg
from kg_hierarchy import Branch, LevelFlag, OracleConfig, PotentialParams
from kg_hierarchy.cli import main

from pathlib import Path

from conftest import SET_A, SET_B, SET_C, params
from test_hierarchy import LADDER_TOL, chain_epsilons, discretized_ladder
from test_oracle import SET_D
from test_spectra import quadratic_oracle_roots, solved_levels

DATA = Path(__file__).parent / "data"

RICCATI_TOL = 1e-10
RICCATI_SCALE_BOUND = 1e3
ORACLE_REL_TOL = 1e-3
CLOSED_FORM_TOL = 1e-12
PAIR_CONJ_TOL = 1e-12


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_riccati_identity_suite():
    """Scaled Riccati coefficient defect < 1e-10 at every solved level, all branches, at a scale < 1e3."""
    worst = 0.0
    worst_tag = ""
    for name, base in [("A", SET_A), ("B", SET_B), ("C", SET_C)]:
        for branch, vi in [
            (Branch.HERMITIAN, 0.0),
            (Branch.PT_SYMMETRIC, 0.0),
            (Branch.NON_HERMITIAN, 0.1),
        ]:
            p = params(base, branch=branch, VI=vi)
            if branch is Branch.HERMITIAN:
                levels = kg.spectrum(p, 8)
            else:
                levels = [lv for n in range(4) for lv in kg.solve_level(p, n)]
            assert levels or branch is not Branch.HERMITIAN
            for lv in levels:
                res, scale, ok = kg.riccati_check(p, lv.E, lv.n)
                # A scale of 1e12 once let a defect of 1e-3 pass next to the pole.
                assert scale < RICCATI_SCALE_BOUND, f"{name}/{branch.value} n={lv.n}: scale {scale:.2e}"
                scaled = res / scale
                if scaled > worst:
                    worst, worst_tag = scaled, f"{name}/{branch.value} n={lv.n}"
                assert ok, f"{name}/{branch.value} n={lv.n}: {scaled:.2e}"
    _report("Riccati identity suite (sets A,B,C x 3 branches)", worst < RICCATI_TOL,
            f"worst scaled residual {worst:.2e} at {worst_tag}")


def test_oracle_agreement_hermitian():
    """Analytic spectra match the finite-difference verifier to 1e-3 relative,
    with the error improving under grid refinement."""
    worst_overall = 0.0
    details = []
    for name, base in [("A", SET_A), ("B", SET_B), ("C", SET_C)]:
        p = params(base)
        levels = kg.spectrum(p, 8)
        report = kg.compare(p, levels, OracleConfig())
        assert report.ok, f"set {name}: worst rel diff {report.worst_rel_diff:.2e}"
        worst_overall = max(worst_overall, report.worst_rel_diff)
        details.append(f"{name}:{report.worst_rel_diff:.1e}")
        # Refinement: re-run the worst level on a doubled grid; with a 4th-order
        # stencil the discretization part of the diff must clearly shrink.
        worst_row = max((r for r in report.rows if r.rel_diff is not None), key=lambda r: r.rel_diff)
        if worst_row.rel_diff > 1e-6:
            fine = kg.compare(
                p,
                [lv for lv in levels if lv.n == worst_row.n and abs(lv.E - worst_row.E_analytic) < 1e-12],
                OracleConfig(n_points=8000),
            )
            assert fine.worst_rel_diff < worst_row.rel_diff / 2.0, (
                f"set {name} n={worst_row.n}: {worst_row.rel_diff:.2e} -> {fine.worst_rel_diff:.2e}"
            )
    _report("Oracle agreement (Hermitian, sets A,B,C, default grids)",
            worst_overall < ORACLE_REL_TOL, "worst rel diff " + ", ".join(details))


def test_hierarchy_ladder_of_discretized_spectra():
    """At E0, the largest level-0 root, the oracle's H(E0) at 4000 points has the
    levels -mu_k(E0)^2 with Re mu_k > 0 to 3e-5 on sets A-D, and a chain step
    q*lambda_eff off by 1e-3 moves some k >= 1 by more than 1e-4 on each."""
    worst, weakest = 0.0, np.inf
    for base in (SET_A, SET_B, SET_C, SET_D):
        p = params(base)
        E0, eigs = discretized_ladder(p)
        eps = np.array([kg.level(p, E0, k).epsilon for k in range(eigs.size)])
        worst = max(worst, float(np.max(np.abs(eigs - eps))))
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            moved = np.abs(eigs - chain_epsilons(p, E0, eigs.size, factor))[1:]
            weakest = min(weakest, float(np.max(moved)))
    _report("Hierarchy ladder of discretized spectra (sets A-D, E0, 4000 points)",
            worst < LADDER_TOL and weakest > 1e-4,
            f"worst |eig_k + mu_k^2| {worst:.2e}; step off by 1e-3 moves {weakest:.2e}")


def test_closed_form_regression():
    """Iterative solver vs explicit formulas: V0_eff = 0 square-root form and the
    S0 = V0 quadratic, both to 1e-12."""
    worst = 0.0
    p_a = params(SET_A)
    for n in range(4):
        mu = kg.level(p_a, 0.0, n).mu.real
        ref = np.sqrt(p_a.m ** 2 - mu * mu)
        got = sorted(lv.E.real for lv in kg.solve_level(p_a, n))
        worst = max(worst, abs(got[0] + ref) / ref, abs(got[1] - ref) / ref)
    p_b = params(SET_B)
    for n in range(4):
        ref_roots = quadratic_oracle_roots(1.0, 0.25, 0.2, 1.0, n)
        got = sorted(lv.E.real for lv in kg.solve_level(p_b, n))
        assert len(got) == len(ref_roots)
        worst = max(worst, max(abs(g - r) for g, r in zip(got, ref_roots)))
    _report("Closed-form regression (V0_eff=0 and S0=V0 oracles)",
            worst < CLOSED_FORM_TOL, f"worst deviation {worst:.2e}")


def test_pair_and_conjugation_properties():
    """Flipping the sign of VI conjugates the solved root sets to 1e-12."""
    worst = 0.0
    for base in (SET_A, SET_B, SET_C):
        p_plus = params(base, branch=Branch.NON_HERMITIAN, VI=+0.1)
        p_minus = params(base, branch=Branch.NON_HERMITIAN, VI=-0.1)
        for n in range(3):
            key = lambda z: (round(z.real, 8), round(z.imag, 8))
            r_minus = sorted((lv.E for lv in kg.solve_level(p_minus, n)), key=key)
            r_conj = sorted((lv.E.conjugate() for lv in kg.solve_level(p_plus, n)), key=key)
            assert len(r_minus) == len(r_conj)
            worst = max(worst, max(abs(a - b) for a, b in zip(r_minus, r_conj)))
    _report("VI-conjugation of complex-branch solutions",
            worst < PAIR_CONJ_TOL, f"worst conjugation defect {worst:.2e}")


def test_limit_behavior():
    """q = 0 rejected at construction; ground energy continuous across the
    deformation sweep; the plain (q=1) and VI=0 degeneracies hold exactly."""
    with pytest.raises(ValueError):
        PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=0.0, m=1.0)
    qs = np.linspace(0.5, 1.5, 21)
    e0 = []
    for q in qs:
        p = params(dict(V0=0.0, S0=1.0, lam=0.2, q=float(q), m=1.0))
        e0.append([lv.E.real for lv in kg.solve_level(p, 0) if lv.E.real > 0][0])
    steps = np.abs(np.diff(np.asarray(e0)))
    smooth = steps.max() <= 10.0 * np.median(steps)
    # q = 1 sits inside the sweep and matches a direct solve exactly.
    p1 = params(SET_A)
    direct = [lv.E.real for lv in kg.solve_level(p1, 0) if lv.E.real > 0][0]
    hits_q1 = abs(e0[10] - direct) == 0.0
    degenerate = all(
        solved_levels(params(base, branch=Branch.PT_SYMMETRIC), n)
        == solved_levels(params(base, branch=Branch.NON_HERMITIAN, VI=0.0), n)
        for base in (SET_A, SET_B, SET_C)
        for n in range(3)
    )
    _report("Limit behavior (q=0 rejection, q-sweep continuity, degeneracies)",
            smooth and hits_q1 and degenerate,
            f"max/median sweep step {steps.max() / np.median(steps):.2f}")


def test_cli_determinism_and_exit_codes(tmp_path):
    """Golden-file spectrum CSV for set A; corrupted-mu verify exits nonzero."""
    golden = (DATA / "golden_spectrum_set_a.csv").read_bytes()
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = main(["spectrum", "--config", str(DATA / "set_a.cfg"), "--output", str(out1)])
    rc2 = main(["spectrum", "--config", str(DATA / "set_a.cfg"), "--output", str(out2)])
    byte_identical = out1.read_bytes() == out2.read_bytes() == golden
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 1\noracle.n_points = 1200\n")
    rc_ok = main(["verify", "--config", str(cfg)])
    rc_bad = main(["verify", "--config", str(cfg), "--perturb-mu", "1e-3"])
    weak = tmp_path / "weak.cfg"
    weak.write_text("V0 = 0.001\nS0 = 0.001\nlambda = 5\nq = 1\nm = 1\n")
    rc_weak = main(["spectrum", "--config", str(weak)])
    ok = (rc1 == rc2 == 0) and byte_identical and rc_ok == 0 and rc_bad != 0 and rc_weak == 2
    _report("CLI determinism and exit-code contract", ok,
            f"golden bytes match; verify rc={rc_ok}, corrupted rc={rc_bad}, no-root rc={rc_weak}")
