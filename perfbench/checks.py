"""Output checks: every kg-hierarchy result is compared with the reference in reference.py.

Each check returns a list of problems; an empty list means the output is right.
A problem starts with "missing" when the program left out a result that the
reference has (the emitted results are still right), and with "wrong" when an
emitted result disagrees with the reference.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import reference as ref

# Energies are compared relative to max(|E|, m): a root near E = 0 is only as
# accurate, in absolute terms, as the residual certificate |f(E)| < 1e-12 makes it.
E_REL_TOL = 1e-10  # spectrum and sweep rows against the reference roots
VERIFY_E_REL_TOL = 1e-12  # verify's E_analytic against the reference roots
ORACLE_REL_TOL = 1e-3  # verify's E_oracle against the reference roots
RESIDUAL_TOL = 1e-12
PSI_TOL = 1e-9  # wavefunction samples against the closed form, relative to max |psi|
NORM_TOL = 1e-12  # unit grid norm / unit max modulus of the emitted samples
WAVEFUNCTION_SAMPLES = 2000  # min(oracle.n_points, 2000) with the default oracle grid


def to_params(p: dict, **override) -> ref.Params:
    return ref.Params(**dict(p, **override))


def stderr_problems(err: str) -> list[str]:
    """Anything on stderr but GammaPositivityWarning lines is a problem."""
    bad = [ln for ln in err.splitlines() if ln.strip() and "GammaPositivityWarning" not in ln]
    return [f"stderr: {bad[0][:200]}"] if bad else []


def rows_match(rows: list[dict], expected: list[ref.Root], m: float, where: str) -> list[str]:
    """Each spectrum/sweep row must be a distinct reference root, with its mu and a small residual."""
    unmatched = list(expected)
    for row in rows:
        n = int(row["n"])
        E = complex(float(row["re_E"]), float(row["im_E"]))
        mu = complex(float(row["re_mu"]), float(row["im_mu"]))
        r = min((r for r in unmatched if r.n == n), key=lambda r: abs(r.E - E), default=None)
        if r is None or abs(E - r.E) > E_REL_TOL * max(abs(r.E), m):
            return [f"wrong: {where}: row n={n} E={E!r} is not a reference root"]
        if abs(mu - r.mu) > E_REL_TOL * max(1.0, abs(r.mu)):
            return [f"wrong: {where}: n={n} mu={mu!r} differs from reference {r.mu!r}"]
        if not float(row["residual"]) < RESIDUAL_TOL:
            return [f"wrong: {where}: n={n} residual {row['residual']} >= {RESIDUAL_TOL:g}"]
        unmatched.remove(r)
    if unmatched:
        first = unmatched[0]
        return [f"missing: {where}: {len(unmatched)} reference roots not emitted, first n={first.n} E={first.E!r}"]
    return []


def check_spectrum(op: dict, out: str) -> list[str]:
    p = to_params(op["params"])
    if op["fmt"] == "json":
        payload = json.loads(out)
        if payload.get("command") != "spectrum":
            return ["wrong: spectrum json: wrong command field"]
        rows = payload["levels"]
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
    return rows_match(rows, ref.spectrum(p, 8), p.m, f"spectrum {op['case']} {op['fmt']}")


def check_sweep(op: dict, out: str) -> list[str]:
    """Rows come in sweep order: a run of rows per swept value, matching its reference levels."""
    rows = list(csv.DictReader(io.StringIO(out)))
    start = 0
    for v in op["values"]:
        stop = start
        while stop < len(rows) and float(rows[stop]["sweep_value"]) == v:
            stop += 1
        p = to_params(op["params"], q=v)
        problems = rows_match(rows[start:stop], ref.spectrum(p, 8), p.m, f"sweep {op['case']} q={v!r}")
        if problems:
            return problems
        start = stop
    if start != len(rows):
        return [f"wrong: sweep {op['case']}: rows out of sweep order or for values not swept"]
    return []


def check_wavefunction(op: dict, out: str) -> list[str]:
    """One block of samples per normalizable level, on the CLI's grid, equal to the closed form."""
    p = to_params(op["params"])
    where = f"wavefunction {op['case']}"
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 4 or data.shape[0] % WAVEFUNCTION_SAMPLES:
        return [f"wrong: {where}: {data.shape} samples are not whole blocks of {WAVEFUNCTION_SAMPLES}"]
    x = np.linspace(p.domain_start(), 40.0 / p.lam, WAVEFUNCTION_SAMPLES)
    unmatched = [r for r in ref.spectrum(p, 8) if r.normalizable]
    for block in data.reshape(-1, WAVEFUNCTION_SAMPLES, 4):
        n = int(block[0, 0])
        if np.any(block[:, 0] != n) or np.max(np.abs(block[:, 1] - x)) > 1e-12 * x[-1]:
            return [f"wrong: {where}: a level-{n} block is not on the expected grid"]
        got = block[:, 2] + 1j * block[:, 3]
        if p.branch == ref.HERMITIAN:
            norm = np.sqrt((x[1] - x[0]) * np.sum(np.abs(got) ** 2))
        else:
            norm = np.max(np.abs(got))
        if abs(norm - 1.0) > NORM_TOL:
            return [f"wrong: {where}: level {n} samples have norm {norm!r}, not 1"]
        errors = [(float(np.max(np.abs(got - ref.psi(p, r, x)))), i) for i, r in enumerate(unmatched) if r.n == n]
        err, i = min(errors, default=(np.inf, -1))
        if not err < PSI_TOL:
            return [f"wrong: {where}: level {n} differs from the closed form by {err:.2e}"]
        del unmatched[i]
    if unmatched:
        return [f"missing: {where}: no samples for {len(unmatched)} normalizable reference roots"]
    return []


def parse_verify(out: str) -> tuple[list[list[str]], list[list[str]]]:
    """(Riccati rows, oracle rows) of the verify report."""
    riccati, oracle, section = [], [], None
    for line in out.splitlines():
        if line.startswith("Riccati residuals"):
            section = riccati
        elif line.startswith("Oracle comparison"):
            section = oracle
        elif line.startswith(("n,", "worst relative diff", "verify:")):
            continue
        elif section is not None:
            section.append(line.split(","))
    return riccati, oracle


def check_verify(op: dict, out: str) -> tuple[list[str], float]:
    """(problems, worst oracle difference from the reference)."""
    p = to_params(op["params"])
    where = f"verify {op['case']}"
    expected = ref.spectrum(p, 8)
    lines = out.splitlines()
    if not lines or lines[-1] != "verify: PASS":
        return [f"wrong: {where}: no 'verify: PASS' line"], 0.0
    riccati, oracle = parse_verify(out)
    if len(riccati) != len(expected) or len(oracle) != len(expected):
        return [f"wrong: {where}: {len(riccati)}/{len(oracle)} rows, reference has {len(expected)} levels"], 0.0
    worst = 0.0
    for rrow, orow, r in zip(riccati, oracle, expected):
        for E_text in (rrow[1], orow[1]):
            if abs(float(E_text) - r.E.real) > VERIFY_E_REL_TOL * max(abs(r.E), p.m):
                return [f"wrong: {where}: n={r.n} E_analytic {E_text} differs from reference {r.E.real!r}"], 0.0
        if rrow[-1] != "True":
            return [f"wrong: {where}: n={r.n} Riccati check not ok"], 0.0
        skipped = orow[-1] != ""
        if skipped == r.normalizable:
            return [f"wrong: {where}: n={r.n} oracle row skipped={skipped} but Re(mu)={r.mu.real:g}"], 0.0
        if skipped:
            continue
        rel = abs(float(orow[2]) - r.E.real) / abs(r.E)
        if not rel < ORACLE_REL_TOL:
            return [f"wrong: {where}: n={r.n} E_oracle {orow[2]} is {rel:.2e} from the reference"], 0.0
        worst = max(worst, rel)
    return [], worst


def check_ladder(spec_set: dict, result: dict) -> tuple[list[str], int, float]:
    """(problems, stopping grid points, worst oracle difference at the stopping grid).

    A ladder is right when its analytic roots are the reference roots and its
    last rung is the first whose every oracle root is within the target.
    """
    p = to_params(spec_set["params"])
    where = f"refine {spec_set['case']}"
    roots = ref.level_roots(p, 0)
    expected = [r for r in roots if r.normalizable]
    analytic = [complex(*e) for e in result["analytic"]]
    if len(analytic) != len(roots) or any(
        abs(e - r.E) > VERIFY_E_REL_TOL * max(abs(r.E), p.m) for e, r in zip(analytic, roots)
    ):
        return [f"wrong: {where}: level-0 roots {analytic} differ from the reference"], 0, 0.0
    errors = []
    for rung in result["rungs"]:
        if len(rung["oracle"]) != len(expected):
            return [f"wrong: {where}: rung {rung['n_points']} certified {len(rung['oracle'])} roots"], 0, 0.0
        errors.append(max(abs(e - r.E.real) / abs(r.E) for e, r in zip(rung["oracle"], expected)))
    target = spec_set["target"]
    if not errors or not errors[-1] < target or any(e < target for e in errors[:-1]):
        return [f"wrong: {where}: ladder errors {errors} do not stop at the first rung within {target:g}"], 0, 0.0
    return [], result["rungs"][-1]["n_points"], errors[-1]
