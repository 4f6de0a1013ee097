"""Input generator: writes the config files each workload hands to kg-hierarchy.

    python3 perfbench/inputs.py --workload analytic --seed 7 --out DIR

writes the files into DIR and prints the operation list (JSON) that the
benchmark runs.  The parameter sets are fixed; only the sweep q-values depend
on the seed.  The same workload and seed always give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# The canonical Hermitian sets of the test suite, plus the pole-wall set D
# (q = 3 puts the left wall of the oracle box on the deformation pole ln(3)/lam).
SETS = {
    "A": dict(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0),
    "B": dict(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0),
    "C": dict(V0=0.3, S0=0.5, lam=0.25, q=0.8, m=1.0),
    "D": dict(V0=0.3, S0=0.5, lam=0.25, q=3.0, m=1.0),
}
VI_COMPLEX = 0.1
N_MAX = 8

# Sweeps: (set, branch, VI, q range).  Every q in a range has a bound ground
# level, and there the program's level list matches the reference row for row.
# Set C on the NonHermitian branch is kept inside [0.75, 4.5]: below q ~ 0.55 and
# above q ~ 4.8 both Newton seeds land on one root and a bound root is dropped.
SWEEPS = [
    ("A", "Hermitian", 0.0, (0.5, 4.0)),
    ("B", "Hermitian", 0.0, (0.5, 4.0)),
    ("C", "NonHermitian", VI_COMPLEX, (0.75, 4.5)),
]
SWEEP_POINTS = 2000
SWEEP_JOBS = (1, 2)

# spectrum/wavefunction cases: every set and branch with a bound level at n = 0
# (PTSymmetric set B has none; the CLI exits 2 there, as documented).
SHORT_CASES = [
    (s, b, VI_COMPLEX if b == "NonHermitian" else 0.0)
    for s in ("A", "B", "C")
    for b in ("Hermitian", "PTSymmetric", "NonHermitian")
    if (s, b) != ("B", "PTSymmetric")
]

VERIFY_SETS = ("A", "B", "C")

# Refine: level-0 roots of set B (E-dependent ghost-point closure) and set D
# (pole wall).  n_points doubles from LADDER_START until the worst oracle root of
# the set is within the target of the reference root.  Each target sits between
# the errors of two successive grids (set B: 1.1e-4 at 4000, 1.5e-5 at 8000;
# set D: 9.7e-4 at 4000, 3.5e-4 at 8000), so the stopping grid cannot flip.
REFINE = [("B", 4e-5), ("D", 6e-4)]
LADDER_START = 1000
LADDER_MAX = 16000


def params(set_name: str, branch: str = "Hermitian", VI: float = 0.0) -> dict:
    return dict(SETS[set_name], VI=VI, branch=branch)


def config_text(p: dict, extra: dict | None = None) -> str:
    lines = [
        f"V0 = {p['V0']!r}",
        f"S0 = {p['S0']!r}",
        f"lambda = {p['lam']!r}",
        f"q = {p['q']!r}",
        f"m = {p['m']!r}",
        f"branch = {p['branch']}",
        f"n_max = {N_MAX}",
    ]
    if p["VI"]:
        lines.append(f"VI = {p['VI']!r}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def sweep_values(seed: int, index: int, lo: float, hi: float) -> list[float]:
    """SWEEP_POINTS distinct q-values, uniform in [lo, hi], in drawing order."""
    rng = random.Random(f"{seed}:sweep:{index}")
    values: dict[float, None] = {}
    while len(values) < SWEEP_POINTS:
        values[round(rng.uniform(lo, hi), 9)] = None
    return list(values)


def write_inputs(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's files into out; return its operations, in run order."""
    out.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []

    def cfg_file(name: str, p: dict, extra: dict | None = None) -> str:
        path = out / name
        path.write_text(config_text(p, extra))
        return str(path)

    if workload == "verify":
        for s in VERIFY_SETS:
            p = params(s)
            ops.append({"kind": "verify", "case": s, "params": p,
                        "argv": ["verify", "--config", cfg_file(f"verify_{s}.cfg", p)]})
    elif workload == "analytic":
        for i, (s, branch, VI, (lo, hi)) in enumerate(SWEEPS):
            p = params(s, branch, VI)
            values = sweep_values(seed, i, lo, hi)
            extra = {"sweep_key": "q", "sweep_values": ", ".join(repr(v) for v in values)}
            path = cfg_file(f"sweep_{s}_{branch}.cfg", p, extra)
            for jobs in SWEEP_JOBS:
                ops.append({"kind": "sweep", "case": f"{s}/{branch}", "params": p, "values": values,
                            "jobs": jobs, "argv": ["sweep", "--config", path, "--jobs", str(jobs)]})
        for s, branch, VI in SHORT_CASES:
            p = params(s, branch, VI)
            path = cfg_file(f"short_{s}_{branch}.cfg", p)
            case = f"{s}/{branch}"
            for fmt in ("csv", "json"):
                ops.append({"kind": "spectrum", "case": case, "params": p, "fmt": fmt,
                            "argv": ["spectrum", "--config", path, "--format", fmt]})
            ops.append({"kind": "wavefunction", "case": case, "params": p,
                        "argv": ["wavefunction", "--config", path]})
    elif workload == "refine":
        spec = {"ladder_start": LADDER_START, "ladder_max": LADDER_MAX,
                "sets": [{"case": s, "params": params(s), "target": t} for s, t in REFINE]}
        path = out / "refine.json"
        path.write_text(json.dumps(spec, indent=1) + "\n")
        ops.append({"kind": "refine", "case": "B+D", "spec": str(path)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "refine", "analytic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(json.dumps(write_inputs(args.workload, args.seed, Path(args.out)), indent=1))


if __name__ == "__main__":
    main()
