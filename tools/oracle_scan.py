"""Scan the oracle's one-shot root check over grid sizes, one summary line per set.

    PYTHONPATH=src python tools/oracle_scan.py --sets B,D --start 300 --stop 2100 --step 9

For each set (the Hermitian parameter sets A-D of perfbench/inputs.py) every
level-0 analytic root that `compare` would check is checked by
kg_hierarchy.solve_selfconsistent with OracleConfig(n_points=N), for N from
START to STOP inclusive in steps of STEP: one certified eigensolve at the root
gives the discretized root next to it.  A set's line gives the number of
checks ("solves"), the count of each error type raised (NoRootError where the local model
has no real root, NoBoundStateError where the level is not bound), the number
of checks whose relative step |E_oracle - E|/|E| is above 1e-2, the number
whose pole wall was too coarse for the closure (OracleResult.coarse_wall), and
the worst relative step with its N.  perfbench/ is only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import kg_hierarchy as kg
from kg_hierarchy.oracle import skip_reason

ROOT = Path(__file__).resolve().parents[1]
OFF = 1e-2


def benchmark_sets() -> dict[str, dict]:
    """The parameter sets of perfbench/inputs.py, by letter."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SETS


@dataclass
class Scan:
    solves: int = 0
    errors: Counter = field(default_factory=Counter)
    off: int = 0
    coarse: int = 0
    worst: float = 0.0
    worst_n: int | None = None

    def line(self, name: str) -> str:
        errors = ", ".join(f"{kind} {count}" for kind, count in sorted(self.errors.items())) or "none"
        worst = "none converged" if self.worst_n is None else f"{self.worst:.2g} at N = {self.worst_n}"
        return (
            f"{name}: {self.solves} solves, errors: {errors}, rel error > {OFF:g}: {self.off}, "
            f"coarse wall: {self.coarse}, worst: {worst}"
        )


def scan(p: kg.PotentialParams, sizes: range) -> Scan:
    """Check every level-0 analytic root that compare checks, on every grid size, and tally the outcomes."""
    result = Scan()
    roots = [lv.E.real for lv in kg.solve_level(p, 0) if not skip_reason(p, lv)]
    for n_points in sizes:
        for E in roots:
            result.solves += 1
            try:
                res = kg.solve_selfconsistent(p, 0, kg.OracleConfig(n_points=n_points), seed=E)
            except kg.KGHierarchyError as exc:
                result.errors[type(exc).__name__] += 1
                continue
            rel = abs(res.E - E) / abs(E)
            result.off += rel > OFF
            result.coarse += res.coarse_wall
            if result.worst_n is None or rel > result.worst:
                result.worst, result.worst_n = rel, n_points
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", default="B,D", help="comma-separated set letters (default: B,D)")
    ap.add_argument("--start", type=int, default=300)
    ap.add_argument("--stop", type=int, default=2100)
    ap.add_argument("--step", type=int, default=9)
    args = ap.parse_args(argv)
    sets = benchmark_sets()
    names = args.sets.split(",")
    if unknown := [name for name in names if name not in sets]:
        ap.error(f"unknown set {unknown[0]!r}; choose from {', '.join(sets)}")
    if args.start < 64 or args.step < 1:
        ap.error("--start must be at least 64 (the smallest oracle grid) and --step at least 1")
    sizes = range(args.start, args.stop + 1, args.step)
    if not sizes:
        ap.error("no grid size between --start and --stop")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kg.GammaPositivityWarning)
        for name in names:
            print(scan(kg.PotentialParams(**sets[name]), sizes).line(name), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
