"""Grid-refinement study of the oracle, run in-process through the library.

    python3 perfbench/refine.py --spec refine.json [--spans FILE --run-id ID]

For each set in the spec, ``kg_hierarchy.compare`` runs on the set's level-0
roots with ``OracleConfig(n_points=N)``; N doubles from ``ladder_start`` until
every oracle root is within the set's target of the reference root, or passes
``ladder_max``.  Prints one JSON object with the roots of every rung and the
wall time of each ladder.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from time import perf_counter

import kg_hierarchy as kg
import reference as ref
from tracing import Tracer


def ladder(spec_set: dict, start: int, cap: int) -> dict:
    p_ref = ref.Params(**spec_set["params"])
    expected = [r for r in ref.level_roots(p_ref, 0) if r.normalizable]
    p = kg.PotentialParams(**dict(spec_set["params"], branch=kg.Branch(spec_set["params"]["branch"])))
    levels = kg.solve_level(p, 0)
    rungs = []
    seconds = 0.0
    n_points = start
    while n_points <= cap:
        t0 = perf_counter()
        report = kg.compare(p, levels, kg.OracleConfig(n_points=n_points))
        seconds += perf_counter() - t0
        oracle = [row.E_oracle for row in report.rows if row.E_oracle is not None]
        rungs.append({"n_points": n_points, "oracle": oracle})
        if len(oracle) == len(expected) and all(
            abs(e - r.E.real) < spec_set["target"] * abs(r.E) for e, r in zip(oracle, expected)
        ):
            break
        n_points *= 2
    return {
        "case": spec_set["case"],
        "seconds": seconds,
        "analytic": [[lv.E.real, lv.E.imag] for lv in levels],
        "rungs": rungs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--spans", default=None, help="trace, and write the spans here")
    ap.add_argument("--run-id", default="refine")
    args = ap.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    tracer = Tracer(args.run_id) if args.spans else None
    if tracer:
        tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kg.GammaPositivityWarning)
            sets = [ladder(s, spec["ladder_start"], spec["ladder_max"]) for s in spec["sets"]]
    finally:
        if tracer:
            tracer.dump(args.spans)
    print(json.dumps({"sets": sets}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
