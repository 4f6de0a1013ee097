"""kg-hierarchy benchmark.

    python3 perfbench/run.py --workload {verify,refine,analytic} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is taken from ./src).  The
CLI workloads start one fresh ``kg-hierarchy`` process per command; the refine
workload runs its grid-refinement study in one process through the library.
Every output is checked against perfbench/reference.py.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "refine", "analytic")
SETUP_REPEATS = 5
OP_TIMEOUT_S = 120
# probe.py as a fresh process on the 2-core reference machine when the host is
# quiet.  Command times are reported at this speed.
NOMINAL_PROBE_S = 0.125
PROBES_PER_GAP = 3  # the median of a few probe runs; one alone jitters by 10% or more
# What the installed console script runs.
LAUNCH = "import sys; from kg_hierarchy.cli import main; sys.exit(main())"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "time_to_accuracy_s": "s",
    "command_s": "s",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "spectra.spectrum_calls": "count",
    "spectra.solve_level_calls": "count",
    "spectra.solve_level_s": "s",
    "spectra.roots": "count",
    "hierarchy.level_calls": "count",
    "hierarchy.level_s": "s",
    "hierarchy.riccati_check_calls": "count",
    "hierarchy.riccati_check_s": "s",
    "potential.params_built": "count",
    "potential.effective_potential_calls": "count",
    "potential.effective_potential_s": "s",
    "oracle.compare_s": "s",
    "oracle.solve_selfconsistent_calls": "count",
    "oracle.solve_selfconsistent_s": "s",
    "oracle.outer_iters": "count",
    "oracle.discretize_calls": "count",
    "oracle.discretize_s": "s",
    "oracle.eigensolve_calls": "count",
    "oracle.eigensolve_s": "s",
    "oracle.eigensolve_points": "points",
    "oracle.certified_roots": "count",
    "oracle.eigensolves_per_root": "1/root",
    "oracle.worst_rel_diff": "ratio",
    "oracle.points_to_accuracy": "points",
    "wavefunctions.ground_state_calls": "count",
    "wavefunctions.ground_state_s": "s",
    "wavefunctions.samples": "count",
    "machine.probe_s": "s",
    "trace.spans": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_pct": "%",
}


class Round:
    """What one round of a workload did: operations, timings and checked results."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0  # time to accuracy: the round's commands, or the refine ladders
        self.raw_seconds = 0.0  # the same, unscaled
        self.command_s: list[float] = []
        self.output_bytes = 0
        self.worst_rel_diff = 0.0
        self.points = 0
        self.spans: list[list] = []
        self.wrong = False  # an emitted result disagreed with the reference

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong |= any(p.startswith("wrong") for p in problems)
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # The machine the figures come from has 2 cores; keep BLAS to that elsewhere too.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "2")
    return env


def run_process(argv: list[str], env: dict, cwd: Path) -> tuple[int | None, str, str, float]:
    """(exit code or None on timeout, stdout, stderr, wall seconds)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "", perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


class Clock:
    """Runs commands and reports each wall time at the probe's nominal speed.

    The host's speed drifts by up to 2x over seconds, so every command is
    bracketed by runs of probe.py and its wall time scaled by
    NOMINAL_PROBE_S / (mean of the probe medians before and after it).
    """

    def __init__(self, env: dict, cwd: Path):
        self.env, self.cwd = env, cwd
        self.probes: list[float] = []
        self.last = self._probe()

    def _probe(self) -> float:
        times = []
        for _ in range(PROBES_PER_GAP):
            rc, _, err, dt = run_process([sys.executable, str(HERE / "probe.py")], self.env, self.cwd)
            if rc != 0:
                raise SystemExit(f"probe.py failed: {err.strip()[-500:]}")
            times.append(dt)
        self.probes.extend(times)
        return statistics.median(times)

    def run(self, argv: list[str]) -> tuple[int | None, str, str, float, float]:
        """(exit code or None on timeout, stdout, stderr, wall seconds, scaled wall seconds)."""
        before = self.last
        rc, out, err, dt = run_process(argv, self.env, self.cwd)
        self.last = self._probe()
        return rc, out, err, dt, dt * 2.0 * NOMINAL_PROBE_S / (before + self.last)


def measure_setup(clock: Clock) -> float:
    """Median scaled wall time of a fresh interpreter importing kg_hierarchy.cli (after one warm-up)."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        rc, _, err, _, dt = clock.run([sys.executable, "-c", "import kg_hierarchy.cli"])
        if rc != 0:
            raise SystemExit(f"cannot import kg_hierarchy.cli from {ROOT / 'src'}: {err.strip()[-500:]}")
        if i:
            times.append(dt)
    return statistics.median(times)


def run_cli_round(ops: list[dict], clock: Clock, work: Path, tag: str, traced: bool) -> Round:
    rnd = Round()
    first_sweep: dict[str, str] = {}
    for i, op in enumerate(ops):
        if traced:
            spans_path = work / f"{tag}-{i}.spans.json"
            argv = [sys.executable, str(HERE / "tracing.py"), "--spans", str(spans_path),
                    "--run-id", f"{tag}-{i}", "--", *op["argv"]]
        else:
            argv = [sys.executable, "-c", LAUNCH, *op["argv"]]
        rc, out, err, raw, dt = clock.run(argv)
        rnd.raw_seconds += raw
        rnd.seconds += dt
        rnd.command_s.append(dt)
        rnd.output_bytes += len(out.encode())
        if rc != 0:
            rnd.record([f"{op['kind']} {op['case']}: exit {rc}: {err.strip()[-300:]}"])
            continue
        if traced:
            rnd.spans.append(json.loads(spans_path.read_text())["spans"])
            spans_path.unlink()
        rnd.record(checks.stderr_problems(err) or check_output(op, out, rnd, first_sweep))
    return rnd


def check_output(op: dict, out: str, rnd: Round, first_sweep: dict[str, str]) -> list[str]:
    """Problems with one command's stdout; a --jobs 2 sweep must repeat the --jobs 1 bytes."""
    if op["kind"] == "verify":
        problems, worst = checks.check_verify(op, out)
        rnd.worst_rel_diff = max(rnd.worst_rel_diff, worst)
        return problems
    if op["kind"] == "sweep":
        if op["case"] not in first_sweep:
            first_sweep[op["case"]] = out
            return checks.check_sweep(op, out)
        if out != first_sweep[op["case"]]:
            return [f"wrong: sweep {op['case']}: --jobs {op['jobs']} output differs from --jobs 1"]
        return []
    if op["kind"] == "spectrum":
        return checks.check_spectrum(op, out)
    return checks.check_wavefunction(op, out)


def run_refine_round(op: dict, clock: Clock, work: Path, tag: str, traced: bool) -> Round:
    rnd = Round()
    spec = json.loads(Path(op["spec"]).read_text())
    argv = [sys.executable, str(HERE / "refine.py"), "--spec", op["spec"]]
    if traced:
        spans_path = work / f"{tag}.spans.json"
        argv += ["--spans", str(spans_path), "--run-id", tag]
    # The study is timed unscaled: it is in-process LAPACK work, which the
    # host slows much less than process start-up, and scaling it by the probe
    # made its run-to-run spread wider, not narrower.
    rc, out, err, wall, _ = clock.run(argv)
    rnd.command_s.append(wall)
    if rc != 0 or not out.strip():
        for s in spec["sets"]:
            rnd.record([f"refine {s['case']}: exit {rc}: {err.strip()[-300:]}"])
        return rnd
    if traced:
        rnd.spans.append(json.loads(spans_path.read_text())["spans"])
        spans_path.unlink()
    result = json.loads(out.strip().splitlines()[-1])
    stderr = checks.stderr_problems(err)
    for s, res in zip(spec["sets"], result["sets"]):
        problems, points, worst = checks.check_ladder(s, res)
        rnd.record(stderr or problems)
        rnd.raw_seconds += res["seconds"]
        rnd.seconds += res["seconds"]
        rnd.points += points
        rnd.worst_rel_diff = max(rnd.worst_rel_diff, worst)
    for s in spec["sets"][len(result["sets"]):]:
        rnd.record([f"refine {s['case']}: no result"])
    return rnd


def run_round(workload: str, ops: list[dict], clock: Clock, work: Path, tag: str, traced: bool) -> Round:
    if workload == "refine":
        return run_refine_round(ops[0], clock, work, tag, traced)
    return run_cli_round(ops, clock, work, tag, traced)


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "time_to_accuracy_s": statistics.median(r.seconds for r in rounds),
        "command_s": statistics.geometric_mean(t for r in rounds for t in r.command_s),
    }


def per_layer(plain: Round, traced: Round, probes: list[float]) -> dict[str, float]:
    out = tracing.layer_metrics(traced.spans)
    out["machine.probe_s"] = statistics.median(probes)
    out["cli.output_bytes"] = traced.output_bytes
    out["oracle.worst_rel_diff"] = traced.worst_rel_diff
    out["oracle.points_to_accuracy"] = traced.points
    out["trace.untraced_s"] = plain.seconds
    out["trace.traced_s"] = traced.seconds
    out["trace.overhead_pct"] = 100.0 * (traced.seconds - plain.seconds) / plain.seconds
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="kg-hierarchy benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kg_hierarchy" / "cli.py").is_file():
        print(f"no kg_hierarchy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        ops = inputs.write_inputs(args.workload, args.seed, work / "inputs")
        clock = Clock(child_env(), work)
        setup_s = measure_setup(clock)
        if args.trace:
            rounds = [run_round(args.workload, ops, clock, work, "plain", False),
                      run_round(args.workload, ops, clock, work, "traced", True)]
            metrics, units = per_layer(*rounds, clock.probes), PER_LAYER
        else:
            rounds = []
            start = perf_counter()
            while not rounds or perf_counter() - start < args.seconds:
                rounds.append(run_round(args.workload, ops, clock, work, f"r{len(rounds)}", False))
            metrics, units = end_to_end(rounds, setup_s), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"rounds {len(rounds)}, unscaled time to accuracy per round "
          f"{[round(r.raw_seconds, 3) for r in rounds]}, probe median {statistics.median(clock.probes):.3f} s",
          file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({
        "correct": not any(r.wrong for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
