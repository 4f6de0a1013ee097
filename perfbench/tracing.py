"""Span tracing of kg-hierarchy from outside the package.

Wrappers are installed at every name a caller looks a traced function up by:
module attributes (``kg_hierarchy.cli.spectrum`` as well as
``kg_hierarchy.spectra.spectrum``), dict entries such as the CLI dispatch table,
and class attributes for methods.  Each call records a span
``(id, parent, name, start, end, thread, work)``; spans stay in memory and are
written out, with the run id they share, when the process ends.  ``work`` is a
count taken from the call (matrix order, roots returned, outer iterations,
samples).

Traced CLI run:

    python3 perfbench/tracing.py --spans FILE --run-id ID -- spectrum --config run.cfg
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter


def _certified(args, result) -> int:
    return sum(row.E_oracle is not None for row in result.rows)


# span name -> (module, attribute path, work count from (args, result) or None)
TARGETS = {
    "cli.run_spectrum": ("kg_hierarchy.cli", "run_spectrum", None),
    "cli.run_wavefunction": ("kg_hierarchy.cli", "run_wavefunction", None),
    "cli.run_verify": ("kg_hierarchy.cli", "run_verify", None),
    "cli.run_sweep": ("kg_hierarchy.cli", "run_sweep", None),
    "spectra.spectrum": ("kg_hierarchy.spectra", "spectrum", None),
    "spectra.solve_level": ("kg_hierarchy.spectra", "solve_level", lambda a, r: len(r)),
    "hierarchy.level": ("kg_hierarchy.hierarchy", "level", None),
    "hierarchy.riccati_check": ("kg_hierarchy.hierarchy", "riccati_check", None),
    "potential.params": ("kg_hierarchy.potential", "PotentialParams.__init__", None),
    "potential.effective_potential": ("kg_hierarchy.potential", "effective_potential", None),
    "oracle.compare": ("kg_hierarchy.oracle", "compare", _certified),
    "oracle.solve_selfconsistent": ("kg_hierarchy.oracle", "solve_selfconsistent", lambda a, r: r.outer_iters),
    "oracle.discretize": ("kg_hierarchy.oracle", "discretize", lambda a, r: r.n),
    "oracle.eigenvalues": ("kg_hierarchy.oracle", "BandedOperator.eigenvalues", lambda a, r: a[0].n),
    "oracle.eigenpair": ("kg_hierarchy.oracle", "BandedOperator.eigenpair", lambda a, r: a[0].n),
    "wavefunctions.ground_state": ("kg_hierarchy.wavefunctions", "ground_state_from_W", lambda a, r: r.n),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, work, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), None))
            raise
        t1 = perf_counter()
        stack.pop()
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), work(args, result) if work else None))
        return result

    def wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, work, args, kwargs)

        return traced

    def span(self, name: str, fn):
        """Run fn() inside a span of its own (used for the import)."""
        return self.call(name, fn, None, (), {})

    def install(self) -> None:
        """Wrap every target whose module is imported, at every name it is reachable by."""
        pkg = [m for k, m in list(sys.modules.items()) if k == "kg_hierarchy" or k.startswith("kg_hierarchy.")]
        for name, (modname, path, work) in TARGETS.items():
            if modname not in sys.modules:
                continue
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), work))
                continue
            orig = getattr(owner, path)
            traced = self.wrap(name, orig, work)
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                value[dkey] = traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread, one after another, so the part of
    the parent they cover is the sum of their durations.
    """
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(span_files: list[list]) -> dict[str, float]:
    """Per-layer counts and self times summed over the spans of several traced processes."""
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    work: dict[str, int] = {}
    for spans in span_files:
        own = self_times(spans)
        for sid, _, name, _, _, _, w in spans:
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + own[sid]
            work[name] = work.get(name, 0) + (w or 0)

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(seconds.get(n, 0.0) for n in names)

    def w(*names):
        return sum(work.get(n, 0) for n in names)

    runs = [n for n in TARGETS if n.startswith("cli.run_")]
    eig = ("oracle.eigenvalues", "oracle.eigenpair")
    eig_calls = c(eig[0]) + c(eig[1])
    roots = w("oracle.compare")
    return {
        "cli.import_s": s("cli.import"),
        "cli.self_s": s(*runs),
        "spectra.spectrum_calls": c("spectra.spectrum"),
        "spectra.solve_level_calls": c("spectra.solve_level"),
        "spectra.solve_level_s": s("spectra.solve_level"),
        "spectra.roots": w("spectra.solve_level"),
        "hierarchy.level_calls": c("hierarchy.level"),
        "hierarchy.level_s": s("hierarchy.level"),
        "hierarchy.riccati_check_calls": c("hierarchy.riccati_check"),
        "hierarchy.riccati_check_s": s("hierarchy.riccati_check"),
        "potential.params_built": c("potential.params"),
        "potential.effective_potential_calls": c("potential.effective_potential"),
        "potential.effective_potential_s": s("potential.effective_potential"),
        "oracle.compare_s": s("oracle.compare"),
        "oracle.solve_selfconsistent_calls": c("oracle.solve_selfconsistent"),
        "oracle.solve_selfconsistent_s": s("oracle.solve_selfconsistent"),
        "oracle.outer_iters": w("oracle.solve_selfconsistent"),
        "oracle.discretize_calls": c("oracle.discretize"),
        "oracle.discretize_s": s("oracle.discretize"),
        "oracle.eigensolve_calls": eig_calls,
        "oracle.eigensolve_s": s(*eig),
        "oracle.eigensolve_points": w(*eig),
        "oracle.certified_roots": roots,
        "oracle.eigensolves_per_root": eig_calls / roots if roots else 0.0,
        "wavefunctions.ground_state_calls": c("wavefunctions.ground_state"),
        "wavefunctions.ground_state_s": s("wavefunctions.ground_state"),
        "wavefunctions.samples": w("wavefunctions.ground_state"),
        "trace.spans": sum(calls.values()),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="run one kg-hierarchy CLI command with span tracing")
    ap.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.run_id)
    cli = tracer.span("cli.import", lambda: importlib.import_module("kg_hierarchy.cli"))
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
