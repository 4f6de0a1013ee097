"""List the CLI commands whose output differs between this tree and another.

    python tools/same_output.py OTHER_TREE --seeds 1,2,3

OTHER_TREE is a checkout of this repository (for example a `git archive` of
the parent commit).  For each seed the tool writes the inputs of the `verify`
and `analytic` benchmark workloads with perfbench/inputs.py and takes every
command they list, plus a `--format json` run of each `sweep` and
`wavefunction` command.  Each command runs in a fresh interpreter, once with
this tree's src/ and once with OTHER_TREE's src/, and every command whose exit
code, stdout or stderr bytes differ is printed.  The `refine` workload's
grid-refinement study, this tree's perfbench/refine.py on the spec that
perfbench/inputs.py writes, runs the same way on both trees' src/; its JSON is
compared with the ladders' wall times (`seconds`) removed.  When stdout
differs, the line also gives the largest relative change of each numeric field
that changed, largest first, named by its JSON key or CSV column.  A JSON
document is compared leaf by leaf.  Other output is paired line by line; in a
table the fields of a line are named by the last header row above it (a row of
names only), and a number outside a table by its position ("line 3 field 2").
For text the stdout line (this tree's, numbered from 1) of each largest change
is given too.  Inputs go to a temporary directory; perfbench/ is only read.
Exit code 0 when no command differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LAUNCH = "import sys; from kg_hierarchy.cli import main; sys.exit(main())"
WORKLOADS = ("verify", "analytic")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def inputs(workload: str, seed: int, work: Path) -> list[dict]:
    """The operations perfbench/inputs.py lists for a workload, with its inputs written under work."""
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "inputs.py"),
         "--workload", workload, "--seed", str(seed), "--out", f"{workload}_{seed}"],
        capture_output=True, text=True, cwd=work, check=True,
    )
    return json.loads(proc.stdout)


def commands(seeds: list[int], work: Path) -> list[list[str]]:
    """CLI argvs of the benchmark commands for the seeds, with paths relative to work."""
    argvs = []
    for seed in seeds:
        for workload in WORKLOADS:
            for op in inputs(workload, seed, work):
                argvs.append(op["argv"])
                if op["kind"] in ("sweep", "wavefunction"):
                    argvs.append([*op["argv"], "--format", "json"])
    return argvs


def _env(tree: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def run(tree: Path, argv: list[str], work: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one CLI command on tree's sources."""
    proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], capture_output=True, env=_env(tree), cwd=work)
    return proc.returncode, proc.stdout, proc.stderr


def run_refine(tree: Path, spec: str, work: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of perfbench/refine.py on tree's sources.

    On success stdout is the study's JSON without the ladders' wall times.
    """
    argv = [sys.executable, str(PERFBENCH / "refine.py"), "--spec", spec]
    proc = subprocess.run(argv, capture_output=True, env=_env(tree), cwd=work)
    out = proc.stdout
    if proc.returncode == 0:
        result = json.loads(out)
        for ladder in result["sets"]:
            del ladder["seconds"]
        out = json.dumps(result).encode() + b"\n"
    return proc.returncode, out, proc.stderr


def _relative(x: float, y: float) -> float | None:
    # Relative change from y to x; None when there is none.
    if x == y or (math.isnan(x) and math.isnan(y)):
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _json_pairs(mine, theirs, name: str):
    # (name, mine, theirs) of the numeric leaves, paired by key and position
    # and named by their nearest key.
    if isinstance(mine, dict) and isinstance(theirs, dict):
        for key in mine:
            if key in theirs:
                yield from _json_pairs(mine[key], theirs[key], key)
    elif isinstance(mine, list) and isinstance(theirs, list):
        for a, b in zip(mine, theirs):
            yield from _json_pairs(a, b, name)
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (mine, theirs)):
        yield name, float(mine), float(theirs)


def _fields(line: bytes) -> list[float | None]:
    # The comma-separated fields of a line, each a number or None.
    return [float(field) if NUMBER.fullmatch(field.strip()) else None for field in line.split(b",")]


def _text_pairs(mine: bytes, theirs: bytes):
    # (name, mine, theirs, line number) of the numbers of lines paired in order.
    header: list[str] | None = None
    for number, (line, other) in enumerate(zip(mine.splitlines(), theirs.splitlines()), 1):
        names = [field.strip().decode(errors="replace") for field in line.split(b",")]
        if len(names) == 1:  # not a table row
            header = None
        elif all(name.isidentifier() for name in names):
            header = names
            continue
        if header is None:
            for i, (x, y) in enumerate(zip(NUMBER.findall(line), NUMBER.findall(other)), 1):
                yield f"line {number} field {i}", float(x), float(y), number
            continue
        for i, (x, y) in enumerate(zip(_fields(line), _fields(other))):
            if x is not None and y is not None:
                yield (header[i] if i < len(header) else f"field {i + 1}"), x, y, number


def largest_changes(mine: bytes, theirs: bytes) -> dict[str, tuple[float, int | None]]:
    """The largest relative change of each numeric field that changed, by name.

    Each value is (change, this tree's line number), the line None for JSON.
    """
    try:
        documents = json.loads(mine), json.loads(theirs)
        pairs = ((name, x, y, None) for name, x, y in _json_pairs(*documents, "value"))
    except ValueError:
        pairs = _text_pairs(mine, theirs)
    out: dict[str, tuple[float, int | None]] = {}
    for name, x, y, number in pairs:
        rel = _relative(x, y)
        if rel is not None and rel > out.get(name, (0.0, None))[0]:
            out[name] = (rel, number)
    return out


def difference(label: str, mine: tuple[int, bytes, bytes], theirs: tuple[int, bytes, bytes]) -> str | None:
    """The line for a command whose exit code, stdout and stderr on the two trees differ; None if none does."""
    fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), mine, theirs) if a != b]
    if not fields:
        return None
    line = f"{label}: {', '.join(fields)} differ"
    changes = sorted(largest_changes(mine[1], theirs[1]).items(), key=lambda item: (-item[1][0], item[0]))
    if changes:
        parts = [f"{name} {rel:.2g}" + ("" if at is None else f" at line {at}") for name, (rel, at) in changes]
        line += f" (largest relative change: {', '.join(parts)})"
    return line


def differing(other: Path, argvs: list[list[str]], work: Path) -> list[str]:
    """One line per command whose output on this tree and on other differs."""
    lines = []
    for argv in argvs:
        line = difference(" ".join(argv), run(ROOT, argv, work), run(other, argv, work))
        if line is not None:
            lines.append(line)
    return lines


def refine_differs(other: Path, work: Path) -> str | None:
    """The line for the refine study if its result on this tree and on other differs."""
    (op,) = inputs("refine", 1, work)  # the refine spec is the same for every seed
    label = f"perfbench/refine.py --spec {op['spec']}"
    return difference(label, run_refine(ROOT, op["spec"], work), run_refine(other, op["spec"], work))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the tree to compare with")
    ap.add_argument("--seeds", default="1", help="comma-separated benchmark seeds (default: 1)")
    args = ap.parse_args()
    if not (args.other / "src" / "kg_hierarchy" / "cli.py").is_file():
        ap.error(f"no src/kg_hierarchy/cli.py under {args.other}")
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argvs = commands(seeds, work)
        lines = differing(args.other.resolve(), argvs, work)
        refine = refine_differs(args.other.resolve(), work)
        if refine is not None:
            lines.append(refine)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(argvs) + 1} commands differ")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
