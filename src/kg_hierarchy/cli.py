"""Command-line interface: spectrum, wavefunction, verify and sweep runs.

Configuration is a flat key=value file with # comments.  Recognized keys: V0,
S0, VI, lambda, q, m, branch, n_max, sweep_key, sweep_values, oracle.n_points.
All quantities are in natural units; verify and wavefunction sample x up to
40/lambda (PotentialParams.box_end).  spectrum, wavefunction and sweep
write one table each: CSV with Re/Im column pairs, %.17g floats and LF line
endings, or JSON records keyed by the CSV header; identical configs give
byte-identical files.  verify writes text only: the u-coefficient defects
of each level's Riccati identity and, on the Hermitian branch, the oracle
comparison.  Exit codes: 1 for a ConfigError (a bad key, value or sweep value),
another KGHierarchyError, an OSError, a MemoryError (an oracle grid too large to
allocate) or a verify run without scipy, each one stderr line; 2 when level 0 is
not bound.  json, the oracle (so numpy) and wavefunctions are imported where
used: spectrum, sweep and wavefunction start without numpy or dataclasses, CSV
without json.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys
import warnings
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, KGHierarchyError, ParameterError
from .hierarchy import RICCATI_TOL, level, riccati_check
from .potential import Branch, OracleConfig, PotentialParams
from .spectra import EnergyLevel, LevelFlag, spectrum

_BRANCHES = {b.value: b for b in Branch}
_PARAM_KEYS = {"V0", "S0", "VI", "lambda", "q", "m", "branch"}
_OTHER_KEYS = {"n_max", "sweep_key", "sweep_values", "oracle.n_points"}
_SWEEPABLE = {"V0", "S0", "VI", "lambda", "q", "m"}
# Output chunks joined per write: one write per chunk is slow on an unbuffered stdout.
_EMIT_BATCH = 4096


class RunConfig(NamedTuple):
    params: PotentialParams
    command: str
    n_max: int
    sweep_key: str | None
    sweep_values: tuple[float, ...]
    output_path: str | None
    fmt: str
    perturb_mu: float
    # Built for verify, or when oracle.n_points is given.
    oracle_cfg: OracleConfig | None


@functools.cache
def _flags_cell(flags: frozenset, note: str) -> str:
    names = sorted(f.value for f in flags)
    if note:
        names.append(note)
    return ";".join(names)


def parse_config(path: str | Path) -> dict[str, object]:
    """Parse a flat key=value file; raises ConfigError with the offending line."""
    raw: dict[str, object] = {}
    seen_lines: dict[str, int] = {}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: byte {data[exc.start]:#04x}", data.count(b"\n", 0, exc.start) + 1) from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key=value, got {stripped!r}", line_no)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"duplicate key {key!r} (first set on line {seen_lines[key]})", line_no)
        if key not in _PARAM_KEYS | _OTHER_KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        seen_lines[key] = line_no
        try:
            raw[key] = _convert(key, value)
        except ValueError as exc:
            raise ConfigError(str(exc), line_no) from exc
    missing = {"S0", "lambda", "q", "m"} - raw.keys()
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    try:
        raw["_params"] = _build_params(raw)
    except ParameterError as exc:
        key = "lambda" if exc.param == "lam" else exc.param
        raise ConfigError(f"invalid potential parameters: {exc}", seen_lines.get(key)) from exc
    return raw


def _convert(key: str, value: str) -> object:
    if key == "branch":
        if value not in _BRANCHES:
            raise ValueError(f"branch must be one of {sorted(_BRANCHES)}, got {value!r}")
        return _BRANCHES[value]
    if key == "sweep_key":
        if value not in _SWEEPABLE:
            raise ValueError(f"sweep_key must be one of {sorted(_SWEEPABLE)}, got {value!r}")
        return value
    if key == "sweep_values":
        parts = [s.strip() for s in value.split(",") if s.strip()]
        if not parts:
            raise ValueError("sweep_values must be a nonempty comma-separated list")
        return tuple(float(s) for s in parts)
    if key in ("n_max", "oracle.n_points"):
        return int(value)
    return float(value)


def _build_params(raw: dict[str, object]) -> PotentialParams:
    return PotentialParams(
        V0=float(raw.get("V0", 0.0)),
        S0=float(raw["S0"]),
        lam=float(raw["lambda"]),
        q=float(raw["q"]),
        m=float(raw["m"]),
        VI=float(raw.get("VI", 0.0)),
        branch=raw.get("branch", Branch.HERMITIAN),
    )


def build_run_config(args: argparse.Namespace) -> RunConfig:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    raw = parse_config(args.config)
    oracle_cfg = None
    try:
        # A given oracle.n_points is checked on every command; only verify uses it.
        if "oracle.n_points" in raw:
            oracle_cfg = OracleConfig(raw["oracle.n_points"])
        elif args.command == "verify":
            oracle_cfg = OracleConfig()
        # verify and wavefunction sample on a box that ends at 40/lambda, right of the pole.
        if args.command in ("verify", "wavefunction"):
            raw["_params"].box_end()
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from exc
    cfg = RunConfig(
        params=raw["_params"],
        command=args.command,
        n_max=raw.get("n_max", 16),
        sweep_key=raw.get("sweep_key"),
        sweep_values=raw.get("sweep_values", ()),
        output_path=args.output,
        fmt=args.format,
        perturb_mu=getattr(args, "perturb_mu", 0.0),
        oracle_cfg=oracle_cfg,
    )
    if cfg.n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {cfg.n_max}")
    if cfg.command == "verify" and cfg.fmt != "csv":
        raise ConfigError(f"verify writes text; --format {cfg.fmt} is not supported")
    if cfg.command == "sweep":
        if cfg.sweep_key is None or not cfg.sweep_values:
            raise ConfigError("sweep command needs sweep_key and sweep_values")
    elif cfg.sweep_key is not None or cfg.sweep_values:
        key = "sweep_key" if cfg.sweep_key is not None else "sweep_values"
        raise ConfigError(f"{key} is only valid with the sweep command, not {cfg.command!r}")
    return cfg


def _emit(cfg: RunConfig, chunks: Iterable[str]) -> None:
    """Write the chunks, in order and joined in batches, to the output path or to stdout."""
    chunks = iter(chunks)
    with open(cfg.output_path, "w", newline="") if cfg.output_path else contextlib.nullcontext(sys.stdout) as out:
        for batch in iter(lambda: list(itertools.islice(chunks, _EMIT_BATCH)), []):
            out.write("".join(batch))


def _write_table(cfg: RunConfig, key: str, columns: tuple[str, ...], row_format: str, rows: Iterable[tuple],
                 **extra: object) -> None:
    """The one result writer: CSV lines row_format % values under a header of columns, or
    JSON {"command", "params", **extra, key: [dict(zip(columns, values)), ...]}.

    The JSON text is streamed chunk by chunk; json.dumps would join the same chunks."""
    if cfg.fmt == "json":
        import json

        p = cfg.params
        params = {"V0": p.V0, "S0": p.S0, "VI": p.VI, "lambda": p.lam, "q": p.q, "m": p.m, "branch": p.branch.value}
        records = [dict(zip(columns, values)) for values in rows]
        document = {"command": cfg.command, "params": params, **extra, key: records}
        _emit(cfg, itertools.chain(json.JSONEncoder(indent=2).iterencode(document), "\n"))
    else:
        _emit(cfg, ["\n".join([",".join(columns), *(row_format % values for values in rows), ""])])


_LEVEL_COLUMNS = ("n", "re_E", "im_E", "re_epsilon", "im_epsilon", "re_mu", "im_mu", "residual", "flags")
# One CSV row per level.
_LEVEL_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"


def _level_values(lv: EnergyLevel) -> tuple:
    eps = lv.epsilon
    return (
        lv.n, lv.E.real, lv.E.imag, eps.real, eps.imag,
        lv.mu.real, lv.mu.imag, lv.residual, _flags_cell(lv.flags, lv.note),
    )


def _bound_levels(cfg: RunConfig) -> list[EnergyLevel]:
    """spectrum(params, n_max), with the stderr line of exit code 2 when it is empty."""
    levels = spectrum(cfg.params, cfg.n_max)
    if not levels:
        sys.stderr.write("no bound level at n = 0 for these parameters\n")
    return levels


def run_spectrum(cfg: RunConfig) -> int:
    if not (levels := _bound_levels(cfg)):
        return 2
    _write_table(cfg, "levels", _LEVEL_COLUMNS, _LEVEL_ROW, map(_level_values, levels))
    return 0


def run_verify(cfg: RunConfig) -> int:
    from .oracle import REL_TOL, compare

    p = cfg.params
    if not (levels := _bound_levels(cfg)):
        return 2
    out = [f"Riccati residuals (scaled tolerance {RICCATI_TOL:g}):", "n,re_E,im_E,residual,scale,ok"]
    all_ok = True
    for lv in levels:
        res, scale, ok = riccati_check(p, lv.E, lv.n, mu_perturbation=cfg.perturb_mu)
        all_ok &= ok
        out.append("%d,%.17g,%.17g,%.17g,%.17g,%s" % (lv.n, lv.E.real, lv.E.imag, res, scale, ok))
    if p.branch is Branch.HERMITIAN:
        report = compare(p, levels, cfg.oracle_cfg)
        out.append(f"Oracle comparison (relative tolerance {REL_TOL:g}):")
        out.append("n,E_analytic,E_oracle,abs_diff,rel_diff,grid_convergence_est,skipped")
        for row in report.rows:
            if row.skipped:
                out.append("%d,%.17g,,,,,%s" % (row.n, row.E_analytic.real, row.skipped))
            else:
                out.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g," % (
                    row.n, row.E_analytic.real, row.E_oracle, row.abs_diff, row.rel_diff, row.grid_convergence_est
                ))
        all_ok &= report.ok
        out.append("worst relative diff: %.17g" % report.worst_rel_diff)
        if any(row.coarse_wall for row in report.rows):
            sys.stderr.write(f"warning: oracle.n_points = {cfg.oracle_cfg.n_points} is too coarse for the "
                             "pole-wall closure; the left wall uses the plain reflection\n")
    else:
        out.append(f"Oracle comparison: skipped ({p.branch.value} branch)")
    out.append(f"verify: {'PASS' if all_ok else 'FAIL'}")
    _emit(cfg, ["\n".join(out) + "\n"])
    return 0 if all_ok else 1


def run_wavefunction(cfg: RunConfig) -> int:
    from .wavefunctions import WAVEFORM_NOTE, ground_state_from_W

    p = cfg.params
    if not (levels := _bound_levels(cfg)):
        return 2
    x0 = p.domain_start()
    dx = (p.box_end() - x0) / 1999  # 2000 points from x0 to box_end()
    samples: list[tuple[int, float, float, float]] = []
    for lv in levels:
        if LevelFlag.NORMALIZABLE_MU_POSITIVE not in lv.flags:
            continue
        psi = ground_state_from_W(level(p, lv.E, lv.n), x0, dx, 2000)
        samples.extend((lv.n, xi, vi.real, vi.imag) for xi, vi in zip(psi.x, psi.values))
    columns = ("n", "x", "re_psi", "im_psi")
    _write_table(cfg, "samples", columns, "%d,%.17g,%.17g,%.17g", samples, note=WAVEFORM_NOTE)
    return 0


def run_sweep(cfg: RunConfig) -> int:
    p, key = cfg.params, cfg.sweep_key
    # Every sweep value is validated before any solve starts.
    field = "lam" if key == "lambda" else key
    swept: list[PotentialParams] = []
    for v in cfg.sweep_values:
        try:
            swept.append(p._replace(**{field: v}))
        except ParameterError as exc:
            raise ConfigError(f"sweep value {key} = {v:g} rejected: {exc}") from exc
    solved = [spectrum(point, cfg.n_max) for point in swept]
    rows = ((key, v, *_level_values(lv)) for v, levels in zip(cfg.sweep_values, solved) for lv in levels)
    _write_table(cfg, "rows", ("sweep_key", "sweep_value", *_LEVEL_COLUMNS), "%s,%.17g," + _LEVEL_ROW, rows)
    return 0


_DISPATCH = {
    "spectrum": run_spectrum,
    "wavefunction": run_wavefunction,
    "verify": run_verify,
    "sweep": run_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kg-hierarchy",
        description="Relativistic bound states of the q-deformed Hulthen potential "
        "via the factorization hierarchy, with finite-difference verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("spectrum", "solve the bound spectrum and emit one row per level"),
        ("wavefunction", "emit sampled ground-state wavefunctions per level"),
        ("verify", "Riccati residuals and (Hermitian) oracle comparison"),
        ("sweep", "re-solve the spectrum over a swept parameter"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="key=value configuration file")
        sp.add_argument("--output", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
        if name == "verify":
            sp.add_argument(
                "--perturb-mu", dest="perturb_mu", type=float, default=0.0,
                help="test hook: offset mu before the residual check",
            )
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # One stderr line per warning: the parameters it names, not a source location.
    sys.stderr.write(f"warning: {category.__name__}: {message}\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("once")
        warnings.showwarning = _show_warning
        try:
            cfg = build_run_config(args)
            return _DISPATCH[cfg.command](cfg)
        except ConfigError as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return 1
        except (KGHierarchyError, MemoryError) as exc:
            # numpy raises MemoryError for an oracle grid it cannot allocate.
            sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
            return 1
        except OSError as exc:
            sys.stderr.write(f"i/o error: {exc}\n")
            return 1
        except ModuleNotFoundError as exc:
            # The oracle loads scipy at its first eigensolve; nothing else is optional.
            if (exc.name or "").partition(".")[0] != "scipy":
                raise
            sys.stderr.write(f"error: {exc}; the finite-difference verifier needs scipy\n")
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
