"""Command-line interface: spectrum, wavefunction, verify and sweep runs.

Configuration is a flat key=value file with # comments.  Recognized keys:
V0, S0, VI, lambda, q, m, branch, n_max, sweep_key, sweep_values,
oracle.x_max, oracle.n_points, oracle.fd_order.  All quantities are in natural
units; CSV output uses Re/Im column pairs with 17-significant-digit floats and
LF line endings so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, KGHierarchyError
from .hierarchy import make_superpotential, riccati_check
from .oracle import OracleConfig, compare
from .potential import Branch, PotentialParams
from .spectra import EnergyLevel, LevelFlag, spectrum
from .wavefunctions import WAVEFORM_NOTE, ground_state_from_W

RICCATI_TOL = 1e-10

_BRANCHES = {b.value: b for b in Branch}
_PARAM_KEYS = {"V0", "S0", "VI", "lambda", "q", "m", "branch"}
_ORACLE_KEYS = ("oracle.x_max", "oracle.n_points", "oracle.fd_order")
_OTHER_KEYS = {"n_max", "sweep_key", "sweep_values", *_ORACLE_KEYS}
_SWEEPABLE = {"V0", "S0", "VI", "lambda", "q", "m"}


@dataclass(frozen=True)
class RunConfig:
    params: PotentialParams
    command: str
    n_max: int = 16
    sweep_key: str | None = None
    sweep_values: tuple[float, ...] = ()
    output_path: str | None = None
    fmt: str = "csv"
    perturb_mu: float = 0.0
    oracle_cfg: OracleConfig = OracleConfig()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _flags_cell(level: EnergyLevel) -> str:
    names = sorted(f.value for f in level.flags)
    if level.note:
        names.append(level.note)
    return ";".join(names)


def parse_config(path: str | Path) -> dict[str, object]:
    """Parse a flat key=value file; raises ConfigError with the offending line."""
    raw: dict[str, object] = {}
    seen_lines: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
    try:
        raw["_params"] = _build_params(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc), seen_lines.get("q")) from exc
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
    if key in ("n_max", "oracle.n_points", "oracle.fd_order"):
        return int(value)
    return float(value)


def _build_params(raw: dict[str, object]) -> PotentialParams:
    missing = {"S0", "lambda", "q", "m"} - raw.keys()
    if missing:
        raise ValueError(f"missing required keys: {sorted(missing)}")
    try:
        return PotentialParams(
            V0=float(raw.get("V0", 0.0)),
            S0=float(raw["S0"]),
            lam=float(raw["lambda"]),
            q=float(raw["q"]),
            m=float(raw["m"]),
            VI=float(raw.get("VI", 0.0)),
            branch=raw.get("branch", Branch.HERMITIAN),
        )
    except ValueError as exc:
        raise ValueError(f"invalid potential parameters: {exc}") from exc


def build_run_config(args: argparse.Namespace) -> RunConfig:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    raw = parse_config(args.config)
    oracle_kwargs = {key.removeprefix("oracle."): raw[key] for key in _ORACLE_KEYS if key in raw}
    try:
        oracle_cfg = OracleConfig(**oracle_kwargs)
        oracle_cfg.resolve(raw["_params"])  # checks x_max against 10/lambda
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from exc
    cfg = RunConfig(
        params=raw["_params"],
        command=args.command,
        n_max=int(raw.get("n_max", 16)),
        sweep_key=raw.get("sweep_key"),
        sweep_values=raw.get("sweep_values", ()),
        output_path=args.output,
        fmt=args.format,
        perturb_mu=getattr(args, "perturb_mu", 0.0),
        oracle_cfg=oracle_cfg,
    )
    if cfg.n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {cfg.n_max}")
    if cfg.command == "sweep":
        if cfg.sweep_key is None or not cfg.sweep_values:
            raise ConfigError("sweep command needs sweep_key and sweep_values")
        if cfg.sweep_key == "q" and any(v == 0.0 for v in cfg.sweep_values):
            raise ConfigError("sweep over q must exclude q = 0 (deformation constraint)")
    elif cfg.sweep_key is not None:
        raise ConfigError(f"sweep_key is only valid with the sweep command, not {cfg.command!r}")
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        Path(cfg.output_path).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _level_record(level: EnergyLevel) -> dict[str, object]:
    eps = level.epsilon
    return {
        "n": level.n,
        "re_E": level.E.real,
        "im_E": level.E.imag,
        "re_epsilon": eps.real,
        "im_epsilon": eps.imag,
        "re_mu": level.mu.real,
        "im_mu": level.mu.imag,
        "residual": level.residual,
        "flags": _flags_cell(level),
    }


def _records_to_csv(records: list[dict[str, object]], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for rec in records:
        cells = []
        for col in columns:
            val = rec[col]
            cells.append(_fmt(val) if isinstance(val, float) else str(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_LEVEL_COLUMNS = ["n", "re_E", "im_E", "re_epsilon", "im_epsilon", "re_mu", "im_mu", "residual", "flags"]


def run_spectrum(cfg: RunConfig) -> int:
    levels = spectrum(cfg.params, cfg.n_max)
    if not levels:
        sys.stderr.write("no bound level at n = 0 for these parameters\n")
        return 2
    records = [_level_record(lv) for lv in levels]
    if cfg.fmt == "json":
        payload = {"command": "spectrum", "params": _params_record(cfg.params), "levels": records}
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(cfg, _records_to_csv(records, _LEVEL_COLUMNS))
    return 0


def _params_record(p: PotentialParams) -> dict[str, object]:
    return {
        "V0": p.V0, "S0": p.S0, "VI": p.VI, "lambda": p.lam,
        "q": p.q, "m": p.m, "branch": p.branch.value,
    }


def _verify_grid(p: PotentialParams) -> np.ndarray:
    if p.branch is Branch.HERMITIAN:
        return np.linspace(p.domain_start(), 40.0 / p.lam, 2001)
    # Complex branches: stay inside the first pole-free phase window.
    period = 2.0 * np.pi / p.lam
    return np.linspace(0.05 * period, 0.95 * period, 2001)


def run_verify(cfg: RunConfig) -> int:
    p = cfg.params
    levels = spectrum(p, cfg.n_max)
    if not levels:
        sys.stderr.write("no bound level at n = 0 for these parameters\n")
        return 2
    x = _verify_grid(p)
    out: list[str] = []
    all_ok = True
    out.append("Riccati residuals (scaled tolerance {:g}):".format(RICCATI_TOL))
    out.append("n,re_E,im_E,residual,scale,ok")
    for lv in levels:
        res, scale, ok = riccati_check(
            p, lv.E, lv.n, x, tol=RICCATI_TOL, mu_perturbation=cfg.perturb_mu
        )
        all_ok &= ok
        out.append(
            f"{lv.n},{_fmt(lv.E.real)},{_fmt(lv.E.imag)},{_fmt(res)},{_fmt(scale)},{ok}"
        )
    if p.branch is Branch.HERMITIAN:
        report = compare(p, levels, cfg.oracle_cfg)
        out.append(f"Oracle comparison (relative tolerance {report.rel_tol:g}):")
        out.append("n,E_analytic,E_oracle,abs_diff,rel_diff,grid_convergence_est,skipped")
        for row in report.rows:
            if row.skipped:
                out.append(f"{row.n},{_fmt(row.E_analytic.real)},,,,,{row.skipped}")
            else:
                out.append(
                    f"{row.n},{_fmt(row.E_analytic.real)},{_fmt(row.E_oracle)},"
                    f"{_fmt(row.abs_diff)},{_fmt(row.rel_diff)},{_fmt(row.grid_convergence_est)},"
                )
        all_ok &= report.ok
        out.append(f"worst relative diff: {_fmt(report.worst_rel_diff)}")
    else:
        out.append(f"Oracle comparison: skipped ({p.branch.value} branch)")
    out.append(f"verify: {'PASS' if all_ok else 'FAIL'}")
    _emit(cfg, "\n".join(out) + "\n")
    return 0 if all_ok else 1


def run_wavefunction(cfg: RunConfig) -> int:
    p = cfg.params
    levels = spectrum(p, cfg.n_max)
    if not levels:
        sys.stderr.write("no bound level at n = 0 for these parameters\n")
        return 2
    ocfg = cfg.oracle_cfg.resolve(p)
    x = np.linspace(p.domain_start(), ocfg.x_max, min(ocfg.n_points, 2000))
    records: list[dict[str, object]] = []
    for lv in levels:
        if LevelFlag.NORMALIZABLE_MU_POSITIVE not in lv.flags:
            continue
        w = make_superpotential(p, lv.E, lv.n)
        psi = ground_state_from_W(w, x, hermitian=p.branch is Branch.HERMITIAN)
        for xi, vi in zip(psi.x, psi.values):
            records.append({"n": lv.n, "x": float(xi), "re_psi": float(vi.real), "im_psi": float(vi.imag)})
    if cfg.fmt == "json":
        payload = {
            "command": "wavefunction",
            "params": _params_record(p),
            "note": WAVEFORM_NOTE,
            "samples": records,
        }
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(cfg, _records_to_csv(records, ["n", "x", "re_psi", "im_psi"]))
    return 0


def run_sweep(cfg: RunConfig) -> int:
    p, key = cfg.params, cfg.sweep_key
    # Every sweep value is validated before any solve starts.
    field = "lam" if key == "lambda" else key
    swept: list[PotentialParams] = []
    for v in cfg.sweep_values:
        try:
            swept.append(replace(p, **{field: v}))
        except ValueError as exc:
            sys.stderr.write(f"sweep value {key}={v:g} rejected: {exc}\n")
            return 1
    records = [
        {"sweep_key": key, "sweep_value": float(v), **_level_record(lv)}
        for v, p_val in zip(cfg.sweep_values, swept)
        for lv in spectrum(p_val, cfg.n_max)
    ]
    columns = ["sweep_key", "sweep_value"] + _LEVEL_COLUMNS
    if cfg.fmt == "json":
        payload = {"command": "sweep", "params": _params_record(p), "rows": records}
        _emit(cfg, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(cfg, _records_to_csv(records, columns))
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        with warnings.catch_warnings():
            warnings.simplefilter("once")
            return _DISPATCH[cfg.command](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except KGHierarchyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
