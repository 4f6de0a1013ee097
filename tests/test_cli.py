"""Command-line interface: config parsing, output contracts, exit codes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kg_hierarchy
from kg_hierarchy.cli import build_run_config, main, parse_args, parse_config

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"

SET_A_CFG = DATA / "set_a.cfg"
GOLDEN_A = DATA / "golden_spectrum_set_a.csv"


def read_levels_json(path: Path) -> list[dict]:
    """The JSON reader shipped with the tests; used for round-trip checks."""
    payload = json.loads(Path(path).read_text())
    assert payload["command"] in {"spectrum", "sweep", "wavefunction"}
    key = {"spectrum": "levels", "sweep": "rows", "wavefunction": "samples"}[payload["command"]]
    return payload[key]


def write_cfg(tmp_path: Path, body: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(body)
    return str(path)


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        cfg = write_cfg(tmp_path, "# header\n\nV0 = 0\nS0=1\nlambda = 0.2\nq = 1  # unit deformation\nm = 1\n")
        raw = parse_config(cfg)
        assert raw["_params"].q == 1.0

    def test_unknown_key_cites_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nbogus = 3\nlambda = 0.2\nq = 1\nm = 1\n")
        with pytest.raises(Exception, match="line 3"):
            parse_config(cfg)

    def test_bad_float_cites_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = one\nlambda = 0.2\nq = 1\nm = 1\n")
        with pytest.raises(Exception, match="line 2"):
            parse_config(cfg)

    def test_q_zero_rejected_at_parse_time(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 0\nm = 1\n")
        assert main(["spectrum", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "q" in err and "nonzero" in err

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "V0 = 0\nV0 = 1\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\n")
        with pytest.raises(Exception, match="duplicate"):
            parse_config(cfg)

    def test_readme_config_example(self, tmp_path):
        # The fenced example in README.md is a valid sweep configuration.
        block = re.search(r"`#` comments:\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
        cfg_path = write_cfg(tmp_path, block)
        raw = parse_config(cfg_path)
        assert raw["_params"] == kg_hierarchy.PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
        cfg = run_config(["sweep", "--config", cfg_path])
        assert cfg.oracle_cfg == kg_hierarchy.OracleConfig(n_points=4000)
        assert (cfg.n_max, cfg.sweep_key, cfg.sweep_values) == (8, "q", (0.5, 0.75, 1.0, 1.25, 1.5))


class TestSpectrumCommand:
    def test_golden_file_byte_identical(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", str(SET_A_CFG), "--output", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_A.read_bytes()

    def test_determinism_across_runs(self, tmp_path):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["spectrum", "--config", str(SET_A_CFG), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_lf_line_endings_and_header(self):
        raw = GOLDEN_A.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0]
        assert header == "n,re_E,im_E,re_epsilon,im_epsilon,re_mu,im_mu,residual,flags"

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--config", str(SET_A_CFG), "--format", "json", "--output", str(out)]) == 0
        levels = read_levels_json(out)
        assert len(levels) == 8
        csv_rows = GOLDEN_A.read_text().splitlines()[1:]
        for rec, row in zip(levels, csv_rows):
            cells = row.split(",")
            assert rec["n"] == int(cells[0])
            assert rec["re_E"] == float(cells[1])
            assert rec["residual"] == float(cells[7])

    def test_no_root_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "V0 = 0.001\nS0 = 0.001\nlambda = 5\nq = 1\nm = 1\n")
        assert main(["spectrum", "--config", cfg]) == 2


def run_python_fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run python with argv in a new interpreter that imports this checkout."""
    src = str(Path(kg_hierarchy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_cli_fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a new interpreter, the way a user starts it."""
    return run_python_fresh("-m", "kg_hierarchy.cli", *argv)


def run_config(argv):
    """The RunConfig that main builds from argv."""
    return build_run_config(parse_args(argv))


class TestArgv:
    """The command lines of the CLI: what it accepts, its usage errors (exit 2) and its help (exit 0)."""

    # Each row gives the RunConfig of the first row of its group; "OTHER" names a
    # config that a later --config replaces, so it is never read.
    SAME_CONFIG = [
        ["spectrum", "--config", "CFG", "--output", "OUT", "--format", "json", "--jobs", "3"],
        ["spectrum", "--config=CFG", "--output=OUT", "--format=json", "--jobs=3"],
        ["spectrum", "--jobs", "3", "--format", "json", "--output", "OUT", "--config", "CFG"],
        ["spectrum", "--conf", "CFG", "--out=OUT", "--form", "json", "--j", "3"],
        ["spectrum", "--config", "OTHER", "--format", "csv", "--output", "x.csv", "--jobs", "1",
         "--config", "CFG", "--format", "json", "--output", "OUT", "--jobs", "3"],
    ]
    NEGATIVE_PERTURB = [
        ["verify", "--config", "CFG", "--perturb-mu", "-0.001"],
        ["verify", "--perturb-mu=-1e-3", "--config", "CFG"],
        ["verify", "--config", "CFG", "--pert", "-.001", "--jobs", "2"],
    ]
    USAGE_ERRORS = {
        "no-command": [],
        "unknown-command": ["solve", "--config", "CFG"],
        "options-before-command": ["--config", "CFG", "spectrum"],
        "missing-config": ["spectrum", "--output", "OUT"],
        "trailing-option": ["spectrum", "--config", "CFG", "--output"],
        "trailing-config": ["sweep", "--config"],
        "option-as-value": ["spectrum", "--config", "--output", "OUT"],
        "format-xml": ["spectrum", "--config", "CFG", "--format", "xml"],
        "jobs-two": ["sweep", "--config", "CFG", "--jobs", "two"],
        "perturb-mu-float": ["verify", "--config", "CFG", "--perturb-mu", "tiny"],
        "perturb-mu-spectrum": ["spectrum", "--config", "CFG", "--perturb-mu", "1e-3"],
        "unknown-option": ["spectrum", "--config", "CFG", "--seed", "1"],
        "stray-argument": ["spectrum", "--config", "CFG", "extra"],
    }
    HELP = [["-h"], ["--help"], ["spectrum", "-h"], ["verify", "--config", "CFG", "--help"], ["sweep", "--he"]]

    @staticmethod
    def argv(row, tmp_path):
        names = {"CFG": str(SET_A_CFG), "OUT": str(tmp_path / "out"), "OTHER": str(tmp_path / "missing.cfg")}
        return [names.get(arg, arg.replace("CFG", str(SET_A_CFG)).replace("OUT", str(tmp_path / "out")))
                for arg in row]

    @pytest.mark.parametrize("group", [SAME_CONFIG, NEGATIVE_PERTURB], ids=["spectrum", "verify-negative"])
    def test_equivalent_command_lines(self, tmp_path, group):
        first, *rest = (run_config(self.argv(row, tmp_path)) for row in group)
        assert all(cfg == first for cfg in rest)

    def test_parsed_values(self, tmp_path):
        cfg = run_config(self.argv(self.SAME_CONFIG[0], tmp_path))
        assert (cfg.command, cfg.output_path, cfg.fmt, cfg.perturb_mu) == ("spectrum", str(tmp_path / "out"), "json", 0.0)
        assert cfg.params == parse_config(SET_A_CFG)["_params"]
        cfg = run_config(self.argv(self.NEGATIVE_PERTURB[0], tmp_path))
        assert (cfg.command, cfg.output_path, cfg.fmt, cfg.perturb_mu) == ("verify", None, "csv", -1e-3)

    def test_negative_jobs_is_a_config_error(self, capsys):
        assert main(["spectrum", "--config", str(SET_A_CFG), "--jobs", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --jobs must be >= 1, got -1\n"

    @pytest.mark.parametrize("row", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_usage_error_exits_2(self, tmp_path, capsys, row):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(row, tmp_path))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: kg-hierarchy ")
        assert error.startswith("kg-hierarchy: error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", HELP, ids=["-h", "--help", "command-h", "command-help", "--he"])
    def test_help_exits_0(self, tmp_path, capsys, row):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(row, tmp_path))
        assert exc.value.code in (0, None)
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: kg-hierarchy ") and captured.err == ""
        for name in ("spectrum", "wavefunction", "verify", "sweep", "--config", "--perturb-mu"):
            assert name in captured.out

    def test_exit_codes_of_a_fresh_process(self):
        proc = run_cli_fresh("spectrum", "--format", "xml")
        assert (proc.returncode, proc.stdout, len(proc.stderr.splitlines())) == (2, "", 2)
        proc = run_cli_fresh("--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: kg-hierarchy ") and proc.stderr == ""


class TestErrorExit:
    @pytest.mark.parametrize("S0", ["0.48", "0.3"])
    def test_hermitian_discriminant_bound(self, tmp_path, S0):
        # Gamma1 below -(q*lam)^2/4: a typed error and exit 1, never a traceback
        # or a silent "no bound level".
        cfg = write_cfg(tmp_path, f"V0 = 0.5\nS0 = {S0}\nlambda = 0.2\nq = 1\nm = 1\n")
        proc = run_cli_fresh("spectrum", "--config", cfg)
        assert proc.returncode == 1
        assert any(line.startswith("error:") and "discriminant" in line for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_unallocatable_oracle_grid_is_one_error_line(self, tmp_path):
        # 1e12 points need 7.28 TiB for the box alone; numpy's request is refused
        # before any page is touched.  It ended in an _ArrayMemoryError traceback.
        cfg = write_cfg(tmp_path, SET_A_CFG.read_text() + "oracle.n_points = 1000000000000\n")
        proc = run_cli_fresh("verify", "--config", cfg)
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: Unable to allocate ")
        assert proc.stdout == ""

    def test_gamma_warning_is_one_stderr_line(self, tmp_path):
        # Set B has Gamma1 = 0: one warning line naming the parameters, with no
        # "<string>:10:" location and no echoed source line.
        cfg = write_cfg(tmp_path, "V0 = 0.25\nS0 = 0.25\nlambda = 0.2\nq = 1\nm = 1\nn_max = 8\n")
        proc = run_cli_fresh("spectrum", "--config", cfg)
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert "GammaPositivityWarning" in lines[0] and "V0 = 0.25, S0 = 0.25" in lines[0]

    def test_gamma_warning_is_one_line_per_sweep(self, tmp_path):
        # The base parameters and each sweep point (built by PotentialParams._replace)
        # raise the same Gamma1 warning; it is shown once.
        cfg = write_cfg(tmp_path, "V0 = 0.25\nS0 = 0.25\nlambda = 0.2\nq = 1\nm = 1\nn_max = 8\n"
                        "sweep_key = q\nsweep_values = 0.9, 1.1\n")
        proc = run_cli_fresh("sweep", "--config", cfg)
        assert proc.returncode == 0
        (line,) = proc.stderr.splitlines()
        assert line.startswith("warning: GammaPositivityWarning: Gamma1 ") and "V0 = 0.25, S0 = 0.25" in line


class TestConfigErrorExit:
    BASE = {"V0": "0", "S0": "1", "lambda": "0.2", "q": "1", "m": "1"}

    @pytest.mark.parametrize(
        "command,overrides,extra,fragment",
        [
            ("verify", {"oracle.n_points": "32"}, (), "n_points"),
            # spectrum and sweep check a given key too, without loading the oracle.
            ("spectrum", {"oracle.n_points": "32"}, (), "oracle: n_points"),
            # The stencil is fixed and the box ends at 40/lambda; their old keys are unknown.
            ("sweep", {"sweep_key": "q", "sweep_values": "1", "oracle.x_max": "1"}, (), "unknown key 'oracle.x_max'"),
            ("verify", {"oracle.fd_order": "4"}, (), "unknown key 'oracle.fd_order'"),
            ("verify", {"oracle.x_max": "200"}, (), "unknown key 'oracle.x_max'"),
            # The deformation pole ln(q)/lambda = 207.2 lies right of the box end 40/lambda = 200.
            ("verify", {"q": "1e18", "oracle.n_points": "500"}, (), "deformation pole"),
            ("wavefunction", {"q": "1e18"}, (), "deformation pole"),
            # 40/lambda overflows to inf.
            ("verify", {"lambda": "1e-310"}, (), "40/lam = inf must be finite"),
            ("wavefunction", {"lambda": "1e-310"}, (), "40/lam = inf must be finite"),
            ("spectrum", {"n_max": "-1"}, (), "n_max"),
            ("spectrum", {"V0": "nan"}, (), "V0 must be finite"),
            ("spectrum", {"S0": "nan"}, (), "S0 must be finite"),
            ("spectrum", {"VI": "inf", "branch": "NonHermitian"}, (), "VI must be finite"),
            ("spectrum", {"lambda": "inf"}, (), "lam must be finite"),
            ("spectrum", {"q": "nan"}, (), "q must be finite"),
            ("spectrum", {"m": "inf"}, (), "m must be finite"),
            ("spectrum", {}, ("--jobs", "0"), "--jobs"),
            ("spectrum", {}, ("--jobs", "-1"), "--jobs"),
            ("verify", {}, ("--format", "json"), "verify writes text"),
            # sweep_values on another command is an error, not ignored.
            ("spectrum", {"sweep_values": "1,2"}, (), "sweep_values is only valid with the sweep command, not 'spectrum'"),
            ("verify", {"sweep_values": "1,2"}, (), "sweep_values is only valid with the sweep command, not 'verify'"),
        ],
        ids=["n_points", "n_points-spectrum", "x_max-sweep", "fd_order", "x_max", "box-pole-verify", "box-pole-wavefunction",
             "box-overflow-verify", "box-overflow-wavefunction", "n_max", "V0", "S0",
             "VI", "lambda", "q", "m", "jobs0", "jobs-1", "verify-json", "sweep_values-spectrum", "sweep_values-verify"],
    )
    def test_invalid_input_is_config_error(self, tmp_path, command, overrides, extra, fragment):
        # Each input used to pass validation or escape as a raw ValueError.
        body = "".join(f"{k} = {v}\n" for k, v in {**self.BASE, **overrides}.items())
        proc = run_cli_fresh(command, "--config", write_cfg(tmp_path, body), *extra)
        assert proc.returncode == 1
        assert any(line.startswith("config error:") and fragment in line for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestConfigErrorLine:
    BASE = {"V0": "0", "S0": "1", "lambda": "0.2", "q": "1", "m": "1"}

    @pytest.mark.parametrize(
        "overrides,key,fragment",
        [
            ({"V0": "inf"}, "V0", "V0 must be finite"),
            ({"S0": "nan"}, "S0", "S0 must be finite"),
            ({"VI": "nan", "branch": "NonHermitian"}, "VI", "VI must be finite"),
            ({"m": "0"}, "m", "mass m must be positive"),
            ({"lambda": "-0.5"}, "lambda", "lam must be positive"),
            ({"VI": "0.1"}, "VI", "VI must be zero"),
            ({"VI": "0.1", "branch": "PTSymmetric"}, "VI", "VI must be zero"),
            ({"q": "1e-200", "lambda": "1e-200"}, "q", "underflows"),
        ],
        ids=["V0", "S0", "VI-nan", "m", "lambda", "VI-Hermitian", "VI-PTSymmetric", "q-lambda-underflow"],
    )
    def test_error_cites_the_line_of_its_key(self, tmp_path, overrides, key, fragment):
        # Every PotentialParams error used to cite the line of q.
        cfg = {**self.BASE, **overrides}
        line_no = list(cfg).index(key) + 1
        body = "".join(f"{k} = {v}\n" for k, v in cfg.items())
        proc = run_cli_fresh("spectrum", "--config", write_cfg(tmp_path, body))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: line {line_no}: ")
        assert fragment in proc.stderr and "Traceback" not in proc.stderr

    def test_non_utf8_file_cites_its_line(self, tmp_path):
        # A byte that is not UTF-8 used to end in a raw UnicodeDecodeError.
        path = tmp_path / "run.cfg"
        path.write_bytes(b"V0 = 0\nS0 = 1\xff\nlambda = 0.2\nq = 1\nm = 1\n")
        proc = run_cli_fresh("spectrum", "--config", str(path))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["config error: line 2: not UTF-8 text: byte 0xff"]
        assert proc.stdout == ""


# Runs main() on each argv of a JSON list and reports, after the import and after
# each command, its exit code and whether scipy is loaded.
# The modules that only verify and wavefunction need, as loaded after each step.
SCIPY_PROBE = """
import json, sys
from kg_hierarchy.cli import main
watch = ("numpy", "scipy", "kg_hierarchy.oracle", "kg_hierarchy.wavefunctions")
loaded = lambda: [name for name in watch if name in sys.modules]
seen = [["import", None, loaded()]]
for argv in json.loads(sys.argv[1]):
    seen.append([argv[0], main(argv), loaded()])
print(json.dumps(seen))
"""

# Exit codes of CLI runs (one tab-separated argv each) and whether json got loaded;
# the probe itself imports no json.
JSON_PROBE = """
import sys
from kg_hierarchy.cli import main
codes = [main(argv.split("\\t")) for argv in sys.argv[1:]]
sys.stdout.write(repr([codes, "json" in sys.modules]))
"""

# The package namespace before and after its first public name.
LAZY_PROBE = """
import json, sys
import kg_hierarchy as kg
loaded = lambda: sorted(name for name in sys.modules if name.startswith("kg_hierarchy."))
seen = {"import": loaded(), "dir_covers_all": set(kg.__all__) <= set(dir(kg))}
try:
    kg.no_such_name
except AttributeError:
    seen["unknown_name"] = loaded()
kg.compare = "bound before"
kg.GammaPositivityWarning
seen["first_name"] = loaded()
seen["all_bound"] = all(name in vars(kg) for name in kg.__all__)
seen["kept"] = kg.compare
print(json.dumps(seen))
"""

STAR_PROBE = """
import json
import kg_hierarchy
from kg_hierarchy import *
print(json.dumps(sorted(set(kg_hierarchy.__all__) - set(globals()))))
"""


LAPACK_PROBE = """
import json, sys
from kg_hierarchy.cli import main
rc = main(json.loads(sys.argv[1]))
loaded = ("scipy.linalg._flapack", "scipy.linalg", "numpy.random")
print(json.dumps([rc, *(name in sys.modules for name in loaded)]))
"""

# scipy is hidden from the path finder, as if it were not installed.
NO_SCIPY_PROBE = """
import importlib.machinery, json, sys

class NoScipy(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        return None if name.partition(".")[0] == "scipy" else super().find_spec(name, path, target)

sys.meta_path = [NoScipy if f is importlib.machinery.PathFinder else f for f in sys.meta_path]

import kg_hierarchy as kg
from kg_hierarchy.cli import main

def raised(call):
    try:
        call()
    except ModuleNotFoundError as exc:
        return [type(exc).__name__, exc.name, str(exc)]

rc = main(json.loads(sys.argv[1]))
p = kg.PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
error = raised(lambda: kg.compare(p, kg.solve_level(p, 0), kg.OracleConfig(n_points=500)))
print(json.dumps([rc, error, raised(lambda: __import__("scipy.linalg"))]))
"""

# numpy is hidden from the path finder; runs main() on each argv of a JSON list and
# prints their exit codes and the error of importing numpy.
NO_NUMPY_PROBE = """
import importlib.machinery, json, sys

class NoNumpy(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        return None if name.partition(".")[0] == "numpy" else super().find_spec(name, path, target)

sys.meta_path = [NoNumpy if f is importlib.machinery.PathFinder else f for f in sys.meta_path]

from kg_hierarchy.cli import main

def raised(call):
    try:
        call()
    except ModuleNotFoundError as exc:
        return [type(exc).__name__, exc.name, str(exc)]

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, raised(lambda: __import__("numpy"))]))
"""

SHARED_LAPACK_PROBE = """
import json, sys
import numpy as np
import kg_hierarchy as kg
from kg_hierarchy.oracle import _lapack

b = kg.PotentialParams(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0)
assert kg.compare(b, kg.solve_level(b, 0), kg.OracleConfig(n_points=2000)).ok
a = kg.PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
cfg = kg.OracleConfig(n_points=2000)
E = max(lv.E.real for lv in kg.solve_level(a, 0))
before = kg.discretize(a, E, cfg).eigenvalues(3)
import scipy.linalg
same = [getattr(scipy.linalg.lapack, f) is getattr(_lapack(), f) for f in ("dgbtrf", "dgbtrs", "dpbtrf")]
one_module = sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack is _lapack()

op = kg.discretize(a, E, cfg)
# A fresh operator after scipy.linalg is loaded, the same certified eigenpairs: bit-identical.
eigs = op.eigenvalues(3)
checks = [np.array_equal(eigs, before)]
# The O(N) shift-invert path agrees with eig_banded to rounding.
ref = scipy.linalg.eig_banded(op.bands, lower=False, eigvals_only=True, select="i", select_range=(0, 3))
checks += [abs(eigs[k] - ref[k]) <= 1e-12 * max(abs(ref[k]), 1.0) for k in range(4)]
print(json.dumps({"same_routines": same, "one_module": one_module, "eig_banded_matches": bool(all(checks))}))
"""


# Every library call that reaches the oracle, BandedOperator.eigenvalues included,
# loads scipy's LAPACK extension and never the scipy.linalg package.
NO_SCIPY_LINALG_PROBE = """
import json, sys
import kg_hierarchy as kg

a = kg.PotentialParams(V0=0.0, S0=1.0, lam=0.2, q=1.0, m=1.0)
cfg = kg.OracleConfig(n_points=2000)
levels = kg.solve_level(a, 0)
E = max(lv.E.real for lv in levels)
kg.discretize(a, E, cfg).eigenvalues(3)
assert kg.compare(a, levels, cfg).ok
print(json.dumps([name in sys.modules for name in ("scipy.linalg._flapack", "scipy.linalg")]))
"""


# Whether dataclasses, inspect, numpy, the oracle, argparse and gettext are loaded
# before the package import, after it and after each CLI run (one tab-separated argv each).
HEAVY_IMPORT_PROBE = """
import json, sys
modules = ("dataclasses", "inspect", "numpy", "kg_hierarchy.oracle", "argparse", "gettext")
heavy = lambda: [name in sys.modules for name in modules]
seen = [heavy()]
from kg_hierarchy.cli import main
seen.append(heavy())
for argv in sys.argv[1:]:
    assert main(argv.split("\\t")) == 0
    seen.append(heavy())
print(json.dumps(seen))
"""

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestStartupImports:
    def test_closed_form_commands_never_load_dataclasses(self, tmp_path):
        # dataclasses loads inspect, ast, dis and tokenize: about 10 ms of every start;
        # numpy about 0.1 s; argparse with its gettext lookups about 5 ms.  A given
        # oracle.n_points is checked without the oracle.
        runs = []
        for extra in ("", "oracle.n_points = 400\n"):
            base = SET_A_CFG.read_text() + extra
            cfg = write_cfg(tmp_path, base, f"run{len(runs)}.cfg")
            sweep = write_cfg(tmp_path, base + "sweep_key = q\nsweep_values = 0.9, 1.1\n", f"sweep{len(runs)}.cfg")
            runs += [
                ["spectrum", "--config", cfg, "--output", str(tmp_path / "s.csv")],
                ["sweep", "--config", sweep, "--output", str(tmp_path / "sw.csv")],
                ["wavefunction", "--config", cfg, "--output", str(tmp_path / "wf.csv")],
            ]
        proc = run_python_fresh("-c", HEAVY_IMPORT_PROBE, *("\t".join(argv) for argv in runs))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[False] * 6] * (2 + len(runs))

    def test_closed_form_commands_run_without_numpy(self, tmp_path):
        # With numpy hidden, each command writes the bytes it writes with numpy installed.
        cfg = write_cfg(tmp_path, SET_A_CFG.read_text() + "oracle.n_points = 400\n")
        sweep = write_cfg(tmp_path, SET_A_CFG.read_text() + "sweep_key = q\nsweep_values = 0.9, 1.1\n", "sweep.cfg")
        runs = [
            ["spectrum", "--config", cfg],
            ["sweep", "--config", sweep],
            ["wavefunction", "--config", cfg],
            ["wavefunction", "--config", cfg, "--format", "json"],
        ]
        for i, argv in enumerate(runs):
            assert main([*argv, "--output", str(tmp_path / f"with{i}.out")]) == 0
        blocked = [[*argv, "--output", str(tmp_path / f"without{i}.out")] for i, argv in enumerate(runs)]
        proc = run_python_fresh("-c", NO_NUMPY_PROBE, json.dumps(blocked))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0] * len(runs), ["ModuleNotFoundError", "numpy", "No module named 'numpy'"]]
        for i in range(len(runs)):
            assert (tmp_path / f"without{i}.out").read_bytes() == (tmp_path / f"with{i}.out").read_bytes()

    def test_traced_sweep_counts_every_params_build(self, tmp_path):
        # The tracer wraps PotentialParams.__init__; the base point and the two
        # sweep points are one span each.
        sweep = write_cfg(tmp_path, SET_A_CFG.read_text() + "sweep_key = q\nsweep_values = 0.9, 1.1\n")
        spans = tmp_path / "spans.json"
        proc = run_python_fresh(
            str(TRACING), "--spans", str(spans), "--run-id", "t", "--",
            "sweep", "--config", sweep, "--output", str(tmp_path / "sw.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        names = [span[2] for span in json.loads(spans.read_text())["spans"]]
        assert names.count("potential.params") == 3


class TestScipyOnlyForVerify:
    def test_closed_form_commands_never_load_scipy(self, tmp_path):
        sweep = write_cfg(tmp_path, SET_A_CFG.read_text() + "sweep_key = q\nsweep_values = 0.5, 1.0, 1.5\n")
        runs = [
            ["spectrum", "--config", str(SET_A_CFG), "--output", str(tmp_path / "s.csv")],
            ["sweep", "--config", sweep, "--output", str(tmp_path / "sw.csv")],
            ["wavefunction", "--config", str(SET_A_CFG), "--output", str(tmp_path / "wf.csv")],
        ]
        proc = run_python_fresh("-c", SCIPY_PROBE, json.dumps(runs))
        assert proc.returncode == 0, proc.stderr
        # No closed-form command loads numpy or the oracle; wavefunction loads its own module.
        assert json.loads(proc.stdout) == [
            ["import", None, []], ["spectrum", 0, []], ["sweep", 0, []], ["wavefunction", 0, ["kg_hierarchy.wavefunctions"]]
        ]

    def test_csv_tables_never_load_json(self, tmp_path):
        sweep = write_cfg(tmp_path, SET_A_CFG.read_text() + "sweep_key = q\nsweep_values = 0.5, 1.0, 1.5\n")
        runs = [
            ["spectrum", "--config", str(SET_A_CFG), "--output", str(tmp_path / "s.csv")],
            ["sweep", "--config", sweep, "--output", str(tmp_path / "sw.csv")],
        ]
        proc = run_python_fresh("-c", JSON_PROBE, *("\t".join(argv) for argv in runs))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[[0, 0], False]"

    def test_package_namespace_is_lazy(self):
        # No submodule at import; the first public name binds all of __all__ and
        # keeps a name that was bound before it.
        proc = run_python_fresh("-c", LAZY_PROBE)
        assert proc.returncode == 0, proc.stderr
        submodules = ["errors", "hierarchy", "oracle", "potential", "spectra", "wavefunctions"]
        assert json.loads(proc.stdout) == {
            "import": [], "dir_covers_all": True, "unknown_name": [],
            "first_name": [f"kg_hierarchy.{name}" for name in submodules],
            "all_bound": True, "kept": "bound before",
        }
        # Names that only tests used are gone from the package.
        for name in ("apply_ladder", "closed_form_psi", "deformation_kernel", "effective_potential_direct",
                     "energy_residual", "hierarchy_potential", "scalar_potential", "vector_potential"):
            with pytest.raises(AttributeError):
                getattr(kg_hierarchy, name)
            assert name not in dir(kg_hierarchy)
        # A level is its superpotential W_n, and Gamma1, Gamma2 are p.gamma1 and gamma2.
        for name in ("HierarchyLevel", "make_superpotential", "GammaPair", "gammas"):
            with pytest.raises(AttributeError):
                getattr(kg_hierarchy, name)
        # The oracle checks each root in one shot; no iteration is left to diverge.
        with pytest.raises(AttributeError):
            kg_hierarchy.OuterDivergenceError
        # The grid helpers live in wavefunctions and OracleConfig in potential; no grid module is left.
        with pytest.raises(AttributeError):
            kg_hierarchy.grid
        # The hierarchy is checked on the oracle's own operator, not on sampled partner potentials.
        for name in ("partner_eigenvalues", "partner_potentials", "superpotential_eval", "superpotential_derivative"):
            with pytest.raises(AttributeError):
                getattr(kg_hierarchy, name)
            assert name not in dir(kg_hierarchy)
        assert len(kg_hierarchy.__all__) == 35

    def test_star_import_binds_all(self):
        proc = run_python_fresh("-c", STAR_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_verify_loads_only_lapack(self, tmp_path):
        # The oracle needs scipy's f2py LAPACK extension, not the scipy.linalg
        # package, and no random generator (numpy.random loads libcrypto).
        cfg = write_cfg(tmp_path, TestVerifyCommand.CFG)
        argv = ["verify", "--config", cfg, "--output", str(tmp_path / "v.txt")]
        proc = run_python_fresh("-c", LAPACK_PROBE, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, True, False, False]

    def test_missing_scipy_fails_only_the_oracle(self, tmp_path):
        out = str(tmp_path / "s.csv")
        proc = run_python_fresh("-c", NO_SCIPY_PROBE, json.dumps(["spectrum", "--config", str(SET_A_CFG), "--output", out]))
        assert proc.returncode == 0, proc.stderr
        spectrum_rc, error, import_error = json.loads(proc.stdout)
        assert spectrum_rc == 0
        assert error == import_error == ["ModuleNotFoundError", "scipy", "No module named 'scipy'"]

    def test_verify_without_scipy_is_one_error_line(self, tmp_path):
        # The library raises ModuleNotFoundError; the CLI reports it like any
        # other solver error.
        cfg = write_cfg(tmp_path, TestVerifyCommand.CFG)
        out = tmp_path / "v.txt"
        proc = run_python_fresh("-c", NO_SCIPY_PROBE, json.dumps(["verify", "--config", cfg, "--output", str(out)]))
        assert proc.returncode == 0, proc.stderr
        verify_rc, error, _ = json.loads(proc.stdout)
        assert verify_rc == 1
        assert error == ["ModuleNotFoundError", "scipy", "No module named 'scipy'"]
        assert proc.stderr.splitlines() == ["error: No module named 'scipy'; the finite-difference verifier needs scipy"]
        assert not out.exists()

    def test_library_never_loads_scipy_linalg(self):
        proc = run_python_fresh("-c", NO_SCIPY_LINALG_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [True, False]

    def test_scipy_linalg_reuses_the_loaded_lapack(self):
        # A second load of the extension, or a scipy layout in which
        # scipy.linalg.lapack takes its routines from elsewhere, breaks the identity.
        proc = run_python_fresh("-c", SHARED_LAPACK_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "same_routines": [True, True, True], "one_module": True, "eig_banded_matches": True
        }


class TestVerifyCommand:
    CFG = "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 2\noracle.n_points = 1500\n"

    def test_hermitian_verify_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "Riccati residuals" in out
        assert "Oracle comparison" in out
        assert "verify: PASS" in out

    def test_roots_off_by_a_thousandth_fail(self, monkeypatch, capsys):
        # Set A's roots times 1 + 1e-3 still satisfy the Riccati identity, which
        # ties no level to its root; the oracle rows fail them.
        spectrum = kg_hierarchy.cli.spectrum
        monkeypatch.setattr(kg_hierarchy.cli, "spectrum",
                            lambda p, n_max: [lv._replace(E=lv.E * (1.0 + 1e-3)) for lv in spectrum(p, n_max)])
        assert main(["verify", "--config", str(SET_A_CFG)]) == 1
        out = capsys.readouterr().out.splitlines()
        riccati = out[2:out.index("Oracle comparison (relative tolerance 0.001):")]
        assert riccati and all(line.endswith(",True") for line in riccati)
        assert out[-1] == "verify: FAIL"

    def test_perturbed_mu_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG)
        assert main(["verify", "--config", cfg, "--perturb-mu", "1e-3"]) == 1
        assert "verify: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("offset,code", [("0", 0), ("1e-9", 1)])
    def test_small_perturbation_fails(self, capsys, offset, code):
        # Set A's Riccati table once passed an offset of 1e-6: sampled next to
        # the pole, its scale reached 5.8e12.
        assert main(["verify", "--config", str(SET_A_CFG), "--perturb-mu", offset]) == code
        assert capsys.readouterr().out.endswith("verify: FAIL\n" if code else "verify: PASS\n")

    def test_non_finite_perturbation_is_one_error_line(self, tmp_path, capsys):
        # --perturb-mu nan printed a nan residual row and "verify: FAIL".
        cfg = write_cfg(tmp_path, self.CFG)
        assert main(["verify", "--config", cfg, "--perturb-mu", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: mu_perturbation must be finite, got nan"]

    def test_non_normalizable_root_is_a_skipped_row(self, tmp_path, capsys):
        # Set B's level 0 has a root with Re(mu) <= 0 and no discretized
        # counterpart: its oracle row is empty, and it does not fail verify.
        p = kg_hierarchy.PotentialParams(V0=0.25, S0=0.25, lam=0.2, q=1.0, m=1.0)
        flag = kg_hierarchy.LevelFlag.NORMALIZABLE_MU_POSITIVE
        (root,) = [lv for lv in kg_hierarchy.solve_level(p, 0) if flag not in lv.flags]
        cfg = write_cfg(tmp_path, "V0 = 0.25\nS0 = 0.25\nlambda = 0.2\nq = 1\nm = 1\nn_max = 0\noracle.n_points = 2000\n")
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "0,%.17g,,,,,non-normalizable (Re mu <= 0)" % root.E.real in out
        assert out[-1] == "verify: PASS"

    @pytest.mark.parametrize("n_points,code", [(400, 1), (4000, 0)])
    def test_coarse_pole_wall_is_named_on_stderr(self, tmp_path, capsys, n_points, code):
        # Set B at 400 points (h = 0.5) is too coarse for any pole-wall row, so
        # its level 0 is far off; stderr names the grid, and stdout keeps one
        # line per oracle row.
        cfg = write_cfg(
            tmp_path, f"V0 = 0.25\nS0 = 0.25\nlambda = 0.2\nq = 1\nm = 1\nn_max = 0\noracle.n_points = {n_points}\n"
        )
        assert main(["verify", "--config", cfg]) == code
        out, err = capsys.readouterr()
        warning = (
            "warning: oracle.n_points = 400 is too coarse for the pole-wall closure; "
            "the left wall uses the plain reflection"
        )
        assert [line for line in err.splitlines() if "oracle.n_points" in line] == ([warning] if code else [])
        assert "warning" not in out

    def test_growing_left_tail_is_a_skipped_row(self, tmp_path, capsys):
        # q < 0 has no pole: psi ~ exp(-(rho/q + mu)*x) as x -> -inf, so this
        # root with Re(mu) > 0 still has a growing left tail.  Seeding the oracle
        # with it gave "converged level 0 is not bound" and exit 1.  The root is
        # 9 ulps (1e-15 relative) from the 50-digit root of the exact parameters.
        cfg = write_cfg(
            tmp_path,
            "V0 = 0.26638178622744524\nS0 = 0.2472432017163806\nlambda = 0.3322145028902941\n"
            "q = -0.7008212909761293\nm = 1\n",
        )
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "0,-0.99082084934477377,,,,,non-normalizable left tail (Re(rho/q + mu) >= 0)" in out
        assert out[-1] == "verify: PASS"

    def test_pt_branch_skips_oracle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nbranch = PTSymmetric\nn_max = 2\n")
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "Oracle comparison: skipped (PTSymmetric branch)" in out


    @pytest.mark.parametrize("branch", ["PTSymmetric", "NonHermitian"])
    def test_complex_branch_at_q_minus_one(self, tmp_path, branch):
        # q = -1 has a pole at pi/lam on the complex branches; the Riccati check
        # compares coefficients in u and samples no grid, and the oracle is skipped.
        cfg = write_cfg(tmp_path, f"V0 = 0\nS0 = 1\nlambda = 0.2\nq = -1\nm = 1\nn_max = 2\nbranch = {branch}\n")
        proc = run_cli_fresh("verify", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.endswith("verify: PASS\n")


_LEVEL_ROW = "%d" + ",%.17g" * 7 + ",%s"


class TestJsonMatchesCsv:
    # command -> (records key, CSV row format, extra config lines)
    CASES = {
        "spectrum": ("levels", _LEVEL_ROW, ""),
        "wavefunction": ("samples", "%d,%.17g,%.17g,%.17g", "oracle.n_points = 400\n"),
        "sweep": ("rows", "%s,%.17g," + _LEVEL_ROW, "sweep_key = q\nsweep_values = 0.5,0.75,1.0,1.25,1.5\n"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_json_records_are_the_csv_rows(self, tmp_path, command):
        key, row_format, extra = self.CASES[command]
        cfg = write_cfg(tmp_path, SET_A_CFG.read_text() + extra)
        outs = {}
        for fmt in ("csv", "json"):
            outs[fmt] = tmp_path / f"out.{fmt}"
            assert main([command, "--config", cfg, "--format", fmt, "--output", str(outs[fmt])]) == 0
        header, *lines = outs["csv"].read_text().splitlines()
        payload = json.loads(outs["json"].read_text())
        assert list(payload) == ["command", "params", *(["note"] if command == "wavefunction" else []), key]
        assert payload["command"] == command
        records = payload[key]
        assert len(records) == len(lines) > 0
        for record, line in zip(records, lines):
            assert ",".join(record) == header
            assert row_format % tuple(record.values()) == line


class TestWavefunctionCommand:
    def test_csv_columns_and_levels(self, tmp_path):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 1\noracle.n_points = 400\n")
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", cfg, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,x,re_psi,im_psi"
        ns = {int(line.split(",")[0]) for line in lines[1:]}
        assert ns == {0, 1}

    def test_samples_span_the_box_whatever_n_points(self, tmp_path):
        # Each normalizable root is sampled at 2000 points from domain_start() to
        # 40/lambda = 200; oracle.n_points = 400 used to cut that to 400 samples.
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 1\noracle.n_points = 400\n")
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", cfg, "--output", str(out)]) == 0
        blocks = np.loadtxt(out, delimiter=",", skiprows=1).reshape(-1, 2000, 4)
        assert blocks.shape[0] == 4
        assert np.all(blocks[:, 0, 1] == blocks[0, 0, 1]) and np.all(blocks[:, -1, 1] == 200.0)
        assert np.all(blocks[:, :, 0] == blocks[:, :1, 0])

    def test_samples_are_written_at_the_points_psi_was_computed_at(self, tmp_path):
        # At lambda = 0.3, q = 2 the first step of the grid, x[1] - x[0], is not
        # (x1 - x0)/1999.  Written as x0 + i*(x[1] - x[0]), 1998 of 2000 x values
        # were off the points psi was computed at, the last one past 40/lambda.
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.3\nq = 2\nm = 1\nn_max = 2\n")
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", cfg, "--output", str(out)]) == 0
        p = parse_config(cfg)["_params"]
        x0, x1 = p.domain_start(), p.box_end()
        blocks = np.loadtxt(out, delimiter=",", skiprows=1).reshape(-1, 2000, 4)
        assert blocks.shape[0] > 0
        for block in blocks:
            assert np.array_equal(block[:, 1], np.linspace(x0, x1, 2000))
            assert block[:, 1].max() <= x1
            l2 = np.sqrt(np.sum(block[:, 2] ** 2 + block[:, 3] ** 2) * ((x1 - x0) / 1999))
            assert l2 == pytest.approx(1.0, rel=1e-12)

    def test_json_carries_form_note(self, tmp_path):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 0\noracle.n_points = 400\n")
        out = tmp_path / "wf.json"
        assert main(["wavefunction", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "normalization" in payload["note"]


class TestSweepCommand:
    BASE = "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 2\n"

    def test_row_count_matches_levels(self, tmp_path):
        cfg = write_cfg(tmp_path, self.BASE + "sweep_key = q\nsweep_values = 0.5,0.75,1.0,1.25,1.5\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sweep_key,sweep_value,n,")
        # Three levels, two roots each, five sweep points.
        assert len(lines) - 1 == 5 * 6

    # Eight q-values each, both ends of the q ranges of the benchmark's sweeps included.
    GOLDEN_SWEEPS = ("a_hermitian", "b_hermitian", "c_nonhermitian")

    @pytest.mark.parametrize("case", GOLDEN_SWEEPS)
    def test_golden_file_byte_identical(self, tmp_path, case):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(DATA / f"sweep_{case}.cfg"), "--output", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"golden_sweep_{case}.csv").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", GOLDEN_SWEEPS)
    def test_rows_are_the_spectrum_rows_of_each_point(self, tmp_path, case, fmt):
        # Each sweep row is q,%.17g, followed by the spectrum row of that point.
        text = (DATA / f"sweep_{case}.cfg").read_text()
        values = parse_config(DATA / f"sweep_{case}.cfg")["sweep_values"]
        base = "".join(line + "\n" for line in text.splitlines() if not line.startswith(("sweep_", "q =")))

        def run(command: str, body: str) -> str:
            out = tmp_path / f"{command}.{fmt}"
            assert main([command, "--config", write_cfg(tmp_path, body), "--format", fmt, "--output", str(out)]) == 0
            return out.read_text()

        swept = run("sweep", text)
        points = [run("spectrum", base + f"q = {v!r}\n") for v in values]
        if fmt == "csv":
            header, *lines = swept.splitlines()
            expected = []
            for v, point in zip(values, points):
                point_header, *point_lines = point.splitlines()
                assert header == "sweep_key,sweep_value," + point_header
                expected += ["q,%.17g,%s" % (v, line) for line in point_lines]
        else:
            lines = [list(record.items()) for record in json.loads(swept)["rows"]]
            expected = [[("sweep_key", "q"), ("sweep_value", v), *record.items()]
                        for v, point in zip(values, points) for record in json.loads(point)["levels"]]
        assert lines == expected and len(lines) > len(values)

    def test_sweep_with_q_zero_rejected_before_solving(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.BASE + "sweep_key = q\nsweep_values = 0.5,0,1.5\n")
        assert main(["sweep", "--config", cfg]) == 1
        assert "q = 0" in capsys.readouterr().err

    def test_rejected_sweep_value_is_one_config_error_line(self, tmp_path):
        cfg = write_cfg(tmp_path, self.BASE + "sweep_key = lambda\nsweep_values = 0.2, -1\n")
        proc = run_cli_fresh("sweep", "--config", cfg)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: sweep value lambda = -1 rejected: ")

    def test_jobs_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, self.BASE + "sweep_key = q\nsweep_values = 0.5,0.75,1.0,1.25,1.5\n")
        outs = []
        for jobs, name in [("1", "s1.csv"), ("4", "s4.csv")]:
            out = tmp_path / name
            assert main(["sweep", "--config", cfg, "--jobs", jobs, "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_lambda_sweep_screening_trend(self, tmp_path):
        # Stronger screening weakens binding: eps_0 rises toward 0 and the
        # positive root climbs toward the m threshold.
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 0\n"
                                   "sweep_key = lambda\nsweep_values = 0.2,0.4,0.6,0.8\n")
        out = tmp_path / "lam.csv"
        assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        pos = [(float(r[1]), float(r[3]), float(r[5])) for r in rows if float(r[3]) > 0]
        lams = [p[0] for p in pos]
        e_plus = [p[1] for p in pos]
        eps = [p[2] for p in pos]
        assert lams == sorted(lams)
        assert all(a < b for a, b in zip(e_plus, e_plus[1:]))
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_sweep_reports_first_failing_value(self, tmp_path, capsys):
        # q = -0.79 fails at level 6 and q = 1.05 at level 0; the sweep reports
        # the error of the earlier sweep value.
        cfg = write_cfg(tmp_path, "V0 = 1.01\nS0 = -0.63\nlambda = 0.35\nq = 1\nm = 2.88\n"
                                   "branch = PTSymmetric\nn_max = 8\n"
                                   "sweep_key = q\nsweep_values = -0.5,-0.79,-1.0,1.05\n")
        assert main(["sweep", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: level 6: Newton polishing of E = 142.207")

    def test_sweep_memory_stays_small(self, tmp_path):
        # 2000 q-values, about 12,000 rows: the sweep keeps the solved levels
        # and streams the rows, which peaks near 8 MB.  The 20 MB bound catches
        # any array over all points, such as one float64 value per point and
        # per sample of a 2000-node grid (32 MB).
        rng = np.random.default_rng(7)
        values = ", ".join(repr(v) for v in np.round(rng.uniform(0.5, 4.0, 2000), 9).tolist())
        cfg = write_cfg(tmp_path, self.BASE.replace("n_max = 2", "n_max = 8")
                        + f"sweep_key = q\nsweep_values = {values}\n")
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) > 2000
        assert peak < 20e6

    def test_json_sweep_memory_stays_small(self, tmp_path):
        # The JSON text is streamed: building the whole string (4.4 MB here)
        # with its list of chunks peaked at 39 MB.
        rng = np.random.default_rng(7)
        values = ", ".join(repr(v) for v in np.round(rng.uniform(0.5, 4.0, 2000), 9).tolist())
        cfg = write_cfg(tmp_path, self.BASE.replace("n_max = 2", "n_max = 8")
                        + f"sweep_key = q\nsweep_values = {values}\n")
        out = tmp_path / "sweep.json"
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", cfg, "--output", str(out), "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_text()
        assert len(json.loads(text)["rows"]) > 2000
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert peak < 20e6

    def test_sweep_key_without_sweep_command_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, self.BASE + "sweep_key = q\nsweep_values = 0.5\n")
        assert main(["spectrum", "--config", cfg]) == 1
