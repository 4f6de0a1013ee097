"""Command-line interface: config parsing, output contracts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kg_hierarchy
from kg_hierarchy.cli import main, parse_config

DATA = Path(__file__).parent / "data"

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


class TestErrorExit:
    @pytest.mark.parametrize("S0", ["0.48", "0.3"])
    def test_hermitian_discriminant_bound(self, tmp_path, S0):
        # Gamma1 below -(q*lam)^2/4: a typed error and exit 1, never a traceback
        # or a silent "no bound level".
        cfg = write_cfg(tmp_path, f"V0 = 0.5\nS0 = {S0}\nlambda = 0.2\nq = 1\nm = 1\n")
        src = str(Path(kg_hierarchy.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "kg_hierarchy.cli", "spectrum", "--config", cfg],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert any(line.startswith("error:") and "discriminant" in line for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def run_cli_fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a new interpreter, the way a user starts it."""
    src = str(Path(kg_hierarchy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kg_hierarchy.cli", *argv], capture_output=True, text=True, env=env)


class TestConfigErrorExit:
    BASE = {"V0": "0", "S0": "1", "lambda": "0.2", "q": "1", "m": "1"}

    @pytest.mark.parametrize(
        "command,overrides,extra,fragment",
        [
            ("verify", {"oracle.n_points": "32"}, (), "n_points"),
            ("verify", {"oracle.fd_order": "3"}, (), "fd_order"),
            ("verify", {"oracle.x_max": "1"}, (), "x_max"),
            ("spectrum", {"n_max": "-1"}, (), "n_max"),
            ("spectrum", {"V0": "nan"}, (), "V0 must be finite"),
            ("spectrum", {"S0": "nan"}, (), "S0 must be finite"),
            ("spectrum", {"VI": "inf", "branch": "NonHermitian"}, (), "VI must be finite"),
            ("spectrum", {"lambda": "inf"}, (), "lam must be finite"),
            ("spectrum", {"q": "nan"}, (), "q must be finite"),
            ("spectrum", {"m": "inf"}, (), "m must be finite"),
            ("spectrum", {}, ("--jobs", "0"), "--jobs"),
            ("spectrum", {}, ("--jobs", "-1"), "--jobs"),
        ],
        ids=["n_points", "fd_order", "x_max", "n_max", "V0", "S0", "VI", "lambda", "q", "m", "jobs0", "jobs-1"],
    )
    def test_invalid_input_is_config_error(self, tmp_path, command, overrides, extra, fragment):
        # Each input used to pass validation or escape as a raw ValueError.
        body = "".join(f"{k} = {v}\n" for k, v in {**self.BASE, **overrides}.items())
        proc = run_cli_fresh(command, "--config", write_cfg(tmp_path, body), *extra)
        assert proc.returncode == 1
        assert any(line.startswith("config error:") and fragment in line for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestVerifyCommand:
    CFG = "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 2\noracle.n_points = 1500\n"

    def test_hermitian_verify_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "Riccati residuals" in out
        assert "Oracle comparison" in out
        assert "verify: PASS" in out

    def test_perturbed_mu_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.CFG)
        assert main(["verify", "--config", cfg, "--perturb-mu", "1e-3"]) == 1
        assert "verify: FAIL" in capsys.readouterr().out

    def test_pt_branch_skips_oracle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nbranch = PTSymmetric\nn_max = 2\n")
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "Oracle comparison: skipped (PTSymmetric branch)" in out


class TestWavefunctionCommand:
    def test_csv_columns_and_levels(self, tmp_path):
        cfg = write_cfg(tmp_path, "V0 = 0\nS0 = 1\nlambda = 0.2\nq = 1\nm = 1\nn_max = 1\noracle.n_points = 400\n")
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", cfg, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,x,re_psi,im_psi"
        ns = {int(line.split(",")[0]) for line in lines[1:]}
        assert ns == {0, 1}

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

    def test_sweep_with_q_zero_rejected_before_solving(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.BASE + "sweep_key = q\nsweep_values = 0.5,0,1.5\n")
        assert main(["sweep", "--config", cfg]) == 1
        assert "q = 0" in capsys.readouterr().err

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

    def test_sweep_key_without_sweep_command_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, self.BASE + "sweep_key = q\nsweep_values = 0.5\n")
        assert main(["spectrum", "--config", cfg]) == 1
