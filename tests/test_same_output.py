"""tools/same_output.py: the output comparison against another tree."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def test_one_spectrum_command(tmp_path):
    argvs = same_output.commands([1], tmp_path)
    spectrum = [next(a for a in argvs if a[0] == "spectrum")]
    assert same_output.differing(ROOT, spectrum, tmp_path) == []
    # A tree whose CLI prints something else is reported.
    fake = tmp_path / "fake" / "src" / "kg_hierarchy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("def main():\n    print('other')\n    return 0\n")
    (line,) = same_output.differing(tmp_path / "fake", spectrum, tmp_path)
    assert line.startswith("spectrum --config ") and line.endswith(": stdout differ")
    # A tree that prints the same table with one number moved by a relative
    # 1e-3 is reported with that change, its column and its line.
    out = same_output.run(ROOT, spectrum[0], tmp_path)[1].decode().splitlines()
    fields = out[2].split(",")
    fields[1] = "%.17g" % (float(fields[1]) * (1.0 + 1e-3))
    moved = "\n".join([*out[:2], ",".join(fields), *out[3:]]) + "\n"
    (fake / "cli.py").write_text(f"import sys\n\ndef main():\n    sys.stdout.write({moved!r})\n    return 0\n")
    (line,) = same_output.differing(tmp_path / "fake", spectrum, tmp_path)
    assert line.endswith(": stdout differ (largest relative change: re_E 0.001 at line 3)")


def test_each_column_reports_its_own_change():
    # A residual of 1e-14 that becomes 0 is a change of 1; it does not hide
    # the change of re_E.
    mine = b"n,re_E,residual,flags\n0,0.5,0,A\n1,0.75,1e-17,A\n"
    theirs = b"n,re_E,residual,flags\n0,0.5000000000001,1e-14,A\n1,0.75,1e-17,B\n"
    changes = same_output.largest_changes(mine, theirs)
    assert changes == {"residual": (1.0, 2), "re_E": (pytest.approx(2e-13), 2)}
    line = same_output.difference("spectrum", (0, mine, b""), (0, theirs, b""))
    assert line == "spectrum: stdout differ (largest relative change: residual 1 at line 2, re_E 2e-13 at line 2)"


def test_verify_tables_and_text_lines_are_named():
    # Each table's rows are named by its own header; a number outside a
    # table by its line and position.
    mine = (b"Riccati residuals (scaled tolerance 1e-10):\nn,re_E,residual,ok\n0,-0.9,1e-17,True\n\n"
            b"Oracle comparison (relative tolerance 0.001):\nn,E_analytic,E_oracle,rel_diff\n0,-0.9,-0.9,2e-9\n")
    theirs = mine.replace(b"1e-17", b"3e-17").replace(b"2e-9", b"4e-9").replace(b"0.001", b"0.002")
    changes = same_output.largest_changes(mine, theirs)
    assert changes == {
        "residual": (pytest.approx(2 / 3), 3),
        "rel_diff": (0.5, 7),
        "line 5 field 1": (0.5, 5),
    }


def test_json_leaves_are_named_by_key():
    mine = json.dumps({"rows": [{"n": 0, "re_E": 0.5, "flags": "A"}], "analytic": [[0.25, 0.0]]}).encode()
    theirs = json.dumps({"rows": [{"n": 0, "re_E": 0.4, "flags": "B"}], "analytic": [[0.5, 0.0]]}).encode()
    assert same_output.largest_changes(mine, theirs) == {
        "re_E": (pytest.approx(0.2), None),
        "analytic": (0.5, None),
    }


def test_refine_study(tmp_path):
    # The two runs time their ladders differently; with the wall times removed
    # this tree's study matches itself.
    assert same_output.refine_differs(ROOT, tmp_path) is None
    # A tree whose oracle roots move by a relative 1e-12 is reported: it runs
    # this package with compare wrapped.
    real = ROOT / "src" / "kg_hierarchy"
    fake = tmp_path / "fake" / "src" / "kg_hierarchy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text(
        f"__path__ = [{str(real)!r}]\n"
        f"exec(open({str(real / '__init__.py')!r}).read())\n"
        "import dataclasses\n"
        "_compare = __getattr__('compare')  # the lazy namespace binds the API on first access\n\n"
        "def compare(*args):\n"
        "    report = _compare(*args)\n"
        "    moved = lambda e: None if e is None else e * (1.0 + 1e-12)\n"
        "    rows = [dataclasses.replace(r, E_oracle=moved(r.E_oracle)) for r in report.rows]\n"
        "    return dataclasses.replace(report, rows=rows)\n"
    )
    line = same_output.refine_differs(tmp_path / "fake", tmp_path)
    assert line.startswith("perfbench/refine.py --spec refine_1/refine.json: stdout differ ")
    assert line.endswith(": stdout differ (largest relative change: oracle 1e-12)")
