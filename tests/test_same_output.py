"""tools/same_output.py: the output comparison against another tree."""

import importlib.util
from pathlib import Path

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
    # 1e-3 is reported with that change and its line.
    out = same_output.run(ROOT, spectrum[0], tmp_path)[1].decode().splitlines()
    fields = out[2].split(",")
    fields[1] = "%.17g" % (float(fields[1]) * (1.0 + 1e-3))
    moved = "\n".join([*out[:2], ",".join(fields), *out[3:]]) + "\n"
    (fake / "cli.py").write_text(f"import sys\n\ndef main():\n    sys.stdout.write({moved!r})\n    return 0\n")
    (line,) = same_output.differing(tmp_path / "fake", spectrum, tmp_path)
    assert line.endswith(f": stdout differ (largest relative change 0.001, stdout line 3: {out[2]})")


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
    assert "(largest relative change 1e-12, stdout line 1: " in line
