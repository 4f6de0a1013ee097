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
