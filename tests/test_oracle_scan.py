"""tools/oracle_scan.py: the grid-size scan of the oracle's one-shot root check."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("oracle_scan", ROOT / "tools" / "oracle_scan.py")
oracle_scan = importlib.util.module_from_spec(_spec)
sys.modules["oracle_scan"] = oracle_scan  # its dataclass looks up its module
_spec.loader.exec_module(oracle_scan)


def test_small_range(capsys):
    # Set B's level 0 at 372 points stalled while the wall closure switched with E.
    assert oracle_scan.main(["--sets", "B,D", "--start", "372", "--stop", "381", "--step", "9"]) == 0
    b, d = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"B: 2 solves, errors: none, rel error > 0\.01: [0-2], coarse wall: 2, worst: \S+ at N = 3(72|81)", b)
    assert re.fullmatch(r"D: 4 solves, errors: none, rel error > 0\.01: 0, coarse wall: 0, worst: \S+ at N = 3(72|81)", d)


@pytest.mark.parametrize(
    "argv", [["--sets", "E"], ["--start", "32"], ["--step", "0"], ["--start", "500", "--stop", "400"]],
    ids=["set", "start", "step", "empty"],
)
def test_bad_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        oracle_scan.main(argv)
    assert exc.value.code == 2
