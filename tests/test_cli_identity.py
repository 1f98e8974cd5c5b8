import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from cli_identity import describe, numeric_diff  # noqa: E402


def test_same_tree_twice_has_no_differences():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_identity.py"), src, src, "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(" runs compared, 0 differences")


def test_numeric_diff_counts_numbers_and_their_largest_relative_difference():
    old = "frame,pe\n0,1.0\n1,-2.5e-05\nmean_pe,7\n"
    new = "frame,pe\n0,1.0000000000000002\n1,-2.5e-05\nmean_pe,7\n"
    n_differ, n_numbers, largest = numeric_diff(old, new)
    assert (n_differ, n_numbers) == (1, 5)
    assert largest == pytest.approx(2.2e-16, rel=0.01)
    assert describe(old.encode(), new.encode()) == "1 of 5 numbers differ, at most 2.2e-16 relative"


def test_numeric_diff_reports_an_extra_column_as_a_structure_difference():
    old = "frame,pe\n0,1.0\n"
    new = "frame,pe\n0,1.0,3.5\n"
    assert numeric_diff(old, new) is None
    assert describe(old.encode(), new.encode()) == "structure differs"
