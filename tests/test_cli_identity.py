import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_tree_twice_has_no_differences():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_identity.py"), src, src, "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(" runs compared, 0 differences")
