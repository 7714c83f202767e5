"""tools/ab_solve.py on the repo against itself."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_solve.py"


def test_repo_against_itself():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--count", "2", "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert sorted(report) == ["certify-small", "solve-3d", "solve-planar"]
    for row in report.values():
        assert row["instances"] == 2
        assert row["identical_costs"] == 2
        assert row["largest_rel_cost_rise"] is None
        assert row["old_s"] > 0 and row["new_s"] > 0
        assert row["ratio"] == row["new_s"] / row["old_s"]


def test_usage_errors(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path), str(ROOT)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "no src/branchflow package" in proc.stderr
