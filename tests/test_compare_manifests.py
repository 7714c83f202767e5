"""tools/compare_manifests.py on two tiny synthetic manifests."""
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_manifests.py"


def _manifest(files, costs, failed=(), structure=None):
    doc = {"commands": len(files), "failed": list(failed), "files": files, "costs": costs}
    if structure is not None:
        doc["structure"] = structure
    return doc


def _run(tmp_path, old, new):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout) if proc.stdout else None


def test_identical_manifests_exit_zero(tmp_path):
    doc = _manifest({"a.solve.json": "11", "a.svg": "22"}, {"a.solve.json": 1.5})
    code, report = _run(tmp_path, doc, doc)
    assert code == 0
    assert report == {"identical": 2, "changed": 0, "added": 0, "removed": 0,
                      "failed": {"old": [], "new": []},
                      "largest_rise": None, "largest_fall": None, "cost_only": None}


def test_changes_are_counted_and_the_extremes_named(tmp_path):
    old = _manifest({"a.solve.json": "11", "b.solve.json": "22", "c.solve.json": "33",
                     "gone.svg": "44"},
                    {"a.solve.json": 2.0, "b.solve.json": 4.0, "c.solve.json": 8.0})
    new = _manifest({"a.solve.json": "1x", "b.solve.json": "2x", "c.solve.json": "33",
                     "new.svg": "55"},
                    {"a.solve.json": 2.5, "b.solve.json": 3.0, "c.solve.json": 8.0},
                    failed=["c oracle: exit 3"])
    code, report = _run(tmp_path, old, new)
    assert code == 1
    assert (report["identical"], report["changed"], report["added"], report["removed"]) \
        == (1, 2, 1, 1)
    assert report["failed"] == {"old": [], "new": ["c oracle: exit 3"]}
    assert report["largest_rise"] == {"instance": "a.solve.json", "rel": 0.25}
    assert report["largest_fall"] == {"instance": "b.solve.json", "rel": -0.25}


def test_cost_only_changes_are_told_apart(tmp_path):
    files = {"a.solve.json": "11", "b.solve.json": "22", "c.solve.json": "33", "a.svg": "44"}
    costs = {"a.solve.json": 1.0, "b.solve.json": 2.0, "c.solve.json": 3.0}
    old = _manifest(files, costs,
                    structure={"a.solve.json": "s1", "b.solve.json": "s2", "c.solve.json": "s3"})
    # a moved in the cost alone, b in its network too; c and the SVG of a
    # are unchanged and changed without a structure digest
    new = _manifest({**files, "a.solve.json": "1x", "b.solve.json": "2x", "a.svg": "4x"},
                    {**costs, "a.solve.json": 1.0 + 2.0 ** -52, "b.solve.json": 1.5},
                    structure={"a.solve.json": "s1", "b.solve.json": "s2x", "c.solve.json": "s3"})
    code, report = _run(tmp_path, old, new)
    assert code == 1
    assert report["changed"] == 3
    assert report["cost_only"] == ["a.solve.json"]
    assert report["largest_rise"] == {"instance": "a.solve.json", "rel": 2.0 ** -52}
    # both sides need the digests
    code, report = _run(tmp_path, _manifest(files, costs), new)
    assert report["cost_only"] is None
    code, report = _run(tmp_path, old, old)
    assert code == 0 and report["cost_only"] == []


def test_a_failed_command_alone_fails_the_comparison(tmp_path):
    doc = _manifest({"a.solve.json": "11"}, {"a.solve.json": 1.0}, failed=["b solve: exit 2"])
    code, report = _run(tmp_path, doc, doc)
    assert code == 1
    assert report["identical"] == 1 and report["changed"] == 0


def test_usage_error(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "only-one.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "OLD NEW" in proc.stderr
