"""Run the fixed solve command set and print the sha256 and cost of every output.

The set is 469 `branchflow` commands writing 538 files, all through
`branchflow.cli.main` in-process:

- `solve` JSON and SVG on the first 32 instances of `solve-planar` and of
  `solve-3d`;
- `solve` JSON and `oracle` JSON on the first 200 instances of
  `certify-small`;
- `solve` JSON and SVG on `uniform-square` generator instances (seed 1,
  source at the box center, unit box) at n = 50 and 100 with alpha 0.5 and
  0.75 in the plane, and at n = 50 with alpha 0.75 in 3-d.

Benchmark instances come from `perfbench`'s `CaseStream` at seed 1, which
this script only reads.  A refactor must leave every digest unchanged; an
algorithm change lists the per-instance costs.

    python3 tools/solve_manifest.py > manifest.json

The manifest is JSON with sorted keys: the command count, the commands that
failed (the exit status is 1 when any did), each file's sha256, each
network's cost, and each network's structure digest: the sha256 of its
document without the `cost` key, in sorted-key compact JSON, so that a change
that only rounds the cost sum differently keeps it.
`tools/compare_manifests.py OLD NEW` compares two of them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from branchflow import cli  # noqa: E402
from pb_workloads import WORKLOADS, CaseStream  # noqa: E402

CASE_SEED = 1
BENCH_SETS = (("solve-planar", 32), ("solve-3d", 32), ("certify-small", 200))
GENERATED = ((2, 50, 0.5), (2, 50, 0.75), (2, 100, 0.5), (2, 100, 0.75), (3, 50, 0.75))


def _generated(dim: int, count: int, alpha: float) -> dict:
    return {"alpha": alpha, "seed": 1,
            "source": {"point": [0.5] * dim, "mass": 1.0},
            "generator": {"kind": "uniform-square", "count": count,
                          "region": {"low": [0.0] * dim, "high": [1.0] * dim}}}


def _commands(work: Path, only=None):
    """(label, input path, command, output suffixes) for the whole set, or
    for the labels in only."""
    for name, count in BENCH_SETS:
        (work / name).mkdir()
        stream = CaseStream(WORKLOADS[name], CASE_SEED, work / name)
        for i in range(count):
            label = f"{name}/{i:05d}"
            if only is not None and label not in only:
                continue
            path = stream.get(i).path
            if WORKLOADS[name].certify:
                yield label, path, "solve", (".solve.json",)
                yield label, path, "oracle", (".oracle.json",)
            else:
                yield label, path, "solve", (".solve.json", ".svg")
    for dim, count, alpha in GENERATED:
        label = f"generator/d{dim}-n{count}-a{alpha}"
        if only is not None and label not in only:
            continue
        path = work / f"{label.replace('/', '-')}.json"
        path.write_text(json.dumps(_generated(dim, count, alpha)))
        yield label, path, "solve", (".solve.json", ".svg")


def build_manifest(only=None) -> dict:
    """The manifest of the whole set, or of the labels in only (such as
    "solve-planar/00002" or "generator/d2-n100-a0.75")."""
    files: dict[str, str] = {}
    costs: dict[str, float] = {}
    structure: dict[str, str] = {}
    failed: list[str] = []
    commands = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, path, command, suffixes in _commands(work, only):
            outs = {s: work / f"out-{commands}{s}" for s in suffixes}
            argv = [command, "--input", str(path), "--out-json", str(outs[suffixes[0]])]
            if ".svg" in outs:
                argv += ["--out-svg", str(outs[".svg"])]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            commands += 1
            if code != 0:
                failed.append(f"{label} {command}: exit {code}")
                continue
            for suffix, out in outs.items():
                blob = out.read_bytes()
                files[label + suffix] = hashlib.sha256(blob).hexdigest()
                if suffix.endswith(".json"):
                    doc = json.loads(blob)
                    costs[label + suffix] = doc.pop("cost")
                    structure[label + suffix] = hashlib.sha256(
                        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
    return {"commands": commands, "failed": failed, "files": files, "costs": costs,
            "structure": structure}


def main() -> int:
    manifest = build_manifest()
    json.dump(manifest, sys.stdout, indent=1, sort_keys=True)
    print()
    return 1 if manifest["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
