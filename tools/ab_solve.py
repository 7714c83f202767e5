"""Time the solver and the oracle of two checkouts against each other in one process.

    python3 tools/ab_solve.py OLD NEW [--count 32] [--repeats 5]

OLD and NEW are checkout roots.  Each one's `src/branchflow` is copied into a
temporary directory as the package `bf_old` or `bf_new`; the package imports
itself only relatively, so both copies load side by side.  Whole-process
timings swing too much between runs for a small change to show; timing both
sides in one process, interleaved, takes most of that swing out.

The instances are the first COUNT of `perfbench`'s `CaseStream` at seed 1 for
`solve-planar`, `solve-3d` and `certify-small`, the set
`tools/solve_manifest.py` also uses; `perfbench` is only read.  Each side
parses each instance with its own `parse_instance` and runs it REPEATS
times, alternating which side goes first, and keeps its minimum time per
instance.  The solve workloads time `global_optimize` with its default
initializer; `certify-small` times the exhaustive oracle,
`enumerate_optimal`.

Prints JSON per workload: the summed minima of both sides in seconds, their
ratio NEW/OLD, how many final costs are bit-identical, and the largest cost
rise from OLD to NEW relative to the OLD cost (null when none rose).
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pb_workloads import WORKLOADS, CaseStream  # noqa: E402

CASE_SEED = 1
WORKLOAD_NAMES = ("solve-planar", "solve-3d", "certify-small")
SIDES = ("old", "new")


def _load(checkout: Path, name: str, where: Path):
    """Import checkout/src/branchflow under the package name `name`."""
    shutil.copytree(checkout / "src" / "branchflow", where / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("instances", "optimize_global", "oracle")}


def _run_timed(modules, workload: str, text: str) -> tuple[float, float]:
    """Seconds and final cost of one solve, or of one oracle run on
    certify-small."""
    inst = modules["instances"].parse_instance(text, "json")
    args = (inst.source_measure(), inst.targets, inst.alpha)
    start = perf_counter()
    if workload == "certify-small":
        _, cost = modules["oracle"].enumerate_optimal(*args)
        return perf_counter() - start, cost
    net = modules["optimize_global"].global_optimize(*args)
    elapsed = perf_counter() - start
    return elapsed, net.cost_m_alpha(inst.alpha)


def compare(old: Path, new: Path, count: int, repeats: int) -> dict:
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "pkgs").mkdir()
        sys.path.insert(0, str(work / "pkgs"))
        sides = {side: _load(root, f"bf_{side}", work / "pkgs")
                 for side, root in zip(SIDES, (old, new))}
        for name in WORKLOAD_NAMES:
            (work / name).mkdir()
            stream = CaseStream(WORKLOADS[name], CASE_SEED, work / name)
            totals = dict.fromkeys(SIDES, 0.0)
            identical = 0
            rise = None
            for i in range(count):
                text = stream.get(i).path.read_text()
                best = dict.fromkeys(SIDES, float("inf"))
                cost = {}
                for rep in range(repeats):
                    for side in (SIDES if (i + rep) % 2 == 0 else SIDES[::-1]):
                        elapsed, cost[side] = _run_timed(sides[side], name, text)
                        best[side] = min(best[side], elapsed)
                for side in SIDES:
                    totals[side] += best[side]
                identical += cost["new"] == cost["old"]
                if cost["new"] > cost["old"]:
                    rel = (cost["new"] - cost["old"]) / (abs(cost["old"]) or 1.0)
                    rise = rel if rise is None else max(rise, rel)
            report[name] = {"instances": count,
                            "old_s": totals["old"], "new_s": totals["new"],
                            "ratio": totals["new"] / totals["old"],
                            "identical_costs": identical,
                            "largest_rel_cost_rise": rise}
    return report


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    for root in (args.old, args.new):
        if not (root / "src" / "branchflow" / "__init__.py").is_file():
            p.error(f"{root} has no src/branchflow package")
    if args.count < 1 or args.repeats < 1:
        p.error("--count and --repeats must be at least 1")
    json.dump(compare(args.old.resolve(), args.new.resolve(), args.count, args.repeats),
              sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
