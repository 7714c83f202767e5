"""Compare two manifests written by `tools/solve_manifest.py`.

    python3 tools/compare_manifests.py OLD NEW

Prints JSON with the number of files that are identical, changed, added
(only in NEW) and removed (only in OLD); the commands that failed on either
side; the largest cost rise and fall from OLD to NEW among the outputs both
sides have, relative to the OLD cost (absolute when that is 0), each with
the output it belongs to (null when no cost rose, or none fell);
`changed_costs`, each changed network JSON file that both sides have, with
its OLD and NEW cost; and `cost_only`, the changed network JSON files whose
structure digests match, that is whose documents differ in the cost alone
(null when either manifest has no structure digests).  The exit status is 0
only when every file is identical and no command failed on either side, as
a refactor requires; 1 otherwise, and 2 on a usage error.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def compare(old: dict, new: dict) -> dict:
    old_files, new_files = old["files"], new["files"]
    shared = old_files.keys() & new_files.keys()
    identical = sum(old_files[k] == new_files[k] for k in shared)
    cost_only = None
    if "structure" in old and "structure" in new:
        old_doc, new_doc = old["structure"], new["structure"]
        cost_only = sorted(k for k in old_doc.keys() & new_doc.keys()
                           if old_files[k] != new_files[k] and old_doc[k] == new_doc[k])
    costed = sorted(old["costs"].keys() & new["costs"].keys())
    moves = [((new["costs"][k] - old["costs"][k]) / (abs(old["costs"][k]) or 1.0), k)
             for k in costed if new["costs"][k] != old["costs"][k]]
    return {
        "identical": identical,
        "changed": len(shared) - identical,
        "added": len(new_files.keys() - old_files.keys()),
        "removed": len(old_files.keys() - new_files.keys()),
        "failed": {"old": old["failed"], "new": new["failed"]},
        "largest_rise": _entry(max((m for m in moves if m[0] > 0), default=None)),
        "largest_fall": _entry(min((m for m in moves if m[0] < 0), default=None)),
        "changed_costs": {k: {"old": old["costs"][k], "new": new["costs"][k]}
                          for k in costed if old_files[k] != new_files[k]},
        "cost_only": cost_only,
    }


def _entry(move: tuple[float, str] | None) -> dict | None:
    return None if move is None else {"instance": move[1], "rel": move[0]}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args)
    report = compare(old, new)
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    clean = report["identical"] == len(old["files"]) == len(new["files"])
    return 0 if clean and not old["failed"] and not new["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
