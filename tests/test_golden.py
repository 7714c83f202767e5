"""Golden outputs: `solve` JSON and SVG bytes of three small seeded instances,
and the `oracle` JSON of one instance whose canonical form lifts a folded path.

A refactor of the solver must leave these bytes unchanged.  An intended
change of behaviour updates the pinned digests in the same commit and says
why.  The digests hold for IEEE-754 doubles with the pinned PCG64 streams:
the solver computes lengths, dot products and junction points on plain
Python floats, so the BLAS kernel numpy happens to load (which may fuse the
multiply-adds of `np.dot`) does not enter them.
"""
import hashlib
import json

import pytest

from branchflow import cli


def _generated(dim, count, alpha):
    return {"alpha": alpha, "seed": 5,
            "source": {"point": [0.5] * dim, "mass": 1.0},
            "generator": {"kind": "uniform-square", "count": count,
                          "region": {"low": [0.0] * dim, "high": [1.0] * dim}}}


GOLDEN = [
    (_generated(2, 30, 0.5),
     "8b061457963809696729a22b930453bb2be5a0b504d119b0fc7a8b67f2a9d441",
     "925249e8204e20ab377cc886bd206ed730c6121ac4810f7f6768cb5eb9f56668"),
    (_generated(2, 30, 0.75),
     "a795c9b469fecaf022da107364d6406d354183ac4c05672277a8f4dbbfe51a6f",
     "6da923bc8fe366131df5cfc5f9cd338054625f2fa6cb63fca4d06e3e4281560a"),
    (_generated(3, 20, 0.75),
     "95e0db31009991a780a893b5cb40a54f821ae7d5185c45cae65f028e183787aa",
     "63f591432b650a0ae5eb83f0812fdfc91c006886f9d35373fd02d93e3924521c"),
]


@pytest.mark.parametrize("doc, json_sha, svg_sha", GOLDEN,
                         ids=["square-n30-a0.5", "square-n30-a0.75", "cube-n20-a0.75"])
def test_solve_outputs_match_golden_digests(capsys, tmp_path, doc, json_sha, svg_sha):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    out_json, out_svg = tmp_path / "net.json", tmp_path / "net.svg"
    code = cli.main(["solve", "--input", str(inst),
                     "--out-json", str(out_json), "--out-svg", str(out_svg)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out_json.read_bytes()).hexdigest() == json_sha
    assert hashlib.sha256(out_svg.read_bytes()).hexdigest() == svg_sha


# certify-small instance 00056 of the benchmark's case stream at seed 1: the
# oracle's best plan folds a path back onto an ancestor, which canonicalize
# lifts and merges
FOLDED = {"alpha": 0.5,
          "source": {"point": [0.32756906260475893, 0.8167347124893564], "mass": 1.0},
          "targets": [
              {"point": [0.055543073007716104, 0.5221231438530336], "mass": 0.3684200790515854},
              {"point": [0.23667551656164842, 0.5985939021558851], "mass": 0.2788733814877091},
              {"point": [0.4123598402480996, 0.2174302938299857], "mass": 0.21262791174436776},
              {"point": [0.4951532887467983, 0.7242584296939174], "mass": 0.14007862771633772},
          ]}


def test_oracle_folded_path_matches_golden_digest(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(FOLDED))
    out_json = tmp_path / "net.json"
    code = cli.main(["oracle", "--input", str(inst), "--out-json", str(out_json)])
    capsys.readouterr()
    assert code == 0
    assert (hashlib.sha256(out_json.read_bytes()).hexdigest()
            == "1f364d31243872b035691b78f01715762519cde886682799fdfdcfb5ee5601c0")
