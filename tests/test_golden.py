"""Golden outputs: `solve` JSON and SVG bytes of three small seeded instances.

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
