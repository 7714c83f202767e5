"""End-to-end tests for the command-line interface."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import branchflow
from branchflow import cli, optimize_global
from branchflow.errors import InvariantViolation
from branchflow.instances import export_network, import_network, parse_instance
from branchflow.measures import MAX_COORDINATE
from branchflow.network import TransportNetwork

SPOT = {
    "alpha": 0.5,
    "source": {"point": [0.0, 0.0], "mass": 1.0},
    "targets": [
        {"point": [2.0, 1.0], "mass": 0.5},
        {"point": [2.0, -1.0], "mass": 0.5},
    ],
}


# two atoms at or below the balance tolerance (1e-9 of the source mass)
LIGHT_ATOMS = {
    "alpha": 0.5,
    "source": {"point": [0.0, 0.0], "mass": 1.0},
    "targets": [
        {"point": [1.0, 0.0], "mass": 1.0 - 1e-12},
        {"point": [0.0, 1.0], "mass": 5e-13},
        {"point": [1.0, 1.0], "mass": 5e-13},
    ],
}


@pytest.fixture
def spot_file(tmp_path):
    path = tmp_path / "spot.json"
    path.write_text(json.dumps(SPOT))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_writes_network_to_stdout(capsys, spot_file):
    code, out, err = run_cli(capsys, "solve", "--input", spot_file)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["alpha"] == 0.5
    assert doc["cost"] == pytest.approx(3.0, abs=1e-9)
    net, alpha = import_network(out)
    assert alpha == 0.5
    assert net.cost_m_alpha(alpha) == pytest.approx(3.0, abs=1e-9)


def test_solve_writes_files_and_summary(capsys, tmp_path, spot_file):
    out_json = tmp_path / "net.json"
    out_svg = tmp_path / "net.svg"
    code, out, err = run_cli(capsys, "solve", "--input", spot_file,
                             "--out-json", str(out_json), "--out-svg", str(out_svg))
    assert code == 0
    assert out.startswith("cost=")
    assert out_json.read_bytes().startswith(b"{")
    assert out_svg.read_bytes().startswith(b"<?xml")


def test_solve_deterministic_bytes(capsys, tmp_path):
    doc = {
        "alpha": 0.6,
        "source": {"point": [0.0, 0.0], "mass": 1.0},
        "generator": {"kind": "uniform-square", "count": 12},
        "seed": 9,
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    outs = []
    for run in (1, 2):
        oj = tmp_path / f"net{run}.json"
        osvg = tmp_path / f"net{run}.svg"
        code, _, _ = run_cli(capsys, "solve", "--input", str(inst),
                             "--out-json", str(oj), "--out-svg", str(osvg))
        assert code == 0
        outs.append((oj.read_bytes(), osvg.read_bytes()))
    assert outs[0] == outs[1]


# a single target at the source point: the supply belongs to the root, not
# to the terminal vertex that shares its position
AT_SOURCE = {**SPOT, "targets": [{"point": [0.0, 0.0], "mass": 1.0}]}


def test_solve_reads_stdin(capsys, monkeypatch):
    class FakeStdin:
        buffer = None
    for doc, cost in ((SPOT, 3.0), (AT_SOURCE, 0.0)):
        fake = FakeStdin()
        fake.buffer = io.BytesIO(json.dumps(doc).encode())
        monkeypatch.setattr(sys, "stdin", fake)
        code, out, _ = run_cli(capsys, "solve", "--input", "-")
        assert code == 0
        assert json.loads(out)["cost"] == pytest.approx(cost, abs=1e-9)


def test_solve_csv_requires_alpha(capsys, tmp_path):
    csv_path = tmp_path / "inst.csv"
    csv_path.write_text("x,y,mass\n0,0,1\n2,1,0.5\n2,-1,0.5\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(csv_path), "--format", "csv")
    assert code == 2
    assert "alpha" in err
    code, out, _ = run_cli(capsys, "solve", "--input", str(csv_path),
                           "--format", "csv", "--alpha", "0.5")
    assert code == 0
    assert json.loads(out)["cost"] == pytest.approx(3.0, abs=1e-9)


def test_init_star_initializer(capsys, spot_file):
    code, out, _ = run_cli(capsys, "init", "--input", spot_file,
                           "--initializer", "star")
    assert code == 0
    net, _ = import_network(out)
    assert net.n_edges() == 2
    assert all(net.parent(v) == net.root for v in net.vertices() if v != net.root)


def test_init_matches_each_builder(capsys, spot_file):
    inst = parse_instance(Path(spot_file).read_bytes(), "json")
    for name in optimize_global._INITIALIZERS:
        code, out, _ = run_cli(capsys, "init", "--input", spot_file, "--initializer", name)
        assert code == 0
        build = optimize_global._INITIALIZERS[name]
        net = build(inst.source_point, inst.source_mass, inst.targets, inst.alpha)
        assert out.encode() == export_network(net, inst.alpha), name


def test_parser_reused_across_calls(capsys, monkeypatch, spot_file):
    """main parses every call with one parser; no flag of one call leaks
    into the next, and a refused call leaves it usable."""
    seen = []
    real = optimize_global.global_optimize

    def recording(source, targets, alpha, initializer):
        seen.append((alpha, initializer))
        return real(source, targets, alpha, initializer)

    monkeypatch.setattr(cli, "global_optimize", recording)
    code, _, _ = run_cli(capsys, "solve", "--input", spot_file, "--alpha", "0.6",
                         "--initializer", "star")
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", "--input", spot_file)
    assert code == 0 and json.loads(out)["alpha"] == 0.5
    assert seen == [(0.6, "star"), (0.5, "subdivision")]
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--input", spot_file, "--no-such-flag"])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "solve", "--input", spot_file)
    assert code == 0 and json.loads(out)["cost"] == pytest.approx(3.0, abs=1e-9)
    assert seen[-1] == (0.5, "subdivision")


def test_public_names_resolve():
    for name in branchflow.__all__:
        assert getattr(branchflow, name) is not None, name


def test_oracle_subcommand(capsys, spot_file):
    code, out, _ = run_cli(capsys, "oracle", "--input", spot_file)
    assert code == 0
    assert json.loads(out)["cost"] == pytest.approx(3.0, abs=1e-7)


def test_render_subcommand(capsys, tmp_path, spot_file):
    net_path = tmp_path / "net.json"
    code, _, _ = run_cli(capsys, "solve", "--input", spot_file,
                         "--out-json", str(net_path))
    assert code == 0
    svg_path = tmp_path / "net.svg"
    code, out, _ = run_cli(capsys, "render", "--input", str(net_path),
                           "--out-svg", str(svg_path))
    assert code == 0
    assert svg_path.read_bytes().count(b"<line") > 0

    # a network at the instance bound renders, and so does the `init` network
    # of ten targets along y = MAX_COORDINATE, which plants a helper past it
    net_path.write_text(json.dumps(_network(
        [(0, 1, 1.0)], coords={0: [-MAX_COORDINATE, 0.0], 1: [MAX_COORDINATE, 0.0]},
        ids=(0, 1))))
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({
        "alpha": 0.5, "source": {"point": [0.0, 0.0], "mass": 1.0},
        "targets": [{"point": [x * MAX_COORDINATE, MAX_COORDINATE], "mass": 0.1}
                    for x in np.linspace(-1.0, 1.0, 10)]}))
    init_path = tmp_path / "init.json"
    assert run_cli(capsys, "init", "--input", str(edge), "--out-json", str(init_path))[0] == 0
    coords = [x for v in json.loads(init_path.read_text())["vertices"] for x in v["coords"]]
    assert max(map(abs, coords)) > MAX_COORDINATE
    for path in (net_path, init_path):
        code, _, err = run_cli(capsys, "render", "--input", str(path),
                               "--out-svg", str(svg_path))
        assert code == 0, err
        assert svg_path.read_bytes().count(b"<line") > 0


def _network(edges, coords=None, alpha=0.5, ids=(0, 1, 2, 3)):
    coords = coords or {}
    return {"alpha": alpha, "cost": 0.0,
            "vertices": [{"id": v, "coords": coords.get(v, [float(i), 1.0])}
                         for i, v in enumerate(ids)],
            "edges": [{"from": a, "to": b, "weight": w} for a, b, w in edges]}


TREE = [(0, 1, 1.0), (1, 2, 0.5), (1, 3, 0.5)]
NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("doc", [
    _network(TREE, alpha=True),
    _network(TREE, coords={2: [True, 0]}),
    _network([(0, 1, True), (1, 2, 0.5), (1, 3, 0.5)]),
    _network(TREE, coords={3: [1.0, 1.0, 1.0]}),
    _network(TREE, ids=(0, 1, 2, "3")),
    _network(TREE + [(1, 7, 0.5)]),
    _network(TREE, ids=(0, 1, 2, 3, 3)),
    _network(TREE + [(2, 3, 0.5)]),
    _network([(0, 1, 1.0), (2, 3, 0.5), (3, 2, 0.5)]),
    _network([(0, 1, 1.0), (1, 2, -1.0), (1, 3, 0.5)]),
    _network(TREE, coords={2: [float("nan"), 0.0]}),
    _network(TREE, coords={2: [float("inf"), 0.0]}),
    _network([(0, 1, 1.0), (1, 2, float("nan")), (1, 3, 0.5)]),
    _network(TREE, alpha=7),
    _network(TREE, alpha=float("nan")),
    _network([(0, 1, 1.0), (1, 2, 5.0)], ids=(0, 1, 2)),
    # finite coordinates whose spans overflow
    pytest.param(_network([(0, 1, 1.0)], coords={0: [-1e308, 0.0], 1: [1e308, 0.0]},
                          ids=(0, 1)), id="span-overflow"),
    pytest.param(_network([(0, 1, 1.0)], coords={0: [0.0, 0.0], 1: [1.7e308, 1.7e308]},
                          ids=(0, 1)), id="coords-past-bound"),
    pytest.param(NOT_UTF8, id="not-utf8"),
    pytest.param(_network([(0, 1, 1.0), (1, 2, 1.0)]), id="unreachable-vertex"),
    # finite weights whose sum, the root's outflow, overflows
    pytest.param(_network([(0, 1, 1e308), (0, 2, 1e308)], ids=(0, 1, 2)),
                 id="outflow-overflow"),
])
def test_render_rejects_malformed_networks(capsys, monkeypatch, doc):
    data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run_cli(capsys, "render", "--input", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:"), err


# the flags of the solver settings that are now constants: each is unknown
@pytest.mark.parametrize("flag, value", [
    ("--max-rounds", "0"), ("--rel-tol", "-1"), ("--subdivide-factor", "0"),
    ("--rel-tol", "nan"), ("--rel-tol", "inf"), ("--subdivide-factor", "nan"),
])
def test_invalid_solver_flags_exit_2(capsys, spot_file, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--input", spot_file, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_input_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "solve", "--input", str(bad))
    assert code == 2 and err.startswith("error:")

    code, _, err = run_cli(capsys, "solve", "--input", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err

    wrong_alpha = tmp_path / "alpha.json"
    wrong_alpha.write_text(json.dumps({**SPOT, "alpha": 2.0}))
    code, _, err = run_cli(capsys, "solve", "--input", str(wrong_alpha))
    assert code == 2 and "alpha" in err

    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(NOT_UTF8)
    code, _, err = run_cli(capsys, "solve", "--input", str(not_utf8))
    assert code == 2 and "UTF-8" in err


@pytest.mark.parametrize("command, flag", [
    ("solve", "--out-json"), ("solve", "--out-svg"), ("render", "--out-svg"),
])
def test_unwritable_output_exits_2(capsys, tmp_path, spot_file, command, flag):
    net_path = tmp_path / "net.json"
    assert run_cli(capsys, "solve", "--input", spot_file, "--out-json", str(net_path))[0] == 0
    source = spot_file if command == "solve" else str(net_path)
    target = tmp_path / "no" / "such" / "dir" / "x"
    code, out, err = run_cli(capsys, command, "--input", source, flag, str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write"), err


@pytest.mark.parametrize("bad", ["missing-dir", "directory", "file-as-dir"])
def test_bad_svg_path_exits_2_before_solving(capsys, tmp_path, spot_file, monkeypatch, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("global_optimize ran despite a bad output path")

    monkeypatch.setattr(cli, "global_optimize", no_solve)
    (tmp_path / "plain").write_text("")
    out_svg = {"missing-dir": tmp_path / "no" / "such" / "dir" / "x.svg",
               "directory": tmp_path,
               "file-as-dir": tmp_path / "plain" / "x.svg"}[bad]
    out_json = tmp_path / "ok.json"
    code, out, err = run_cli(capsys, "solve", "--input", spot_file, "--out-json", str(out_json),
                             "--out-svg", str(out_svg))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write"), err
    assert not out_json.exists()


def test_failed_svg_render_writes_no_json(capsys, tmp_path, spot_file, monkeypatch):
    def broken_render(net, alpha):
        raise InvariantViolation("render failed")

    monkeypatch.setattr(cli, "render_svg", broken_render)
    out_json = tmp_path / "net.json"
    code, _, _ = run_cli(capsys, "solve", "--input", spot_file, "--out-json", str(out_json),
                         "--out-svg", str(tmp_path / "net.svg"))
    assert code == 3
    assert not out_json.exists()


def _target_point(point):
    return {**SPOT, "targets": [{"point": point, "mass": 0.5}, SPOT["targets"][1]]}


def _generated(seed, count):
    return {"alpha": 0.5, "seed": seed, "source": SPOT["source"],
            "generator": {"kind": "uniform-square", "count": count}}


def _region(kind, region):
    return {"alpha": 0.5, "seed": 1, "source": SPOT["source"],
            "generator": {"kind": kind, "count": 3, "region": region}}


@pytest.mark.parametrize("doc", [
    {**SPOT, "alpha": "abc"},
    {**SPOT, "alpha": [0.5]},
    {**SPOT, "alpha": True},
    {**SPOT, "source": {"point": [0.0, 0.0], "mass": True}},
    {**SPOT, "source": {"point": [False, 0.0], "mass": 1.0}},
    {**SPOT, "targets": [{"point": [2.0, 1.0], "mass": True}]},
    _target_point(["a", 0]),
    _target_point({"x": 1}),
    _target_point([True, False]),
    _target_point([10 ** 400, 0]),
    _generated(True, True),
    _generated(True, 3),
    _generated(1, True),
    _generated(-1, 3),
    _region("uniform-square", [1, 2]),
    _region("uniform-square", {"low": "ab"}),
    _region("uniform-square", {"low": [False, False]}),
    _region("circle", {"radius": "x"}),
    _region("circle", {"center": [0, "a"]}),
])
def test_malformed_numbers_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "init"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2 and out == "", command
        assert err.startswith("error:"), err


def test_light_target_atoms_exit_2(capsys, tmp_path):
    path = tmp_path / "light.json"
    path.write_text(json.dumps(LIGHT_ATOMS))
    for command in ("solve", "init", "oracle"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2 and out == "", command
        assert "target atom 1" in err and "tolerance" in err


def _spread(points, masses, dim=2):
    return {"alpha": 0.5, "source": {"point": [0.0] * dim, "mass": sum(masses)},
            "targets": [{"point": p, "mass": m} for p, m in zip(points, masses)]}


@pytest.mark.parametrize("doc", [
    # coordinates beyond 2**1020: the x span overflows
    _spread([[1e308, 0.0], [-1e308, 0.1], [0.3, 1e308]], [0.25, 0.25, 0.5]),
    # and here the star network would cost about 2.1e308
    _spread([[1.5e308, 0.0], [-1.5e308, 0.1], [0.3, 1.5e308]], [0.25, 0.25, 0.5]),
    # finite coordinates below 1e307, but a 100-d diagonal that overflows
    _spread([[1e307] * 100, [-1e307] * 100], [0.5, 0.5], dim=100),
    # heavy atoms at alpha 1: the star network costs about 1e310
    {**_spread([[1e10, 0.0], [0.0, 1e10]], [5e299, 5e299]), "alpha": 1.0},
], ids=["span", "coordinates", "diagonal", "star"])
def test_overflowing_instances_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "init", "oracle"):
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2 and out == "", command
        assert err.startswith("error:"), err


def test_broken_final_tree_exits_3(capsys, monkeypatch, spot_file):
    real = TransportNetwork.canonicalize

    def drop_a_leaf(self, collapse_passthrough=False):
        real(self, collapse_passthrough)
        if collapse_passthrough:  # only the final call in global_optimize
            self.remove_edge(self.terminals()[-1])

    monkeypatch.setattr(TransportNetwork, "canonicalize", drop_a_leaf)
    code, out, err = run_cli(capsys, "solve", "--input", spot_file)
    assert code == 3 and out == ""
    assert "invariant violation: global_optimize" in err
    assert "disconnected from the root" in err
    assert '"vertices"' in err


def test_invariant_violation_exit_3_dumps_network(capsys, monkeypatch, spot_file):
    def explode(*a, **k):
        net = TransportNetwork((0.0, 0.0), 1.0)
        raise InvariantViolation("synthetic failure", network=net)

    monkeypatch.setattr(cli, "global_optimize", explode)
    code, _, err = run_cli(capsys, "solve", "--input", spot_file)
    assert code == 3
    assert "invariant violation: synthetic failure" in err
    assert '"vertices"' in err  # the offending network is dumped for diagnosis


def test_console_script_entry_point(tmp_path, spot_file):
    # the child imports the same package as this process, installed or not
    src = str(Path(branchflow.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "branchflow.cli", "solve", "--input", spot_file],
        capture_output=True, timeout=120, env=env)
    assert out.returncode == 0
    assert json.loads(out.stdout)["cost"] == pytest.approx(3.0, abs=1e-9)


# runs in a fresh interpreter: each command's exit code and whether numpy
# was loaded once it returned
NUMPY_GATE = """
import json, sys
from branchflow import cli
steps = json.loads(sys.argv[1])
seen = [[name, cli.main(argv), "numpy" in sys.modules] for name, argv in steps]
print(json.dumps(seen))
"""


def test_explicit_instances_never_load_numpy(tmp_path):
    """solve, oracle and render on explicit atoms run without numpy; a
    generator spec loads it and still solves."""
    explicit = tmp_path / "three.json"
    explicit.write_text(json.dumps({**SPOT, "targets": [
        {"point": [2.0, 1.0], "mass": 0.4}, {"point": [2.0, -1.0], "mass": 0.35},
        {"point": [3.0, 0.5], "mass": 0.25}]}))
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps({
        "alpha": 0.5, "source": {"point": [0.5, 0.5], "mass": 1.0},
        "generator": {"kind": "uniform-square", "count": 12}}))
    net, out = str(tmp_path / "net.json"), str(tmp_path / "out")
    steps = [
        ["solve", ["solve", "--input", str(explicit), "--out-json", net,
                   "--out-svg", out + ".svg"]],
        ["oracle", ["oracle", "--input", str(explicit), "--out-json", out + ".json"]],
        ["render", ["render", "--input", net, "--out-svg", out + ".svg"]],
        ["generator", ["solve", "--input", str(generated), "--out-json", out + ".json"]],
    ]
    src = str(Path(branchflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_GATE, json.dumps(steps)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [["solve", 0, False], ["oracle", 0, False], ["render", 0, False],
                    ["generator", 0, True]]
    assert len(json.loads(Path(out + ".json").read_text())["vertices"]) >= 13
