"""Unit tests for instance parsing, point generators and network JSON."""
import json

import numpy as np
import pytest

from branchflow.construct import build_small
from branchflow.errors import InputError
from branchflow.instances import (
    GENERATORS,
    Instance,
    export_network,
    generate_points,
    import_network,
    parse_instance,
)
from branchflow.measures import AtomicMeasure


def test_generate_points_shapes_and_determinism():
    for kind in GENERATORS:
        pts = generate_points(kind, 17, None, 5)
        assert pts.shape == (17, 2)
        assert np.array_equal(pts, generate_points(kind, 17, None, 5))
    a = generate_points("uniform-square", 17, None, 5)
    b = generate_points("uniform-square", 17, None, 6)
    assert not np.array_equal(a, b)


def test_generate_points_regions():
    box = generate_points("uniform-square", 200, {"low": [2.0, 3.0], "high": [4.0, 5.0]}, 0)
    assert box.min(axis=0).tolist() >= [2.0, 3.0]
    assert box.max(axis=0).tolist() <= [4.0, 5.0]

    ring = generate_points("circle", 8, {"center": [1.0, 1.0], "radius": 2.0}, None)
    radii = np.linalg.norm(ring - [1.0, 1.0], axis=1)
    assert np.allclose(radii, 2.0, atol=1e-12)
    gaps = np.linalg.norm(ring - np.roll(ring, 1, axis=0), axis=1)
    assert np.allclose(gaps, gaps[0], atol=1e-12)  # equally spaced

    disk = generate_points("disk-random", 300, {"radius": 1.5}, 1)
    assert np.all(np.linalg.norm(disk, axis=1) <= 1.5 + 1e-12)

    sun = generate_points("disk-uniform", 100, None, None)
    assert np.all(np.linalg.norm(sun, axis=1) <= 1.0 + 1e-12)
    assert len({tuple(p) for p in sun.round(12).tolist()}) == 100


def test_generate_points_rejects_bad_specs():
    with pytest.raises(InputError):
        generate_points("hexgrid", 10, None, 0)
    with pytest.raises(InputError):
        generate_points("uniform-square", 0, None, 0)
    with pytest.raises(InputError):
        generate_points("uniform-square", 5, {"low": [0, 0], "high": [0, 1]}, 0)
    with pytest.raises(InputError):
        generate_points("circle", 5, {"radius": -1.0}, 0)
    with pytest.raises(InputError):
        generate_points("circle", 5, {"radius": 1.0, "rotate": 0.3}, 0)


def test_parse_json_explicit_targets():
    doc = {
        "alpha": 0.5,
        "source": {"point": [0.0, 0.0], "mass": 1.0},
        "targets": [
            {"point": [2.0, 1.0], "mass": 0.5},
            {"point": [2.0, -1.0], "mass": 0.5},
        ],
    }
    inst = parse_instance(json.dumps(doc), "json")
    assert inst.alpha == 0.5
    assert inst.source_mass == 1.0
    assert inst.targets.n == 2
    assert inst.source_measure().total_mass() == pytest.approx(1.0)


def test_parse_json_generator_and_overrides():
    doc = {
        "source": {"point": [0.0, 0.0], "mass": 2.0},
        "generator": {"kind": "uniform-square", "count": 10},
        "seed": 3,
    }
    inst = parse_instance(json.dumps(doc), "json", alpha=0.75)
    assert inst.alpha == 0.75
    assert np.array_equal(inst.targets.points, generate_points("uniform-square", 10, None, 3))
    assert inst.targets.n == 10
    assert np.allclose(inst.targets.masses, 0.2)  # equal shares of the source
    # the seed argument wins over the document seed
    other = parse_instance(json.dumps(doc), "json", alpha=0.75, seed=4)
    assert not np.array_equal(inst.targets.points, other.targets.points)


def test_parse_json_errors():
    good = {
        "alpha": 0.5,
        "source": {"point": [0.0, 0.0], "mass": 1.0},
        "targets": [{"point": [1.0, 1.0], "mass": 1.0}],
    }

    def broken(**changes):
        doc = {**good, **changes}
        return json.dumps({k: v for k, v in doc.items() if v is not None})

    with pytest.raises(InputError, match="malformed JSON"):
        parse_instance("{nope", "json")
    with pytest.raises(InputError, match="alpha missing"):
        parse_instance(broken(alpha=None), "json")
    with pytest.raises(InputError, match="source"):
        parse_instance(broken(source=None), "json")
    with pytest.raises(InputError, match="exactly one"):
        parse_instance(broken(generator={"kind": "circle", "count": 3}), "json")
    with pytest.raises(InputError, match="exactly one"):
        parse_instance(broken(targets=None), "json")
    with pytest.raises(InputError, match="sum to"):
        parse_instance(broken(targets=[{"point": [1.0, 1.0], "mass": 0.7}]), "json")
    with pytest.raises(InputError, match="alpha must lie"):
        parse_instance(broken(alpha=1.4), "json")
    with pytest.raises(InputError, match="dimension"):
        parse_instance(broken(targets=[{"point": [1.0, 1.0, 1.0], "mass": 1.0}]), "json")
    with pytest.raises(InputError, match="unknown instance format"):
        parse_instance(broken(), "yaml")


def test_parse_json_accepts_numeric_strings():
    doc = {
        "alpha": "0.5",
        "source": {"point": ["0", "0.0"], "mass": "1"},
        "targets": [{"point": ["2", 1], "mass": "0.5"}, {"point": [2, "-1e0"], "mass": 0.5}],
    }
    inst = parse_instance(json.dumps(doc), "json")
    assert inst.alpha == 0.5 and inst.source_mass == 1.0
    assert np.array_equal(inst.source_point, [0.0, 0.0])
    assert np.array_equal(inst.targets.points, [[2.0, 1.0], [2.0, -1.0]])
    assert np.array_equal(inst.targets.masses, [0.5, 0.5])


def test_parse_csv_round_trip():
    text = "x,y,mass\n0.0,0.0,1.0\n2.0,1.0,0.5\n2.0,-1.0,0.5\n"
    inst = parse_instance(text, "csv", alpha=0.5)
    assert inst.source_mass == 1.0
    assert inst.targets.n == 2
    assert np.allclose(inst.targets.points[1], [2.0, -1.0])


def test_parse_csv_errors_carry_line_numbers():
    with pytest.raises(InputError, match="alpha must be passed"):
        parse_instance("x,y,mass\n0,0,1\n1,1,1\n", "csv")
    with pytest.raises(InputError, match="header"):
        parse_instance("a,b,c\n0,0,1\n1,1,1\n", "csv", alpha=0.5)
    with pytest.raises(InputError, match="line 3"):
        parse_instance("x,y,mass\n0,0,1\n1,oops,1\n", "csv", alpha=0.5)
    with pytest.raises(InputError, match="line 4"):
        parse_instance("x,y,mass\n0,0,1\n1,1,0.5\n2,2,0.5,9\n", "csv", alpha=0.5)


def test_network_json_round_trip():
    tg = AtomicMeasure([[2.0, 1.0], [2.0, -1.0]], [0.5, 0.5])
    net = build_small((0.0, 0.0), 1.0, tg, 0.5)
    blob = export_network(net, 0.5)
    assert blob == export_network(net, 0.5)  # byte determinism
    back, alpha = import_network(blob)
    assert alpha == 0.5
    assert back.n_edges() == net.n_edges()
    assert back.cost_m_alpha(0.5) == pytest.approx(net.cost_m_alpha(0.5), rel=1e-12)
    assert sorted(back.terminals()) == sorted(net.terminals())
    assert export_network(back, alpha) == blob


def test_import_network_rejects_corrupt_documents():
    with pytest.raises(InputError, match="malformed network JSON"):
        import_network(b"{")
    with pytest.raises(InputError, match="malformed network document"):
        import_network(json.dumps({"alpha": 0.5, "vertices": [], "edges": [{}]}))
    doc = {
        "alpha": 0.5,
        "cost": 0.0,
        "vertices": [{"id": 1, "coords": [0.0, 0.0]}, {"id": 2, "coords": [1.0, 0.0]}],
        "edges": [{"from": 1, "to": 2, "weight": 1.0}],
    }
    with pytest.raises(InputError, match="root 0"):
        import_network(json.dumps(doc))
