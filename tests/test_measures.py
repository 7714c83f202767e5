"""Unit tests for atomic measures, the instance check, bounding cubes and
subdivision cells."""
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from branchflow.construct import _subcells, build_small, build_star, build_subdivision
from branchflow.errors import InputError
from branchflow.instances import parse_instance
from branchflow.measures import AtomicMeasure, bounding_cube, check_source_targets, diameter
from branchflow.optimize_global import global_optimize
from branchflow.oracle import enumerate_optimal


def test_atomic_measure_basics():
    mu = AtomicMeasure([[0.0, 0.0], [1.0, 2.0]], [0.25, 0.75])
    assert mu.n == 2
    assert mu.dimension == 2
    assert mu.total_mass() == pytest.approx(1.0)
    atoms = list(mu.atoms())
    assert np.allclose(atoms[1][0], [1.0, 2.0])
    assert atoms[1][1] == pytest.approx(0.75)


def test_atomic_measure_arrays_are_frozen():
    mu = AtomicMeasure([[0.0, 0.0]], [1.0])
    with pytest.raises(TypeError):
        mu.points[0][0] = 5.0
    with pytest.raises(TypeError):
        mu.points[0] = (5.0, 0.0)
    with pytest.raises(TypeError):
        mu.masses[0] = 2.0


def test_atomic_measure_shape_checks():
    with pytest.raises(ValueError):
        AtomicMeasure(np.zeros((2, 2, 2)), [1.0, 1.0])
    with pytest.raises(ValueError):
        AtomicMeasure([[0.0, 1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):  # ragged
        AtomicMeasure([[0.0, 1.0], [2.0]], [0.5, 0.5])
    for bad in ("x", None):  # non-numeric
        with pytest.raises(ValueError):
            AtomicMeasure([[0.0, bad]], [1.0])
    rng = np.random.default_rng(5)
    pts, ms = rng.normal(size=(7, 3)), rng.uniform(size=7)
    mu = AtomicMeasure(pts, ms)
    assert mu.points == tuple(map(tuple, pts.tolist()))
    assert mu.masses == tuple(ms.tolist())
    assert {type(x) for pt in mu.points for x in pt} | set(map(type, mu.masses)) == {float}


PACKAGE = Path(__file__).parents[1] / "src" / "branchflow"


def _import_time_imports(tree: ast.AST) -> set[str]:
    """Modules imported by the statements that run when the module is
    imported: everything but the bodies of functions."""
    imported = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        imported |= _import_time_imports(node)
    return imported


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_solver_core_does_not_import_numpy(module):
    """The package runs on plain floats; numpy is imported inside the point
    generators and the grid oracle alone, when they run."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = _import_time_imports(tree)
    assert not {name for name in imported if name.split(".")[0] == "numpy"}


def test_numpy_import_check_sees_module_level_imports_only():
    nested = _import_time_imports(ast.parse(
        "import os\nif True:\n    from numpy import linalg\n"
        "def f():\n    import numpy\nclass C:\n    import numpy.random\n"))
    assert nested == {"os", "numpy", "numpy.random"}
    assert _import_time_imports(ast.parse("def f():\n    import numpy as np\n")) == set()


NAN, INF = math.nan, math.inf

# a valid instance; and per invalid one, the fields it changes and the words
# of the rule check_source_targets must name
BASE = {"point": (0.0, 0.0), "mass": 1.0, "alpha": 0.5,
        "points": [[2.0, 1.0], [2.0, -1.0], [1.0, 2.0]], "masses": [0.5, 0.25, 0.25]}
BAD = {
    "alpha-0": ({"alpha": 0.0}, "alpha must lie"),
    "alpha-1.5": ({"alpha": 1.5}, "alpha must lie"),
    "alpha-nan": ({"alpha": NAN}, "alpha must lie"),
    "dimension-1": ({"point": (0.0,), "points": [[1.0], [2.0], [3.0]]}, "dimension >= 2"),
    "dimension-mismatch": ({"point": (0.0, 0.0, 0.0)}, "dimension"),
    "source-nan-coordinate": ({"point": (NAN, 0.0)}, "source point"),
    "source-mass-nan": ({"mass": NAN}, "source mass"),
    "source-mass-inf": ({"mass": INF}, "source mass"),
    "source-mass-0": ({"mass": 0.0}, "source mass"),
    "source-mass-negative": ({"mass": -1.0}, "source mass"),
    "no-targets": ({"points": np.zeros((0, 2)), "masses": []}, "at least one target"),
    "no-targets-lists": ({"points": [], "masses": []}, "at least one target"),
    "target-nan-coordinate": ({"points": [[2.0, 1.0], [2.0, NAN], [1.0, 2.0]]},
                              "atom 1: point .* not finite"),
    "target-inf-coordinate": ({"points": [[2.0, 1.0], [2.0, -1.0], [1.0, INF]]},
                              "atom 2: point .* not finite"),
    "duplicate-target": ({"points": [[2.0, 1.0], [2.0, -1.0], [2.0, 1.0]]},
                         "atom 2: same point as atom 0"),
    "target-mass-at-tolerance": ({"masses": [0.5, 0.5 - 1e-9, 1e-9]}, "atom 2: mass"),
    "target-mass-0": ({"masses": [0.5, 0.5, 0.0]}, "atom 2: mass"),
    "target-mass-negative": ({"masses": [0.75, 0.5, -0.25]}, "atom 2: mass"),
    "target-mass-nan": ({"masses": [0.5, 0.25, NAN]}, "atom 2: mass"),
    "unbalanced": ({"masses": [0.5, 0.25, 0.2]}, "sum to"),
}


def _targets(case):
    return AtomicMeasure(case["points"], case["masses"])


def _source(case):
    return case.get("source") or AtomicMeasure([case["point"]], [case["mass"]])


def _json(case):
    return json.dumps({
        "alpha": case["alpha"],
        "source": {"point": list(case["point"]), "mass": case["mass"]},
        "targets": [{"point": x, "mass": m} for x, m in zip(case["points"], case["masses"])]})


def _csv(case):
    header = ["x", "y", "z"][:len(case["point"])] + ["mass"]
    rows = [[*case["point"], case["mass"]]]
    rows += [[*x, m] for x, m in zip(case["points"], case["masses"])]
    return "\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n"


ENTRY_POINTS = {
    "build_star": lambda c: build_star(c["point"], c["mass"], _targets(c), c["alpha"]),
    "build_small": lambda c: build_small(c["point"], c["mass"], _targets(c), c["alpha"]),
    "build_subdivision": lambda c: build_subdivision(c["point"], c["mass"], _targets(c),
                                                     c["alpha"]),
    **{f"global_optimize-{init}": (lambda c, init=init: global_optimize(
        _source(c), _targets(c), c["alpha"], initializer=init))
       for init in ("subdivision", "star", "small")},
    "enumerate_optimal": lambda c: enumerate_optimal(_source(c), _targets(c), c["alpha"]),
    "parse_instance-json": lambda c: parse_instance(_json(c), "json"),
    "parse_instance-csv": lambda c: parse_instance(_csv(c), "csv", alpha=c["alpha"]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", BAD)
def test_entry_points_reject_the_same_invalid_instances(case, entry):
    """check_source_targets is the one judge of an instance: every entry
    point raises InputError on each invalid one, and none returns."""
    with pytest.raises(InputError):
        ENTRY_POINTS[entry]({**BASE, **BAD[case][0]})


@pytest.mark.parametrize("case", BAD)
def test_check_source_targets_names_the_broken_rule(case):
    changes, words = BAD[case]
    c = {**BASE, **changes}
    with pytest.raises(InputError, match=words):
        check_source_targets(c["point"], c["mass"], _targets(c), c["alpha"])


@pytest.mark.parametrize(
    "entry", [e for e in ENTRY_POINTS if e.startswith(("global_optimize", "enumerate"))])
def test_entry_points_refuse_a_source_of_two_atoms(entry):
    """The entry points that take a source measure read it through
    single_atom, which refuses any other number of atoms."""
    two_atoms = AtomicMeasure([(0.0, 0.0), (1.0, 0.0)], [0.5, 0.5])
    with pytest.raises(InputError, match="single atom"):
        ENTRY_POINTS[entry]({**BASE, "source": two_atoms})


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_accept_the_valid_instance(entry):
    assert ENTRY_POINTS[entry](BASE) is not None


class RefCube:
    """The box splitting build_subdivision used before cells were found by
    index: half-open [lo, hi) per axis unless the upper face is closed, the
    outermost child faces inheriting the parent's flag."""

    def __init__(self, lo, hi, closed_hi):
        self.lo, self.hi, self.closed_hi = tuple(lo), tuple(hi), tuple(closed_hi)

    def contains(self, p) -> bool:
        for x, lo, hi, closed in zip(p, self.lo, self.hi, self.closed_hi):
            if x < lo or x > hi or (x == hi and not closed):
                return False
        return True

    def split(self, lam: int) -> list["RefCube"]:
        d = len(self.lo)
        axes = []
        for a in range(d):
            h = (self.hi[a] - self.lo[a]) / lam
            axes.append([self.lo[a] + j * h for j in range(lam)] + [self.hi[a]])
        return [RefCube([axes[a][idx[a]] for a in range(d)],
                        [axes[a][idx[a] + 1] for a in range(d)],
                        [self.closed_hi[a] and idx[a] == lam - 1 for a in range(d)])
                for idx in np.ndindex(*([lam] * d))]


def ref_subcells(cube: RefCube, lam: int, points, atom_idx):
    out = []
    for sub in cube.split(lam):
        members = [i for i in atom_idx if sub.contains(points[i])]
        if members:
            out.append(((sub.lo, sub.hi), members))
    return out


def test_subcells_half_open_faces():
    # lo 0, hi 3, lam 3: the cuts 0, 1, 2, 3 are exact
    pts = [(0.0, 0.0), (1.0, 0.5), (2.0, 2.5), (3.0, 3.0), (0.5, 3.0), (2.999, 1.0)]
    cells = _subcells(((0.0, 0.0), (3.0, 3.0)), 3, pts, list(range(len(pts))))
    assert [m for _, m in cells] == [[0], [4], [1], [5], [2, 3]]
    # an atom on an interior cut goes to the upper cell, one on the outer
    # upper face to the last cell
    assert cells[2][0] == ((1.0, 0.0), (2.0, 1.0))
    assert cells[4][0] == ((2.0, 2.0), (3.0, 3.0))


@pytest.mark.parametrize("d, lam", [(2, 3), (3, 2)])
def test_subcells_match_the_cube_split(d, lam):
    rng = np.random.default_rng(d)
    for trial in range(20):
        pts = rng.uniform(-1.0, 2.0, size=(60, d))
        pts[:5] = np.round(pts[:5])  # atoms on cuts and faces
        box = bounding_cube(pts)
        idx = sorted(rng.choice(60, size=40, replace=False).tolist())
        rows = [tuple(p) for p in pts.tolist()]
        # two levels: the root box, then each of its cells
        got = _subcells(box, lam, rows, idx)
        assert got == ref_subcells(RefCube(*box, [True] * d), lam, rows, idx)
        for sub, members in got:
            closed = [h == box[1][a] for a, h in enumerate(sub[1])]
            assert (_subcells(sub, lam, rows, members)
                    == ref_subcells(RefCube(*sub, closed), lam, rows, members))


def test_bounding_cube_covers_points():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    lo, hi = bounding_cube(pts)
    assert len(lo) == len(hi) == 3
    for p in pts:
        assert all(l <= x <= h for l, x, h in zip(lo, p, hi))
    sides = [h - l for l, h in zip(lo, hi)]
    assert max(sides) == pytest.approx(min(sides))  # a cube, not a box


def test_diameter_known_values():
    assert diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)
    assert diameter(np.array([[1.0, 1.0]])) == 0.0
    # any iterable of points: numpy rows, tuples, a dict's values
    rows = np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 1.0], [2.0, 1.0, -1.0]])
    assert diameter(list(rows)) == diameter(map(tuple, rows.tolist())) \
        == diameter(dict(enumerate(rows.tolist())).values()) == 3.4641016151377544
    assert diameter([]) == diameter(np.zeros((0, 2))) == diameter({}.values()) == 0.0


def test_diameter_at_extreme_scales():
    # the squared spans would overflow past 1e154 and underflow below 1e-154
    for s in (1e-300, 1e-170, 1e170, 1e300):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]]) * s
        assert diameter(pts) == pytest.approx(5.0 * s, rel=1e-15), s
    # the diagonal passes the largest float: through an overflowing span,
    # and from two finite spans
    assert diameter([(-1.5e308, 0.0), (1.5e308, 0.0)]) == math.inf
    assert diameter([(0.0, 0.0), (1.5e308, 1.5e308)]) == math.inf
