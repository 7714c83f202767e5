"""Unit tests for atomic measures, bounding cubes and subdivision cells."""
import math

import numpy as np
import pytest

from branchflow.construct import _subcells
from branchflow.measures import AtomicMeasure, bounding_cube, diameter


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
    with pytest.raises(ValueError):
        mu.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        mu.masses[0] = 2.0


def test_atomic_measure_shape_checks():
    with pytest.raises(ValueError):
        AtomicMeasure(np.zeros((2, 2, 2)), [1.0, 1.0])
    with pytest.raises(ValueError):
        AtomicMeasure([[0.0, 1.0]], [1.0, 2.0])


def test_validate_flags_bad_atoms():
    mu = AtomicMeasure([[0.0, 0.0], [0.0, 0.0], [1.0, np.inf]], [1.0, -0.5, 0.0])
    kinds = sorted(v.kind for v in mu.validate())
    assert kinds == ["duplicate_point", "nonfinite_coordinate",
                     "nonpositive_mass", "nonpositive_mass"]
    clean = AtomicMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    assert clean.validate() == []


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
