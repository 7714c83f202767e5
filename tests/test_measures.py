"""Unit tests for atomic measures and dyadic cube geometry."""
import numpy as np
import pytest

from branchflow.measures import AtomicMeasure, Cube, bounding_cube, diameter


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


def test_cube_contains_half_open_faces():
    cube = Cube.from_bounds((0.0, 0.0), (1.0, 1.0), closed_hi=(False, True))
    assert cube.contains((0.0, 0.0))
    assert cube.contains((0.5, 1.0))
    assert not cube.contains((1.0, 0.5))
    assert not cube.contains((-0.1, 0.5))
    assert np.allclose(cube.center, [0.5, 0.5])


def test_cube_split_partitions_points():
    rng = np.random.default_rng(0)
    cube = Cube.from_bounds((0.0, 0.0), (1.0, 1.0))
    parts = cube.split(3)
    assert len(parts) == 9
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    for p in pts:
        owners = [c for c in parts if c.contains(p)]
        assert len(owners) == 1  # half-open faces: no double counting


def test_cube_split_3d_count():
    cube = Cube.from_bounds((0.0,) * 3, (2.0,) * 3)
    assert len(cube.split(2)) == 8


def test_bounding_cube_covers_points():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    cube = bounding_cube(pts)
    assert cube.dimension == 3
    for p in pts:
        assert cube.contains(p)
    sides = [h - l for l, h in zip(cube.lo, cube.hi)]
    assert max(sides) == pytest.approx(min(sides))  # a cube, not a box


def test_diameter_known_values():
    assert diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)
    assert diameter(np.array([[1.0, 1.0]])) == 0.0


def test_diameter_at_extreme_scales():
    # the squared spans would overflow past 1e154 and underflow below 1e-154
    for s in (1e-300, 1e-170, 1e170, 1e300):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]]) * s
        assert diameter(pts) == pytest.approx(5.0 * s, rel=1e-15), s
