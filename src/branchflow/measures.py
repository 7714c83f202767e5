"""Atomic measures, their bounding boxes, and the one check of an instance.

An atomic measure is a finite set of point masses sum(m_i * delta_{x_i}),
held as plain floats: AtomicMeasure converts its input once and checks only
its shape.  single_atom reads the one atom of a source measure.  A bounding
cube is a pair (lo, hi) of float tuples; construct._subcells splits one into
cells.  The diameter is math.hypot of the spans, which needs no rescale.

check_source_targets is the only code that decides whether (source point,
source mass, targets, alpha) is a solvable instance, and every library entry
point that takes one calls it: parse_instance, build_star, build_small,
build_subdivision (so global_optimize) and enumerate_optimal.  It raises
InputError unless alpha lies in (0, 1]; the source point has d >= 2 finite
coordinates and the source mass is positive and finite; there is a target
atom, and each one has d finite coordinates, a mass above the balance
tolerance (1e-9 of the source mass) and a point of its own; the target
masses sum to the source mass within that tolerance; no coordinate exceeds
MAX_COORDINATE in magnitude; and the diameter and the star network's cost
are finite.  NaN fails every one of these comparisons.
"""
from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterator

from .config import mass_tolerance
from .errors import InputError


# Below 2**1020 the corners of a bounding cube, and their sums, stay finite.
MAX_COORDINATE = 2.0 ** 1020


class AtomicMeasure:
    """Immutable finite collection of weighted points.

    points is a tuple of n float tuples of one length d, and masses a tuple
    of n floats.  Any sequence of n coordinate sequences converts, an (n, d)
    numpy array included; ragged or non-numeric points and a mass count
    other than n raise ValueError.
    """

    __slots__ = ("points", "masses")

    def __init__(self, points, masses):
        try:
            self.points = tuple(tuple(map(float, pt)) for pt in points)
            self.masses = tuple(map(float, masses))
        except TypeError as exc:
            raise ValueError(f"points must be an (n, d) array of numbers: {exc}") from None
        if len(set(map(len, self.points))) > 1:
            raise ValueError("points must be an (n, d) array")
        if len(self.masses) != len(self.points):
            raise ValueError("masses must be a length-n vector")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return len(self.points[0]) if self.points else 0

    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def atoms(self) -> Iterator[tuple[tuple[float, ...], float]]:
        return zip(self.points, self.masses)

    def __repr__(self) -> str:
        return f"AtomicMeasure(n={self.n}, total={self.total_mass():g})"


def single_atom(source: AtomicMeasure) -> tuple[tuple[float, ...], float]:
    """The (point, mass) of a source measure; InputError unless it has
    exactly one atom."""
    if source.n != 1:
        raise InputError("the source must be a single atom")
    return source.points[0], source.masses[0]


def bounding_cube(points) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Smallest axis-aligned cube containing the points, inflated by 1%, as
    its (lo, hi) corners.

    Equal side on every axis (centered on the data).  A degenerate point set
    (single point) gets unit side.
    """
    axes = [list(map(float, axis)) for axis in zip(*points)]
    lo = [min(axis) for axis in axes]
    hi = [max(axis) for axis in axes]
    side = max(h - l for l, h in zip(lo, hi))
    if side <= 0.0:
        side = 1.0
    half = side * 1.01 / 2.0
    center = [(l + h) / 2.0 for l, h in zip(lo, hi)]
    return tuple(c - half for c in center), tuple(c + half for c in center)


def diameter(points) -> float:
    """Diagonal length of the axis-aligned bounding box of an iterable of
    points (0.0 for none).

    math.hypot scales internally, so the spans neither underflow nor
    overflow when squared; a diagonal past the largest float is inf."""
    return math.hypot(*(max(axis) - min(axis) for axis in zip(*points)))


def check_source_targets(source_point, source_mass: float, targets: AtomicMeasure,
                         alpha: float) -> None:
    """Raise InputError unless a single-atom source at source_point with
    source_mass can be routed onto targets at exponent alpha.

    The rules, in the order they are checked:
    - alpha lies in (0, 1];
    - the source point has d >= 2 coordinates, all finite;
    - the source mass is positive and finite;
    - there is at least one target, and the targets have dimension d;
    - every target atom has finite coordinates, a mass above the balance
      tolerance 1e-9 * source_mass (the optimizers prune edges at or below
      it, so a lighter atom would be cut off), and a point that no earlier
      atom has;
    - the target masses sum to the source mass within that tolerance;
    - no coordinate exceeds MAX_COORDINATE in magnitude, and the diameter of
      source and targets and the cost of the star (one direct edge per
      target) are finite floats, or no cost could be compared.

    Every comparison is written so that NaN fails it.
    """
    if not 0.0 < alpha <= 1.0:
        raise InputError(f"alpha must lie in (0, 1], got {alpha!r}")
    src = tuple(map(float, source_point))
    d = len(src)
    if d < 2:
        raise InputError(f"instances must live in dimension >= 2, got {d}")
    if not all(map(math.isfinite, src)):
        raise InputError(f"source point {src} is not finite")
    if not 0.0 < source_mass < math.inf:
        raise InputError(f"source mass must be positive and finite, got {source_mass!r}")
    if targets.n < 1:
        raise InputError("need at least one target")
    if targets.dimension != d:
        raise InputError(
            f"source has dimension {d} but targets have dimension {targets.dimension}")
    tol = mass_tolerance(source_mass)
    seen: dict[tuple, int] = {}
    for i, (x, m) in enumerate(targets.atoms()):
        if not all(map(math.isfinite, x)):
            raise InputError(f"target atom {i}: point {x} is not finite")
        if not m > tol:
            raise InputError(
                f"target atom {i}: mass {m!r} is not above the balance "
                f"tolerance {tol!r} (1e-9 of the source mass)")
        first = seen.setdefault(x, i)
        if first != i:
            raise InputError(f"target atom {i}: same point as atom {first}")
    if not abs(targets.total_mass() - source_mass) <= tol:
        raise InputError(
            f"target masses sum to {targets.total_mass()!r} but the "
            f"source supplies {source_mass!r}")
    pts = (src, *targets.points)
    if max(abs(x) for pt in pts for x in pt) > MAX_COORDINATE:
        raise InputError(f"a coordinate exceeds {MAX_COORDINATE!r} in magnitude")
    if not math.isfinite(diameter(pts)):
        raise InputError("source and targets span more than a float can hold")
    star = reduce(add, (m ** alpha * math.dist(src, x) for x, m in targets.atoms()), 0)
    if not math.isfinite(star):
        raise InputError(f"the star network's cost {star!r} is not a finite float")
