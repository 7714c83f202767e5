"""Atomic measures and their bounding boxes.

An atomic measure is a finite set of point masses sum(m_i * delta_{x_i}) with
pairwise distinct points and strictly positive masses, kept as numpy arrays.
A bounding cube is a pair (lo, hi) of float tuples; construct._subcells
splits one into cells.  Bounding boxes and the input checks run on plain
floats, and the diameter is math.hypot of the spans, which needs no rescale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import mass_tolerance
from .errors import InputError


# Below 2**1020 the corners of a bounding cube, and their sums, stay finite.
MAX_COORDINATE = 2.0 ** 1020


@dataclass(frozen=True)
class Violation:
    kind: str  # "duplicate_point" | "nonpositive_mass" | "nonfinite_coordinate"
    index: int
    detail: str


class AtomicMeasure:
    """Immutable finite collection of weighted points."""

    __slots__ = ("points", "masses")

    def __init__(self, points, masses):
        pts = np.array(points, dtype=float)
        ms = np.array(masses, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if ms.shape != (pts.shape[0],):
            raise ValueError("masses must be a length-n vector")
        pts.setflags(write=False)
        ms.setflags(write=False)
        self.points = pts
        self.masses = ms

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def atoms(self) -> Iterator[tuple[np.ndarray, float]]:
        for i in range(self.n):
            yield self.points[i], float(self.masses[i])

    def validate(self) -> list[Violation]:
        out: list[Violation] = []
        for i in range(self.n):
            if not np.all(np.isfinite(self.points[i])):
                out.append(Violation("nonfinite_coordinate", i, f"point {self.points[i]}"))
            if not np.isfinite(self.masses[i]) or self.masses[i] <= 0:
                out.append(Violation("nonpositive_mass", i, f"mass {self.masses[i]}"))
        seen: dict[tuple, int] = {}
        for i in range(self.n):
            key = tuple(self.points[i].tolist())
            if key in seen:
                out.append(Violation("duplicate_point", i, f"same point as atom {seen[key]}"))
            else:
                seen[key] = i
        return out

    def __repr__(self) -> str:
        return f"AtomicMeasure(n={self.n}, total={self.total_mass():g})"


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
    """Reject a target measure that a single-atom source cannot be routed onto.

    The targets must be non-empty, share the source's dimension, pass
    AtomicMeasure.validate, and sum to the source mass within the balance
    tolerance.  Every atom must also weigh more than that tolerance: the
    optimizers prune edges at or below it, so a lighter atom would be cut off.
    No coordinate may exceed MAX_COORDINATE in magnitude, and the diameter of
    source and targets and the cost of the star (one direct edge per target)
    must be finite floats, or no cost could be compared.
    """
    if targets.n < 1:
        raise InputError("need at least one target")
    src = tuple(map(float, source_point))
    d = len(src)
    if targets.dimension != d:
        raise InputError(
            f"source has dimension {d} but targets have dimension {targets.dimension}")
    bad = targets.validate()
    if bad:
        raise InputError(f"target atom {bad[0].index}: {bad[0].kind} ({bad[0].detail})")
    tol = mass_tolerance(source_mass)
    for i, m in enumerate(targets.masses):
        if m <= tol:
            raise InputError(
                f"target atom {i}: mass {float(m)!r} is at or below the balance "
                f"tolerance {tol!r} (1e-9 of the source mass)")
    if abs(targets.total_mass() - source_mass) > tol:
        raise InputError(
            f"target masses sum to {targets.total_mass()!r} but the "
            f"source supplies {source_mass!r}")
    pts = [src, *targets.points.tolist()]
    if max(abs(x) for pt in pts for x in pt) > MAX_COORDINATE:
        raise InputError(f"a coordinate exceeds {MAX_COORDINATE!r} in magnitude")
    if not math.isfinite(diameter(pts)):
        raise InputError("source and targets span more than a float can hold")
    star = sum(m ** alpha * math.dist(src, x)
               for x, m in zip(pts[1:], targets.masses.tolist()))
    if not math.isfinite(star):
        raise InputError(f"the star network's cost {star!r} is not a finite float")
