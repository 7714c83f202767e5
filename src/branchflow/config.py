"""Scale-derived tolerances.

All tolerances are relative to instance scale: mass tolerances scale with the
total source mass, geometric tolerances with the bounding-box diameter, and
cost tolerances with diameter * mass**alpha.
"""
from __future__ import annotations

REL_TOL = 1e-9  # a sweep or round gaining less, relative to its cost, stalls


def stalled(before: float, after: float) -> bool:
    """True when a sweep or round that took the cost from before to after
    gained at most REL_TOL of before."""
    return before - after <= REL_TOL * max(abs(before), 1e-300)


def mass_tolerance(total_mass: float) -> float:
    """Balance tolerance: 1e-9 of the total source mass."""
    return 1e-9 * abs(total_mass)


def merge_tolerance(diameter: float) -> float:
    """Vertex-merge radius: 1e-9 of the bounding-box diameter."""
    return 1e-9 * abs(diameter)


def cost_tolerance(diameter: float, total_mass: float, alpha: float) -> float:
    """Minimum accepted cost improvement: 1e-9 * diameter * mass**alpha."""
    return 1e-9 * abs(diameter) * abs(total_mass) ** alpha

