"""Run configuration and scale-derived tolerances.

All tolerances are relative to instance scale: mass tolerances scale with the
total source mass, geometric tolerances with the bounding-box diameter, and
cost tolerances with diameter * mass**alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

REL_TOL = 1e-9

INITIALIZERS = ("subdivision", "star", "small")


@dataclass
class OptimizeConfig:
    """Settings of the optimization pipeline; each backs a `solve` flag."""

    rel_tol: float = REL_TOL
    max_rounds: int = 50
    subdivide_factor: float = 2.0
    initializer: str = "subdivision"

    def validate(self) -> None:
        if self.initializer not in INITIALIZERS:
            raise ValueError(f"unknown initializer {self.initializer!r}")
        if not (0 < self.rel_tol < math.inf and 0 < self.subdivide_factor < math.inf):
            raise ValueError("tolerances and factors must be finite and positive")
        if type(self.max_rounds) is not int or self.max_rounds < 1:
            raise ValueError(f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")


def mass_tolerance(total_mass: float) -> float:
    """Balance tolerance: 1e-9 of the total source mass."""
    return 1e-9 * abs(total_mass)


def merge_tolerance(diameter: float) -> float:
    """Vertex-merge radius: 1e-9 of the bounding-box diameter."""
    return 1e-9 * abs(diameter)


def cost_tolerance(diameter: float, total_mass: float, alpha: float) -> float:
    """Minimum accepted cost improvement: 1e-9 * diameter * mass**alpha."""
    return 1e-9 * abs(diameter) * abs(total_mass) ** alpha

