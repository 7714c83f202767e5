"""Branched transport networks over atomic measures.

Routes a single-atom source onto finitely many targets through a rooted
tree whose edges are priced by weight**alpha * length for an exponent
alpha in (0, 1]; concave weighting makes shared trunks cheaper than
parallel direct shipping, so optimal networks branch.  The package builds
feasible trees, improves them by closed-form junction moves and potential
driven rewiring, verifies small cases against brute-force oracles, and
renders results to SVG.
"""

from .bifurcation import (
    BifurcationInput,
    BifurcationResult,
    BranchCase,
    branch_angles,
    objective_f,
    solve_two_targets,
)
from .construct import build_small, build_star, build_subdivision
from .errors import (
    BranchflowError,
    DegenerateInputError,
    InputError,
    InvariantViolation,
)
from .instances import (
    GENERATORS,
    Instance,
    export_network,
    generate_points,
    import_network,
    parse_instance,
)
from .measures import AtomicMeasure, bounding_cube, diameter
from .network import BalanceReport, TransportNetwork
from .optimize_global import (
    evaluate_reparent,
    global_optimize,
    reparent_pass,
    subdivide_long_edges,
)
from .optimize_local import improve_vertex, local_sweep
from .oracle import enumerate_optimal, grid_minimize_f
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure",
    "BalanceReport",
    "BifurcationInput",
    "BifurcationResult",
    "BranchCase",
    "BranchflowError",
    "DegenerateInputError",
    "GENERATORS",
    "InputError",
    "Instance",
    "InvariantViolation",
    "TransportNetwork",
    "bounding_cube",
    "branch_angles",
    "build_small",
    "build_star",
    "build_subdivision",
    "diameter",
    "enumerate_optimal",
    "evaluate_reparent",
    "export_network",
    "generate_points",
    "global_optimize",
    "grid_minimize_f",
    "import_network",
    "improve_vertex",
    "local_sweep",
    "objective_f",
    "parse_instance",
    "render_svg",
    "reparent_pass",
    "solve_two_targets",
    "subdivide_long_edges",
]
