"""Slow, independent ground-truth solvers used to check the fast paths.

grid_minimize_f minimizes the single-bifurcation cost over the closed
triangle by brute force: a dense barycentric grid followed by rounds of a
shrinking 9-point stencil.  The grid is built once per resolution and
shared, read-only, by every call; the stencil evaluates f on plain floats.
Every triangle, collinear ones included, takes this one path.  It never
uses the closed-form construction.

enumerate_optimal solves tiny instances (up to four targets) exactly up to
junction-placement tolerance: it enumerates every full binary branching
topology over the targets as a plan in construct._greedy_small's format,
places its junctions by a smoothed joint solve and coordinate descent, and
scores it with construct.plan_cost; construct._wire wires the cheapest.
Only the plan format, the cost sum and the wiring are shared with the
solver.  Degenerate optima (junctions collapsing onto the source, a target,
or each other) appear as zero-length edges and are cleaned away when the
winning network is canonicalized.
"""
from __future__ import annotations

import logging
import math
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy.optimize import minimize

from .bifurcation import BifurcationInput, solve_two_targets
from .construct import _wire, plan_cost
from .errors import InputError
from .measures import AtomicMeasure, check_source_targets
from .network import TransportNetwork

logger = logging.getLogger(__name__)

GRID_RESOLUTION = 64
REFINE_ROUNDS = 20
DESCENT_TOL = 1e-10
MAX_DESCENT_PASSES = 10_000


@lru_cache(maxsize=8)
def _barycentric_grid(resolution: int) -> np.ndarray:
    """Read-only (3, n) array whose columns are every (i, j, k) / resolution
    with i + j + k = resolution.

    Built once per resolution and shared by every call.  Columns rather
    than rows, so each coordinate of the grid points is one contiguous row.
    """
    idx = [(i, j, resolution - i - j)
           for i in range(resolution + 1)
           for j in range(resolution + 1 - i)]
    bars = np.ascontiguousarray((np.array(idx, dtype=float) / resolution).T)
    bars.setflags(write=False)
    return bars


# moves of the refinement stencil in the last two barycentric coordinates
_STENCIL = tuple((di, dj) for di in (-1.0, 0.0, 1.0) for dj in (-1.0, 0.0, 1.0))


def grid_minimize_f(inp: BifurcationInput, resolution: int = GRID_RESOLUTION):
    """Brute-force minimum of f over the closed triangle OPQ.

    Returns (point, value) for any ambient dimension.  The barycentric
    grid is built once per resolution and reused by later calls; the
    stencil walk runs on plain floats.  A degenerate (collinear) triangle
    takes the same path: its grid and stencil points cover the segment.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    corners = np.stack([inp.o, inp.p, inp.q])
    a = float(inp.alpha)
    weights = (float(inp.m_o) ** a, float(inp.m_p) ** a, float(inp.m_q) ** a)
    bars = _barycentric_grid(resolution)
    points = corners.T @ bars
    values = sum(w * np.sqrt(((points - c[:, None]) ** 2).sum(axis=0))
                 for w, c in zip(weights, corners))
    best = int(np.argmin(values))
    b0, b1, b2 = bars[:, best].tolist()
    best_val = float(values[best])

    o, p, q = corners.tolist()
    coords = tuple(zip(o, p, q))
    w_o, w_p, w_q = weights
    dist = math.dist

    h = 1.0 / resolution
    for _ in range(REFINE_ROUNDS):
        moves = [(di * h, dj * h) for di, dj in _STENCIL]
        for _ in range(64):  # walk at this scale while it helps
            step_val = math.inf
            step = None
            for d1, d2 in moves:
                c1 = b1 + d1
                c2 = b2 + d2
                c0 = 1.0 - c1 - c2
                if not (c0 >= 0.0 and c1 >= 0.0 and c2 >= 0.0):
                    continue
                pt = [c0 * x + c1 * y + c2 * z for x, y, z in coords]
                val = w_o * dist(pt, o) + w_p * dist(pt, p) + w_q * dist(pt, q)
                if val < step_val:
                    step_val = val
                    step = (c0, c1, c2)
            if step is None or step_val >= best_val:
                break
            best_val = step_val
            b0, b1, b2 = step
        h /= 2.0
    return np.array([b0, b1, b2]) @ corners, best_val


# ---------------- exhaustive tiny-instance solver ----------------

Shape = object  # a leaf index, or a tuple (left_shape, right_shape)


def topologies(n: int) -> Iterator[Shape]:
    """Every full binary branching shape over leaves 0..n-1.

    Unordered children; each shape appears once.  Counts: 1, 1, 3, 15 for
    n = 1..4.
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    yield from _shapes_over(tuple(range(n)))


def _shapes_over(leaves: tuple[int, ...]) -> Iterator[Shape]:
    if len(leaves) == 1:
        yield leaves[0]
        return
    first, rest = leaves[0], leaves[1:]
    m = len(rest)
    # the subtree containing `first` takes any proper subset of the rest
    for mask in range(2 ** m - 1):
        left = (first,) + tuple(rest[i] for i in range(m) if mask >> i & 1)
        right = tuple(rest[i] for i in range(m) if not mask >> i & 1)
        for ls in _shapes_over(left):
            for rs in _shapes_over(right):
                yield (ls, rs)


def _plan(shape: Shape, points: np.ndarray, masses):
    """A topology as a _greedy_small-style plan (junctions, edges).

    Node 0 is the source, nodes 1..n the targets and the junctions follow in
    preorder, each starting at the midpoint of its two children's starts.
    Edges (parent, child, weight) are listed in preorder, left child first."""
    first = len(masses) + 1
    junctions: list = []
    edges: list = []

    def mass(shape: Shape) -> float:
        if isinstance(shape, tuple):
            return mass(shape[0]) + mass(shape[1])
        return float(masses[shape])

    def walk(shape: Shape, parent: int):
        """Add shape's subtree below parent; return its start point."""
        if not isinstance(shape, tuple):
            edges.append((parent, shape + 1, mass(shape)))
            return points[shape]
        node = first + len(junctions)
        junctions.append(None)
        edges.append((parent, node, mass(shape)))
        junctions[node - first] = (walk(shape[0], node) + walk(shape[1], node)) / 2.0
        return junctions[node - first]

    walk(shape, 0)
    return junctions, edges


def _joint_smooth_min(points: list, edges, first: int, alpha: float) -> None:
    """Jointly minimize the junction positions points[first:] of a plan on a
    smoothed objective, in place.

    For a fixed topology the cost is convex in the junction coordinates but
    not smooth, and per-junction block descent can stall where junctions
    coincide.  Replacing each |v| with sqrt(|v|^2 + delta^2) and shrinking
    delta keeps the problem smooth and convex the whole way down, so a
    quasi-Newton solve tracks the true minimizer reliably.
    """
    free = len(points) - first
    if not free:
        return
    # junction rows are indexed from 0; a negative row marks a fixed point
    terms = [(p - first, points[p], c - first, points[c], w ** alpha)
             for p, c, w in edges]
    scale = max(float(np.ptp(np.vstack(points[:first]), axis=0).max()), 1e-9)

    def value_and_grad(x: np.ndarray, delta: float):
        pts = x.reshape(free, -1)
        val = 0.0
        grad = np.zeros_like(pts)
        for i, a, j, b, coef in terms:
            diff = (pts[i] if i >= 0 else a) - (pts[j] if j >= 0 else b)
            r = math.sqrt(float(np.dot(diff, diff)) + delta * delta)
            val += coef * r
            g = coef * diff / r
            if i >= 0:
                grad[i] += g
            if j >= 0:
                grad[j] -= g
        return val, grad.ravel()

    x = np.concatenate(points[first:])
    for delta in (1e-2 * scale, 1e-4 * scale, 1e-6 * scale, 1e-9 * scale):
        res = minimize(value_and_grad, x, args=(delta,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12})
        x = res.x
    points[first:] = x.reshape(free, -1)


def _descend(points: list, edges, first: int, alpha: float) -> bool:
    """Coordinate descent on the junction positions points[first:] of a
    plan, in place, junctions visited in plan order; True when converged."""
    below: list[list[tuple[int, float]]] = [[] for _ in points]
    for p, c, w in edges:
        below[p].append((c, w))
    stars = [(p, c, *below[c]) for p, c, _ in edges if c >= first]
    for _ in range(MAX_DESCENT_PASSES):
        moved = 0.0
        for o, j, (p, m_p), (q, m_q) in stars:
            inp = BifurcationInput(o=points[o], p=points[p], q=points[q],
                                   m_p=m_p, m_q=m_q, alpha=alpha)
            try:
                new_pos = solve_two_targets(inp).b_star
            except InputError:
                new_pos = points[j]  # children coincide; leave the junction be
            moved = max(moved, math.dist(new_pos, points[j]))
            points[j] = new_pos
        if moved < DESCENT_TOL:
            return True
    return False


def enumerate_optimal(source: AtomicMeasure, targets: AtomicMeasure, alpha: float):
    """Exhaustive optimum over branching topologies for up to four targets.

    Returns (network, cost).  The network is canonical: junctions that
    collapsed onto other vertices during descent are merged away.
    """
    if source.n != 1:
        raise InputError("the source must be a single atom")
    if targets.n > 4:
        raise InputError("exhaustive search is limited to four targets")
    if not (0.0 < alpha <= 1.0):
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    src = source.points[0]
    m_total = source.total_mass()
    check_source_targets(src, m_total, targets)
    points = targets.points
    first = targets.n + 1

    best_cost = math.inf
    best_plan = None
    for shape in topologies(targets.n):
        junctions, edges = _plan(shape, points, targets.masses)
        pts = [src, *points, *junctions]
        _joint_smooth_min(pts, edges, first, alpha)
        if not _descend(pts, edges, first, alpha):
            logger.warning("junction descent hit the pass cap for shape %r", shape)
        cost = plan_cost(pts, edges, alpha)
        if cost < best_cost:
            best_cost = cost
            best_plan = (pts[first:], edges)

    net = TransportNetwork(src, m_total)
    ids = [net.root] + [net.add_vertex(pt, terminal=True) for pt in points]
    _wire(net, ids, *best_plan)
    net.canonicalize()
    return net, net.cost_m_alpha(alpha)
