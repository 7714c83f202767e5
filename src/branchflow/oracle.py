"""Slow, independent ground-truth solvers used to check the fast paths.

grid_minimize_f minimizes the single-bifurcation cost over the closed
triangle by brute force: a dense barycentric grid followed by rounds of a
shrinking 9-point stencil.  The grid is built once per resolution and
shared, read-only, by every call; the stencil evaluates f on plain floats.
It never uses the closed-form construction.

enumerate_optimal solves tiny instances (up to four targets) exactly up to
junction-placement tolerance: it enumerates every full binary branching
topology over the targets, optimizes junction coordinates by coordinate
descent, and returns the cheapest result.  Degenerate optima (junctions
collapsing onto the source, a target, or each other) appear as zero-length
edges and are cleaned away when the winning network is materialized.
"""
from __future__ import annotations

import logging
import math
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy.optimize import minimize

from .bifurcation import BifurcationInput, _objective_batch, solve_two_targets
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
    stencil walk runs on plain floats.  Degenerate triangles fall back to
    a segment search between the two farthest corners.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    corners = np.stack([inp.o, inp.p, inp.q])

    if _is_collinear(corners):
        return _segment_minimize(corners, inp, resolution)

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


def _is_collinear(corners: np.ndarray) -> bool:
    o, p, q = corners
    v1 = p - o
    v2 = q - o
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    scale = max(n1, n2)
    if scale == 0.0:
        return True
    dot = float(np.dot(v1, v2))
    cross_sq = max(n1 * n1 * n2 * n2 - dot * dot, 0.0)
    return math.sqrt(cross_sq) <= 1e-12 * scale * scale


def _segment_minimize(corners: np.ndarray, inp: BifurcationInput, resolution: int):
    """1-d brute force along the segment spanned by collinear corners."""
    d = [(np.linalg.norm(corners[i] - corners[j]), i, j)
         for i in range(3) for j in range(i + 1, 3)]
    _, i, j = max(d)
    a, b = corners[i], corners[j]
    ts = np.linspace(0.0, 1.0, resolution + 1)
    pts = a + ts[:, None] * (b - a)
    vals = _objective_batch(pts, inp)
    k = int(np.argmin(vals))
    best_t = float(ts[k])
    best_val = float(vals[k])
    h = 1.0 / resolution
    for _ in range(REFINE_ROUNDS):
        for _ in range(64):
            cand_t = np.clip([best_t - h, best_t, best_t + h], 0.0, 1.0)
            cand = a + np.asarray(cand_t)[:, None] * (b - a)
            vals = _objective_batch(cand, inp)
            k = int(np.argmin(vals))
            if vals[k] >= best_val:
                break
            best_val = float(vals[k])
            best_t = float(cand_t[k])
        h /= 2.0
    return a + best_t * (b - a), best_val


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


class _Node:
    __slots__ = ("left", "right", "leaf", "mass", "pos")

    def __init__(self, shape, points, masses):
        if isinstance(shape, tuple):
            self.leaf = None
            self.left = _Node(shape[0], points, masses)
            self.right = _Node(shape[1], points, masses)
            self.mass = self.left.mass + self.right.mass
            self.pos = (self.left.pos + self.right.pos) / 2.0
        else:
            self.leaf = int(shape)
            self.left = self.right = None
            self.mass = float(masses[self.leaf])
            self.pos = np.array(points[self.leaf], dtype=float)

    def junctions(self):
        if self.leaf is not None:
            return
        yield self
        yield from self.left.junctions()
        yield from self.right.junctions()


def _joint_smooth_min(root: _Node, source: np.ndarray, alpha: float) -> None:
    """Jointly minimize junction positions on a smoothed objective.

    For a fixed topology the cost is convex in the junction coordinates but
    not smooth, and per-junction block descent can stall where junctions
    coincide.  Replacing each |v| with sqrt(|v|^2 + delta^2) and shrinking
    delta keeps the problem smooth and convex the whole way down, so a
    quasi-Newton solve tracks the true minimizer reliably.
    """
    nodes = list(root.junctions())
    if not nodes:
        return
    d = len(source)
    index = {id(n): i for i, n in enumerate(nodes)}
    edges: list[tuple[int, np.ndarray | None, int, np.ndarray | None, float]] = []

    def walk(node: _Node, parent) -> None:
        me = index[id(node)] if node.leaf is None else None
        coef = node.mass ** alpha
        pi = parent if isinstance(parent, int) else None
        pp = None if isinstance(parent, int) else parent
        ci = me
        cp = None if me is not None else node.pos
        edges.append((pi, pp, ci, cp, coef))
        if node.leaf is None:
            walk(node.left, me)
            walk(node.right, me)

    walk(root, source)
    leafs = np.vstack([source.reshape(1, -1)] +
                      [e[3].reshape(1, -1) for e in edges if e[3] is not None])
    scale = max(float(np.ptp(leafs, axis=0).max()), 1e-9)

    def value_and_grad(x: np.ndarray, delta: float):
        pts = x.reshape(len(nodes), d)
        val = 0.0
        grad = np.zeros_like(pts)
        for pi, pp, ci, cp, coef in edges:
            a = pts[pi] if pi is not None else pp
            b = pts[ci] if ci is not None else cp
            diff = a - b
            r = math.sqrt(float(np.dot(diff, diff)) + delta * delta)
            val += coef * r
            g = coef * diff / r
            if pi is not None:
                grad[pi] += g
            if ci is not None:
                grad[ci] -= g
        return val, grad.ravel()

    x = np.concatenate([n.pos for n in nodes])
    for delta in (1e-2 * scale, 1e-4 * scale, 1e-6 * scale, 1e-9 * scale):
        res = minimize(value_and_grad, x, args=(delta,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12})
        x = res.x
    for node, pos in zip(nodes, x.reshape(len(nodes), d)):
        node.pos = pos


def _descend(root: _Node, source: np.ndarray, alpha: float) -> bool:
    """Coordinate descent on junction positions; True when converged."""
    nodes = list(root.junctions())
    parents: dict[int, np.ndarray] = {id(root): source}
    for _ in range(MAX_DESCENT_PASSES):
        moved = 0.0
        for node in nodes:
            parents[id(node.left)] = node.pos
            parents[id(node.right)] = node.pos
        for node in nodes:
            inp = BifurcationInput(
                o=parents[id(node)], p=node.left.pos, q=node.right.pos,
                m_p=node.left.mass, m_q=node.right.mass, alpha=alpha)
            try:
                new_pos = solve_two_targets(inp).b_star
            except InputError:
                new_pos = node.pos  # children coincide; leave the junction be
            moved = max(moved, math.dist(new_pos, node.pos))
            node.pos = new_pos
            parents[id(node.left)] = new_pos
            parents[id(node.right)] = new_pos
        if moved < DESCENT_TOL:
            return True
    return False


def _tree_cost(node: _Node, parent_pos, alpha: float) -> float:
    c = node.mass ** alpha * math.dist(node.pos, parent_pos)
    if node.leaf is None:
        c += _tree_cost(node.left, node.pos, alpha)
        c += _tree_cost(node.right, node.pos, alpha)
    return c


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
    masses = targets.masses

    best_cost = math.inf
    best_root: _Node | None = None
    for shape in topologies(targets.n):
        root = _Node(shape, points, masses)
        _joint_smooth_min(root, src, alpha)
        if not _descend(root, src, alpha):
            logger.warning("junction descent hit the pass cap for shape %r", shape)
        cost = _tree_cost(root, src, alpha)
        if cost < best_cost:
            best_cost = cost
            best_root = root

    net = TransportNetwork(src, m_total)
    leaf_ids = [net.add_vertex(points[i], terminal=True) for i in range(targets.n)]

    def attach(node: _Node, parent_vid: int) -> None:
        if node.leaf is not None:
            net.add_edge(parent_vid, leaf_ids[node.leaf], node.mass)
            return
        vid = net.add_vertex(node.pos)
        net.add_edge(parent_vid, vid, node.mass)
        attach(node.left, vid)
        attach(node.right, vid)

    attach(best_root, net.root)
    net.canonicalize()
    return net, net.cost_m_alpha(alpha)
