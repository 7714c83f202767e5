"""Slow, independent ground-truth solvers used to check the fast paths.

grid_minimize_f minimizes the single-bifurcation cost over the closed
triangle by brute force: a dense barycentric grid of GRID_RESOLUTION steps
per side followed by rounds of a shrinking 9-point stencil.  The grid is
built once and shared, read-only, by every call; the stencil evaluates f on
plain floats.
Every triangle, collinear ones included, takes this one path.  It never
uses the closed-form construction.

enumerate_optimal solves tiny instances (up to four targets) exactly up to
junction-placement tolerance: it enumerates every full binary branching
topology over the targets as a plan in construct._greedy_small's format,
places its junctions, and scores it with construct.plan_cost;
TransportNetwork.wire wires the cheapest.  Only the plan format, the cost
sum and the wiring are shared with the solver.  Degenerate optima (junctions
collapsing onto the source, a target, or each other) appear as zero-length
edges and are cleaned away when the winning network is canonicalized.

Most topologies lose by far, so enumerate_optimal prunes them.  It visits
the plans in ascending order of their cost with every junction at its
starting midpoint, the enumeration index breaking ties, and keeps the plan
with the lowest (cost, enumeration index), the winner a scan in
enumeration order that keeps the first strictly cheaper plan also picks.
After each smoothing stage the placement takes a floor under the plan's
cost from the convexity of the smoothed objective (_stage_floor) and drops
the plan once that floor exceeds the best cost so far by a relative 1e-9.
Such a plan cannot win, and every plan that can is placed with unchanged
arithmetic, so the winner and the output do not depend on the pruning.

Junction placement takes a plan (points, edges, first, alpha) and runs on
plain floats.  _joint_smooth_min moves all junctions at once on the cost
with each edge length |v| smoothed to sqrt(|v|^2 + delta^2), delta shrinking
through four stages; each stage is a damped Newton solve with the exact
Hessian (at most 3d x 3d for four targets in d dimensions), factored by a
small hand-written Cholesky.  _descend then polishes by per-junction
closed-form moves until no junction moves by DESCENT_TOL of the plan's
scale.
"""
from __future__ import annotations

import logging
import math
from functools import lru_cache
from operator import mul, sub
from typing import Iterator

from .bifurcation import BifurcationInput, branch_point
from .bifurcation import solve_two_targets  # noqa: F401 (perfbench's tracer wraps this name here)
from .construct import plan_cost
from .errors import DegenerateInputError, InputError
from .measures import AtomicMeasure, check_source_targets, single_atom
from .network import TransportNetwork

logger = logging.getLogger(__name__)

GRID_RESOLUTION = 64
REFINE_ROUNDS = 20
DESCENT_TOL = 1e-10
MAX_DESCENT_PASSES = 10_000
SMOOTHING = (1e-2, 1e-4, 1e-6, 1e-9)  # delta stages, times the plan's scale
NEWTON_TOL = 1e-20
MAX_NEWTON_STEPS = 100


@lru_cache(maxsize=1)
def _barycentric_grid():
    """Read-only (3, n) numpy array whose columns are every (i, j, k) / r
    with i + j + k = r = GRID_RESOLUTION.

    Built once and shared by every call.  Columns rather than rows, so each
    coordinate of the grid points is one contiguous row.
    """
    import numpy as np

    r = GRID_RESOLUTION
    idx = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    bars = np.ascontiguousarray((np.array(idx, dtype=float) / r).T)
    bars.setflags(write=False)
    return bars


# moves of the refinement stencil in the last two barycentric coordinates
_STENCIL = tuple((di, dj) for di in (-1.0, 0.0, 1.0) for dj in (-1.0, 0.0, 1.0))


def grid_minimize_f(inp: BifurcationInput):
    """Brute-force minimum of f over the closed triangle OPQ.

    Returns (point, value) for any ambient dimension.  The barycentric
    grid is built once and reused by later calls; the stencil walk runs on
    plain floats.  A degenerate (collinear) triangle takes the same path:
    its grid and stencil points cover the segment.
    """
    import numpy as np

    corners = np.stack([inp.o, inp.p, inp.q])
    a = float(inp.alpha)
    weights = (float(inp.m_o) ** a, float(inp.m_p) ** a, float(inp.m_q) ** a)
    bars = _barycentric_grid()
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

    h = 1.0 / GRID_RESOLUTION
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


def _plan(shape: Shape, points, masses):
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
        return masses[shape]

    def walk(shape: Shape, parent: int):
        """Add shape's subtree below parent; return its start point."""
        if not isinstance(shape, tuple):
            edges.append((parent, shape + 1, mass(shape)))
            return points[shape]
        node = first + len(junctions)
        junctions.append(None)
        edges.append((parent, node, mass(shape)))
        junctions[node - first] = tuple((a + b) / 2.0 for a, b in
                                        zip(walk(shape[0], node), walk(shape[1], node)))
        return junctions[node - first]

    walk(shape, 0)
    return junctions, edges


def _scale(points: list, first: int) -> float:
    """Largest coordinate range of a plan's fixed points points[:first]
    (1.0 when they all coincide)."""
    spans = [max(axis) - min(axis) for axis in zip(*points[:first])]
    return max(spans) or 1.0


def _edge_terms(fixed: list, edges, first: int, alpha: float) -> list:
    """A plan's edges as (i, a, j, b, w**alpha) for the smoothed objective:
    i and j index the junction rows (node - first), and a negative row
    stands for the fixed point a or b, which is None otherwise."""
    return [(p - first, fixed[p] if p < first else None,
             c - first, fixed[c] if c < first else None, w ** alpha)
            for p, c, w in edges]


def _smoothed_value(terms, pts, delta: float) -> float:
    """sum coef * sqrt(|v|^2 + delta^2) over the plan's edges v."""
    total = 0.0
    for i, a, j, b, coef in terms:
        total += coef * math.hypot(*map(sub, pts[i] if i >= 0 else a,
                                        pts[j] if j >= 0 else b), delta)
    return total


def _smoothed_system(terms, pts, delta: float, d: int):
    """Value, gradient and Hessian of the smoothed objective in the flat
    junction coordinates, and the gradient's rate of change with delta.

    An edge v = u - w with r = sqrt(|v|^2 + delta^2) adds coef * v / r to
    u's gradient and coef * (I / r - v v^T / r^3) to the Hessian blocks
    (u, u) and (w, w), and subtracts them at w and from (u, w) and (w, u);
    for delta > 0 the Hessian is positive definite.  The gradient term's
    delta derivative is -coef * delta * v / r^3."""
    n = len(pts) * d
    value = 0.0
    grad = [0.0] * n
    drift = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    dims = range(d)
    for i, a, j, b, coef in terms:
        v = list(map(sub, pts[i] if i >= 0 else a, pts[j] if j >= 0 else b))
        r = math.hypot(*v, delta)
        value += coef * r
        s = coef / r
        t = s / (r * r)
        block = [[-t * x * y for y in v] for x in v]
        for k in dims:
            block[k][k] += s
        ends = [(x * d, sign) for x, sign in ((i, 1.0), (j, -1.0)) if x >= 0]
        for row, sign in ends:
            for k in dims:
                grad[row + k] += sign * s * v[k]
                drift[row + k] -= sign * t * delta * v[k]
            for col, sign2 in ends:
                sign_b = sign * sign2
                for k in dims:
                    hrow = hess[row + k]
                    brow = block[k]
                    for m in dims:
                        hrow[col + m] += sign_b * brow[m]
    return value, grad, hess, drift


def _cholesky(a: list) -> list | None:
    """Lower Cholesky factor of a symmetric matrix; None when a pivot is
    not positive."""
    n = len(a)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        li = low[i]
        for j in range(i + 1):
            lj = low[j]
            s = a[i][j] - sum(map(mul, li[:j], lj[:j]))
            if i == j:
                if not s > 0.0:
                    return None
                li[i] = math.sqrt(s)
            else:
                li[j] = s / lj[j]
    return low


def _factor(hess: list) -> list:
    """Cholesky factor of hess, with a growing multiple of its largest
    diagonal entry added when rounding leaves it indefinite.  The last
    shift, 100 times that entry, makes any finite Hessian of up to 3d x 3d
    diagonally dominant."""
    top = max(row[k] for k, row in enumerate(hess))
    for shift in (0.0, *(10.0 ** e * top for e in range(-14, 3, 2))):
        a = [row[:] for row in hess]
        for k in range(len(a)):
            a[k][k] += shift
        low = _cholesky(a)
        if low is not None:
            return low
    raise FloatingPointError("the smoothed Hessian is not finite")


def _solve(low: list, rhs: list) -> list:
    """x with low low^T x = rhs, by forward and back substitution."""
    n = len(rhs)
    y = [0.0] * n
    for i in range(n):
        li = low[i]
        y[i] = (rhs[i] - sum(map(mul, li[:i], y[:i]))) / li[i]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (y[i] - sum(low[k][i] * x[k] for k in range(i + 1, n))) / low[i][i]
    return x


def _moved(pts: list, step: list, t: float, d: int) -> list:
    """Junction rows pts moved by t times the flat step."""
    return [[x + t * s for x, s in zip(row, step[r * d:(r + 1) * d])]
            for r, row in enumerate(pts)]


def _newton_stage(terms, pts: list, delta: float, d: int):
    """Damped Newton solve of one smoothing stage from pts: exact Hessian,
    Armijo backtracking with a quadratic fit, stopped when the squared
    Newton decrement falls to NEWTON_TOL of the value or a step stops
    lowering it.  Returns the junction rows, the smoothed value and
    gradient there, the Cholesky factor of the last Hessian and the last
    gradient's delta derivative."""
    for _ in range(MAX_NEWTON_STEPS):
        value, grad, hess, drift = _smoothed_system(terms, pts, delta, d)
        low = _factor(hess)
        step = _solve(low, [-x for x in grad])
        slope = math.fsum(map(mul, grad, step))  # minus the decrement squared
        if -slope <= NEWTON_TOL * value:
            break
        t = 1.0
        while True:
            trial = _moved(pts, step, t, d)
            f_trial = _smoothed_value(terms, trial, delta)
            if f_trial <= value + 1e-4 * t * slope or t < 1e-20:
                break
            # minimizer of the quadratic through value, slope and f_trial
            fit = -slope * t * t / (2.0 * (f_trial - value - slope * t))
            t = min(0.5 * t, max(0.1 * t, fit))  # a NaN fit gives 0.1 * t
        if not f_trial < value:
            break  # no descent left at this rounding level
        pts = trial
    else:
        # the step cap ended the stage one move after the last system
        value, grad = _smoothed_system(terms, pts, delta, d)[:2]
    return pts, value, grad, low, drift


def _stage_floor(fixed: list, terms, pts: list, value: float, grad: list,
                 delta: float, k: int) -> float:
    """Lower bound on a plan's unsmoothed minimum from the smoothed value
    and gradient, value and grad, at any junction rows pts of a stage with
    smoothing delta, in a plan scaled by 2**-k; the stages take it where
    they end.

    The smoothed objective is convex and at most the cost plus
    delta * sum w**alpha.  Some minimizer keeps every junction in the convex
    hull of the fixed points, since projecting onto the hull shortens every
    edge, and there junction j is at most max_a |pts[j] - a| from pts[j].
    So the cost anywhere the minimizer can be is at least
    value - |grad| * R - delta * sum w**alpha, with R**2 the sum of those
    squared distances; the result is in the plan's own units."""
    radius = math.sqrt(sum(max(math.dist(row, a) ** 2 for a in fixed) for row in pts))
    slack = delta * math.fsum(coef for *_, coef in terms)
    return math.ldexp(value - math.hypot(*grad) * radius - slack, k)


def _joint_smooth_min(points: list, edges, first: int, alpha: float,
                      above: float = math.inf) -> bool:
    """Jointly minimize the junction positions points[first:] of a plan on a
    smoothed objective, in place; True when placed.  False, with points
    left as they were, as soon as a stage's _stage_floor shows that the
    plan's cost cannot come within a relative 1e-9 of above.

    For a fixed topology the cost is convex in the junction coordinates but
    not smooth, and per-junction block descent can stall where junctions
    coincide.  Replacing each |v| with sqrt(|v|^2 + delta^2) and shrinking
    delta through SMOOTHING times the plan's scale keeps the problem smooth
    and strictly convex the whole way down; each stage is a damped Newton
    solve.  A stage starts where the one before ended, moved along the
    tangent of the minimizer's path in delta when that starts lower.  The
    plan is solved scaled by the power of two that brings its fixed points
    into unit range, which is exact, so the solve does not depend on the
    coordinate scale.
    """
    free = len(points) - first
    if not free:
        return True
    d = len(points[0])
    scale = _scale(points, first)
    k = math.frexp(scale)[1]
    fixed = [tuple(math.ldexp(float(x), -k) for x in pt) for pt in points[:first]]
    pts = [[math.ldexp(float(x), -k) for x in pt] for pt in points[first:]]
    terms = _edge_terms(fixed, edges, first, alpha)
    deltas = [f * math.ldexp(scale, -k) for f in SMOOTHING]
    for stage, delta in enumerate(deltas):
        pts, value, grad, low, drift = _newton_stage(terms, pts, delta, d)
        if _stage_floor(fixed, terms, pts, value, grad, delta, k) > above * (1.0 + 1e-9):
            return False
        if stage + 1 < len(deltas):
            # the minimizer moves by -H^-1 (d grad / d delta) per unit delta
            after = deltas[stage + 1]
            guess = _moved(pts, _solve(low, drift), delta - after, d)
            if _smoothed_value(terms, guess, after) < _smoothed_value(terms, pts, after):
                pts = guess
    points[first:] = [tuple(math.ldexp(x, k) for x in row) for row in pts]
    return True


def _descend(points: list, edges, first: int, alpha: float) -> bool:
    """Coordinate descent on the junction positions points[first:] of a
    plan, in place, junctions visited in plan order; True when converged,
    that is when a pass moves no junction by DESCENT_TOL of the plan's
    scale."""
    tol = DESCENT_TOL * _scale(points, first)
    below: list[list[tuple[int, float]]] = [[] for _ in points]
    for p, c, w in edges:
        below[p].append((c, w))
    stars = [(p, c, *below[c]) for p, c, _ in edges if c >= first]
    for _ in range(MAX_DESCENT_PASSES):
        moved = 0.0
        for o, j, (p, m_p), (q, m_q) in stars:
            try:
                new_pos = branch_point(points[o], points[p], points[q], m_p, m_q, alpha)[1]
            except DegenerateInputError:
                new_pos = points[j]  # children coincide; leave the junction be
            moved = max(moved, math.dist(new_pos, points[j]))
            points[j] = new_pos
        if moved < tol:
            return True
    return False


def enumerate_optimal(source: AtomicMeasure, targets: AtomicMeasure, alpha: float):
    """Exhaustive optimum over branching topologies for up to four targets.

    Returns (network, cost).  The network is canonical: junctions that
    collapsed onto other vertices during descent are merged away.  The
    plans are placed cheapest start first, and a plan whose stage floor
    shows it cannot beat the best cost so far is dropped unplaced and
    unpolished; of the placed plans the lowest (cost, enumeration index)
    wins, as in a plain scan of every topology in enumeration order.  Raises
    InputError for a source that is not one atom, more than four targets,
    or an instance that check_source_targets refuses.
    """
    src, m_total = single_atom(source)
    if targets.n > 4:
        raise InputError("exhaustive search is limited to four targets")
    check_source_targets(src, m_total, targets, alpha)
    points = targets.points
    first = targets.n + 1

    plans = []
    for index, shape in enumerate(topologies(targets.n)):
        junctions, edges = _plan(shape, points, targets.masses)
        pts = [src, *points, *junctions]
        plans.append((plan_cost(pts, edges, alpha), index, shape, pts, edges))
    plans.sort(key=lambda plan: plan[:2])

    best = (math.inf, -1)  # (cost, enumeration index) of the incumbent
    best_plan = None
    for _, index, shape, pts, edges in plans:
        if not _joint_smooth_min(pts, edges, first, alpha, best[0]):
            continue
        if not _descend(pts, edges, first, alpha):
            logger.warning("junction descent hit the pass cap for shape %r", shape)
        cost = plan_cost(pts, edges, alpha)
        if (cost, index) < best:
            best = (cost, index)
            best_plan = (pts[first:], edges)

    net = TransportNetwork(src, m_total)
    ids = [net.root] + [net.add_vertex(pt, terminal=True) for pt in points]
    net.wire(ids, *best_plan)
    net.canonicalize()
    return net, net.cost_m_alpha(alpha)
