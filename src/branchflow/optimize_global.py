"""Global improvement: move whole subtrees to better attachment points.

The marginal value of routing through a vertex is captured by the potential

    P(u, t) = sum over edges e on the root path of u of
              len(e) * (w(e)**a - (w(e) - t)**a),

the exact cost change of deleting t units of flow along that path (t may be
negative, meaning flow is added).  For a vertex u carrying m = edge_mass(u),
S = P(u, m) is what the network currently pays to bring m to u, and
sigma = S / m**a is the search radius: a new parent v can only pay off when
|v - u| <= sigma.

For each candidate v outside u's subtree, removing m along the old path and
re-inserting it along v's path costs

    T(v) = c(v) + |v - u| * m**a,
    c(v) = sum over v's root path of len(e) * ((w~(e) + m)**a - w~(e)**a),

where w~ is the edge weight after the removal (shared ancestors cancel).
Reattaching u under the minimizer v* strictly lowers the total cost by
S - T(v*) whenever that is positive; the rewiring applies exactly that edit.
The full pipeline alternates construction, local sweeps, midpoint edge
subdivision (which plants candidate attachment points) and reparent passes
until a round stalls.  A round that accepted no move (each lowers the cost by
more than eps_improve) only planted midpoints, and canonicalize splices them.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from functools import reduce
from operator import add

from .config import cost_tolerance, mass_tolerance, stalled
from .construct import build_small, build_star, build_subdivision
from .errors import InvariantViolation
from .measures import AtomicMeasure, diameter, single_atom
from .network import TransportNetwork
from .optimize_local import local_sweep

MAX_ROUNDS = 50  # a cap: a round that stops paying ends the loop first
SUBDIVIDE_FACTOR = 2.0


def subdivide_long_edges(net: TransportNetwork) -> list[int]:
    """Split every edge over SUBDIVIDE_FACTOR x the mean at its midpoint.

    The midpoints are pass-through vertices that cost nothing but give the
    reparent pass attachment points along long corridors.  Returns the new
    vertex ids; splitting stops once the network has 20 vertices per target.
    """
    edges = net.edges()
    if not edges:
        return []
    lengths = [net.edge_length(child) for _, child, _ in edges]
    mean = reduce(add, lengths, 0) / len(lengths)
    threshold = SUBDIVIDE_FACTOR * mean
    cap = 20 * max(1, len(net.terminals()))
    created: list[int] = []
    for (parent, child, w), length in zip(edges, lengths):
        if length <= threshold:
            continue
        if net.n_vertices() >= cap:
            break
        mid = [(a + b) / 2.0 for a, b in zip(net.point(parent), net.point(child))]
        vid = net.add_vertex(mid)
        net.remove_edge(child)
        net.add_edge(parent, vid, w)
        net.add_edge(vid, child, w)
        created.append(vid)
    return created


def _reparent_terms(net: TransportNetwork, u: int, alpha: float
                    ) -> tuple[float, float, float, Callable[[int], float | None]]:
    """S, sigma = S / m_u**alpha, m_u**alpha and c for moving u.

    c(v) is the extra cost of re-inserting edge_mass(u) along v's root path
    after removing it along u's, or None when v is not connected to the
    root.  It is computed on demand: a call walks up to the nearest vertex
    already known and adds the edge terms root-down, memoizing each prefix,
    so only the root paths of the vertices asked about are read."""
    m_u = net.edge_mass(u)
    ma = m_u ** alpha
    root_path = net.path_to_root(u)[1:]
    s_val = 0.0  # S = P(u, m_u)
    for vid in root_path:
        w = net.edge_mass(vid)
        s_val += net.edge_length(vid) * (w ** alpha - max(w - m_u, 0.0) ** alpha)
    on_path = set(root_path)
    known = {net.root: 0.0}

    def c(v: int) -> float | None:
        path = []
        while v not in known:
            path.append(v)
            v = net.parent(v)
            if v is None:
                return None
        total = known[v]
        for x in reversed(path):
            w = net.edge_mass(x)
            w_res = max(w - m_u, 0.0) if x in on_path else w
            total = known[x] = total + net.edge_length(x) * (
                (w_res + m_u) ** alpha - w_res ** alpha)
        return total

    return s_val, s_val / ma, ma, c


def evaluate_reparent(net: TransportNetwork, u: int, alpha: float,
                      eps_improve: float) -> tuple[int, float] | None:
    """(new parent, gain S - T) for u, or None when nothing beats the
    current parent by more than eps_improve.

    The candidates are the vertices outside u's subtree, other than its
    parent and reachable from the root, in the closed ball of radius sigma
    around u; the lowest id wins a tie.  c(v) is read for those alone."""
    if u == net.root or net.parent(u) is None:
        return None
    s_val, sigma, ma, c = _reparent_terms(net, u, alpha)
    blocked = set(net.subtree(u))
    parent = net.parent(u)
    pu = net.point(u)
    radius = sigma * (1.0 + 1e-12)

    best_v = None
    best_t = math.inf
    for v in net.vertices():
        if v in blocked or v == parent:
            continue
        dist = math.dist(net.point(v), pu)
        if dist > radius:
            continue
        c_v = c(v)
        if c_v is None:
            continue  # unreachable from the root; not a valid attachment
        t_val = c_v + dist * ma
        if t_val < best_t:
            best_t = t_val
            best_v = v
    if best_v is None or s_val - best_t <= eps_improve:
        return None
    return best_v, s_val - best_t


def rewire(net: TransportNetwork, u: int, new_parent: int) -> None:
    """Reattach u (and its subtree) below new_parent, shifting edge weights:
    edge_mass(u) leaves the old root path and joins the new one.  Edges that
    drop to zero disappear, along with helpers they leave isolated."""
    m_u = net.edge_mass(u)
    minus = net.path_to_root(u)[1:]
    plus = net.path_to_root(new_parent)[1:]
    net.remove_edge(u)
    delta: dict[int, float] = {}
    for vid in minus:
        if vid != u:
            delta[vid] = delta.get(vid, 0.0) - m_u
    for vid in plus:
        delta[vid] = delta.get(vid, 0.0) + m_u
    eps_w = mass_tolerance(net.source_mass)
    dead = []
    for vid in sorted(delta):
        dw = delta[vid]
        if dw == 0.0:
            continue
        w = net.edge_mass(vid) + dw
        if w <= eps_w:
            dead.append(vid)
        else:
            net.set_weight(vid, w)
    for vid in dead:
        net.remove_edge(vid)
    net.add_edge(new_parent, u, m_u)
    # a dead edge is the only one lost, and dropping an isolated helper
    # strands no other, so the stranded helpers are the childless dead ones
    for vid in dead:
        if not net.is_terminal(vid) and not net.children(vid):
            net.remove_vertex(vid)


def reparent_pass(net: TransportNetwork, alpha: float, eps_improve: float) -> bool:
    """One breadth-first pass of evaluate-and-apply over all vertices.

    Each proposal's gain S - T(v*) is the exact cost drop, so it is applied
    by rewire with no re-check.  Returns whether any move was applied."""
    accepted = False
    for u in net.bfs_order():
        if not net.has_vertex(u) or u == net.root or net.parent(u) is None:
            continue
        proposal = evaluate_reparent(net, u, alpha, eps_improve)
        if proposal is None:
            continue
        new_parent, _ = proposal
        rewire(net, u, new_parent)
        accepted = True
    return accepted


_INITIALIZERS = {
    "subdivision": build_subdivision,
    "star": build_star,
    "small": build_small,
}


def _check_result(net: TransportNetwork, source: AtomicMeasure,
                  targets: AtomicMeasure) -> None:
    """Raise InvariantViolation unless net is one tree that delivers every
    target atom and balances within the mass tolerance."""
    problems = net.validate_structure()
    balance = net.check_balance(source, targets)
    if balance.missing:
        problems.append(f"{len(balance.missing)} atoms have no vertex at their position")
    if not balance.is_balanced(mass_tolerance(source.total_mass())):
        problems.append(f"flow residual {balance.max_abs()!r} exceeds the balance tolerance")
    if problems:
        raise InvariantViolation("global_optimize: " + "; ".join(problems), network=net)


def global_optimize(source: AtomicMeasure, targets: AtomicMeasure, alpha: float,
                    initializer: str = "subdivision") -> TransportNetwork:
    """Full pipeline: construct, then loop local sweeps, edge subdivision and
    reparent passes until a round stalls; finish canonical.  Raises
    InputError for a source that is not one atom or an instance that
    check_source_targets (run by the initializer) refuses,
    InvariantViolation when the result is not one tree that delivers every
    target atom with the flow balanced within the mass tolerance, and
    ValueError for an initializer that is not in _INITIALIZERS.

    At alpha = 1 branching never pays, so the loop skips subdivision and
    reparenting and the local sweeps flatten everything onto the source.
    """
    build = _INITIALIZERS.get(initializer)
    if build is None:
        raise ValueError(f"unknown initializer {initializer!r}")
    src_point, src_mass = single_atom(source)
    net = build(src_point, src_mass, targets, alpha)

    eps_improve = cost_tolerance(diameter([src_point, *targets.points]), src_mass, alpha)

    cost = net.cost_m_alpha(alpha)
    for _ in range(MAX_ROUNDS):
        round_start = cost
        local_sweep(net, alpha, eps_improve)
        if alpha != 1.0:
            subdivide_long_edges(net)
            reparent_pass(net, alpha, eps_improve)
        cost = net.cost_m_alpha(alpha)
        if stalled(round_start, cost):
            break

    net.canonicalize(collapse_passthrough=True)
    _check_result(net, source, targets)
    return net
