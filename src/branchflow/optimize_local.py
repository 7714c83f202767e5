"""Local improvement: rebuild the one-vertex star around each vertex.

For a non-root vertex u with children, the edges touching u form a small
transport problem of their own: mass edge_mass(u) enters from parent(u) and
must reach the children (plus whatever u itself consumes, when u is a
target that passes flow onward).  Re-solving that sub-problem with the
greedy pairing of the small-case constructor and wiring the plan in when it
is strictly cheaper relocates junctions and dissolves useless ones.
Sweeping all vertices until a full sweep stops paying drives the network to
a local minimum.
"""
from __future__ import annotations

from .config import REL_TOL, mass_tolerance
from .construct import _greedy_small, _wire, plan_cost
from .network import TransportNetwork

MAX_LOCAL_SWEEPS = 200


def star_cost(net: TransportNetwork, u: int, alpha: float) -> float:
    """Cost of the edges touching u from above and below."""
    total = net.edge_mass(u) ** alpha * net.edge_length(u)
    for child in net.children(u):
        total += net.edge_mass(child) ** alpha * net.edge_length(child)
    return total


def _star_pool(net: TransportNetwork, u: int) -> list[tuple[int, tuple, float]] | None:
    """Vertices the rebuilt star must reach: children, plus u itself when it
    consumes mass as a target.  None when u's star should not be touched."""
    m_u = net.edge_mass(u)
    pool = [(child, net.point(child), net.edge_mass(child))
            for child in net.children(u)]
    consumed = m_u - sum(m for _, _, m in pool)
    if net.is_terminal(u):
        if consumed <= 0.0:
            return None  # corrupt flow-through target; leave it alone
        pool.append((u, net.point(u), consumed))
    elif abs(consumed) > mass_tolerance(net.source_mass):
        return None  # helper vertex leaking flow: refuse to touch it
    return pool


def improve_vertex(net: TransportNetwork, u: int, alpha: float, eps_improve: float) -> bool:
    """Rebuild u's star and splice the result in when strictly cheaper.

    The greedy plan from parent(u) to the star pool is scored on plain
    points by plan_cost, and accepted when it undercuts star_cost(net, u) by
    more than eps_improve.  That difference is the exact change of the full
    network cost, so the old star is torn out and the plan wired in as
    scored, with no re-check.
    """
    if u == net.root or not net.children(u) or net.parent(u) is None:
        return False
    pool = _star_pool(net, u)
    if pool is None:
        return False
    parent = net.parent(u)
    o = net.point(parent)
    junctions, edges = _greedy_small(o, [(pt, m) for _, pt, m in pool], alpha)
    points = [o] + [pt for _, pt, _ in pool] + junctions
    if star_cost(net, u, alpha) - plan_cost(points, edges, alpha) <= eps_improve:
        return False

    net.remove_edge(u)
    for child in list(net.children(u)):
        net.remove_edge(child)
    if not net.is_terminal(u):
        net.remove_vertex(u)
    _wire(net, [parent] + [vid for vid, _, _ in pool], junctions, edges)
    return True


def local_sweep(net: TransportNetwork, alpha: float, eps_improve: float,
                on_sweep=None) -> float:
    """Sweep improve_vertex over the tree until a full pass stops paying,
    at most MAX_LOCAL_SWEEPS times.

    Returns the final cost.  Sweeps visit vertices in breadth-first order
    from the root; vertices spliced away mid-sweep are skipped, and so is a
    vertex whose star_stamp is unchanged since improve_vertex last rejected
    it in this call.  Such a visit would be rejected again: an unchanged
    stamp means an unchanged star, and is_terminal(u), source_mass, alpha
    and eps_improve are fixed here, so the result is that of visiting every
    vertex.  on_sweep may edit edges and may call restore_from.
    """
    rejected: dict[int, int] = {}
    cost = net.cost_m_alpha(alpha)
    for _ in range(MAX_LOCAL_SWEEPS):
        improved = False
        for u in net.bfs_order():
            if not net.has_vertex(u) or rejected.get(u) == net.star_stamp(u):
                continue
            # an accepted move restamps u, so its old entry cannot match
            if improve_vertex(net, u, alpha, eps_improve):
                improved = True
            else:
                rejected[u] = net.star_stamp(u)
        new_cost = net.cost_m_alpha(alpha)
        if on_sweep is not None:
            on_sweep(net)
        stalled = cost - new_cost <= REL_TOL * max(abs(cost), 1e-300)
        cost = new_cost
        if not improved or stalled:
            break
    return cost
