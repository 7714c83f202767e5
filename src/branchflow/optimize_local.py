"""Local improvement: rebuild the one-vertex star around each vertex.

For a non-root vertex u with children, the edges touching u form a small
transport problem of their own: mass edge_mass(u) enters from parent(u) and
must reach the children (plus whatever u itself consumes, when u is a
target that passes flow onward).  Re-solving that sub-problem with the
greedy pairing of the small-case constructor and wiring the plan in when it
is strictly cheaper relocates junctions and dissolves useless ones.
Sweeping all vertices until a full sweep stops paying drives the network to
a local minimum.

A rebuild walks the star once (_star_scan), reading each child's point and
mass a single time to build both the pool and the old star's cost.  The
pool has two entries in 95% of rebuilds at n = 30, and _greedy_small plans
such a pool from one junction solve (see construct).
"""
from __future__ import annotations

import math

from .config import mass_tolerance, stalled
from .construct import _greedy_small, _wire, plan_cost
from .network import TransportNetwork

MAX_LOCAL_SWEEPS = 200


def _star_scan(net: TransportNetwork, u: int, alpha: float):
    """One pass over u's star: (vids, pool, cost), or None when u's star
    should not be touched.

    pool holds the (point, mass) entries the rebuilt star must reach, in the
    order of vids: the children, plus u itself when it consumes mass as a
    target.  cost is that of the edges touching u, the parent edge first and
    then the child edges in child order."""
    m_u = net.edge_mass(u)
    p_u = net.point(u)
    cost = m_u ** alpha * math.dist(net.point(net.parent(u)), p_u)
    vids = net.children(u)
    pool = []
    for child in vids:
        pt, m = net.point(child), net.edge_mass(child)
        cost += m ** alpha * math.dist(p_u, pt)
        pool.append((pt, m))
    consumed = m_u - sum(m for _, m in pool)
    if net.is_terminal(u):
        if consumed <= 0.0:
            return None  # corrupt flow-through target; leave it alone
        vids.append(u)
        pool.append((p_u, consumed))
    elif abs(consumed) > mass_tolerance(net.source_mass):
        return None  # helper vertex leaking flow: refuse to touch it
    return vids, pool, cost


def improve_vertex(net: TransportNetwork, u: int, alpha: float, eps_improve: float) -> bool:
    """Rebuild u's star and splice the result in when strictly cheaper.

    One pass over the star (_star_scan) reads each child's point and mass
    once, and yields both the pool and the old star's cost.  The greedy plan
    from parent(u) to the pool, one junction solve for the usual pool of
    two, is scored on plain points by plan_cost, and accepted when it
    undercuts the old cost by more than eps_improve.  That difference is the
    exact change of the full network cost, so the old star is torn out and
    the plan wired in as scored, with no re-check.
    """
    parent = net.parent(u)
    if parent is None or u == net.root or not net.children(u):
        return False
    scan = _star_scan(net, u, alpha)
    if scan is None:
        return False
    vids, pool, old_cost = scan
    o = net.point(parent)
    junctions, edges = _greedy_small(o, pool, alpha)
    points = [o] + [pt for pt, _ in pool] + junctions
    if old_cost - plan_cost(points, edges, alpha) <= eps_improve:
        return False

    net.remove_edge(u)
    for child in list(net.children(u)):
        net.remove_edge(child)
    if not net.is_terminal(u):
        net.remove_vertex(u)
    _wire(net, [parent] + vids, junctions, edges)
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
        if not improved or stalled(cost, new_cost):
            return new_cost
        cost = new_cost
    return cost
