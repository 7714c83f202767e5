"""Local improvement: rebuild the one-vertex star around each vertex.

For a non-root vertex u with children, the edges touching u form a small
transport problem of their own: mass edge_mass(u) enters from parent(u) and
must reach the children (plus whatever u itself consumes, when u is a
target that passes flow onward).  Re-solving that sub-problem with the
greedy pairing of the small-case constructor and wiring the plan in when it
is strictly cheaper relocates junctions and dissolves useless ones.
Sweeping all vertices until a full sweep stops paying drives the network to
a local minimum.

A rebuild is one star read (TransportNetwork.star), one priced greedy plan
(_greedy_small) and, when the plan is cheaper, one splice (replace_star).
The pool has two entries in 95% of rebuilds at n = 30, and _greedy_small
plans such a pool from one junction solve (see construct).
"""
from __future__ import annotations

from .config import stalled
from .construct import _greedy_small
from .network import TransportNetwork

MAX_LOCAL_SWEEPS = 200


def improve_vertex(net: TransportNetwork, u: int, alpha: float, eps_improve: float) -> bool:
    """Rebuild u's star and splice the result in when strictly cheaper.

    net.star reads the star once and yields both the pool and the old
    star's cost, or None for a star that is not rebuilt.  The greedy plan
    from parent(u) to the pool, one junction solve for the usual pool of
    two, comes priced as plan_cost prices it, and is accepted when it
    undercuts the old cost by more than eps_improve.  That difference is the
    exact change of the full network cost, so net.replace_star tears the old
    star out and wires the plan in as priced, with no re-check.
    """
    star = net.star(u, alpha)
    if star is None:
        return False
    parent, vids, pool, old_cost = star
    junctions, edges, cost = _greedy_small(net.point(parent), pool, alpha)
    if old_cost - cost <= eps_improve:
        return False
    net.replace_star(u, [parent] + vids, junctions, edges)
    return True


def local_sweep(net: TransportNetwork, alpha: float, eps_improve: float,
                on_sweep=None) -> float:
    """Sweep improve_vertex over the tree until a sweep stalls, at most
    MAX_LOCAL_SWEEPS times; a sweep that accepts no move edits nothing, so
    its cost is unchanged and it stalls.

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
        for u in net.bfs_order():
            if not net.has_vertex(u) or rejected.get(u) == net.star_stamp(u):
                continue
            # an accepted move restamps u, so its old entry cannot match
            if not improve_vertex(net, u, alpha, eps_improve):
                rejected[u] = net.star_stamp(u)
        new_cost = net.cost_m_alpha(alpha)
        if on_sweep is not None:
            on_sweep(net)
        if stalled(cost, new_cost):
            return new_cost
        cost = new_cost
    return cost
