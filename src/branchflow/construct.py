"""Initial network construction.

build_small handles a handful of targets by greedy pairing: for every pair of
(possibly already merged) targets it scores the savings of serving the pair
through its optimal branch point instead of two direct edges from the source,
merges the best pair into a pseudo-target at that branch point, and repeats
until no pair saves anything.  Whatever remains connects straight to the
source.  The pairing (_greedy_small) works on plain points and returns a
plan of junction points and weighted edges; plan_cost scores a plan, and
_wire is the one place a plan becomes vertices and edges of a network: here,
in the local star rebuilds of optimize_local and in the exhaustive oracle.
Most plans are for a pool of two: in 36 solves at n = 30 (18 planar, 18
3-d), 31,843 of the 33,683 star rebuilds, which made 22,414 of the 23,069
accepted moves.  _greedy_small reads that plan straight off the pair's one
solve_two_targets result; larger pools go through the general greedy,
_greedy_pairs, which gives the same plan for a pool of two.

build_subdivision scales to many targets by recursive spatial subdivision:
the bounding cube splits into lam**d equal cells (lam = 3 in the plane, 2
otherwise), each nonempty cell is summarized by a pseudo-target at its center
carrying the cell's mass, the source feeds the cell centers by greedy
pairing, and each cell recurses from its own center.  _subcells finds an
atom's cell by one binary search per axis among the cut points.  Every
vertex ends up with at most lam**d + 1 neighbors.

build_star is the trivial baseline: one direct edge per target.
"""
from __future__ import annotations

import math
from bisect import bisect_right

from .bifurcation import BifurcationInput, BranchCase, solve_two_targets
from .errors import DegenerateInputError
from .measures import AtomicMeasure, bounding_cube, check_source_targets
from .network import TransportNetwork

MAX_DEPTH = 32


def _greedy_small(o: tuple, pool: list[tuple[tuple, float]], alpha: float):
    """Greedy bifurcation plan from source point o to the (point, mass) pool,
    all points tuples of floats.

    Returns (junctions, edges).  Node 0 is o, nodes 1..len(pool) are the pool
    entries in order, and the junction points follow in creation order;
    edges are (parent, child, weight) node triples in the order the greedy
    adds them.  _wire puts a plan into a network.

    A pool of two is read straight off its one solve_two_targets result,
    as the plan _greedy_pairs would build from it; larger pools go through
    _greedy_pairs."""
    if len(pool) != 2:
        return _greedy_pairs(o, pool, alpha)
    (p, m_p), (q, m_q) = pool
    try:
        res = solve_two_targets(BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=alpha))
    except DegenerateInputError:
        res = None
    if res is None or res.v_cost - res.cost <= 0.0:
        return [], [(0, 1, m_p), (0, 2, m_q)]
    if res.case is BranchCase.COLLAPSE_TO_P:
        return [], [(1, 2, m_q), (0, 1, m_p + m_q)]
    if res.case is BranchCase.COLLAPSE_TO_Q:
        return [], [(2, 1, m_p), (0, 2, m_p + m_q)]
    return [res.b_star], [(3, 1, m_p), (3, 2, m_q), (0, 3, m_p + m_q)]


def _greedy_pairs(o: tuple, pool: list[tuple[tuple, float]], alpha: float):
    """The general greedy behind _greedy_small, for a pool of any size: score
    every pair, merge the best-saving pair into a pseudo-target at its
    branch point, score the newcomer against the rest, and repeat until no
    pair saves anything."""
    n = len(pool)
    entries = [(i + 1, pt, m) for i, (pt, m) in enumerate(pool)]
    junctions: list[tuple] = []
    edges: list[tuple[int, int, float]] = []
    gains: dict[tuple[int, int], tuple[float, object]] = {}

    def score(i: int, j: int) -> None:
        """Savings of serving entries i and j through their optimal branch
        point instead of two direct edges; coincident entries never merge."""
        (_, p, m_p), (_, q, m_q) = entries[i], entries[j]
        inp = BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=alpha)
        try:
            res = solve_two_targets(inp)
        except DegenerateInputError:
            return
        gains[(i, j)] = (res.v_cost - res.cost, res)

    for i in range(n):
        for j in range(i + 1, n):
            score(i, j)

    alive = list(range(n))
    while len(alive) > 1:
        best = None
        for ii, i in enumerate(alive):
            for j in alive[ii + 1:]:
                gain = gains.get((i, j))
                if gain is not None and (best is None or gain[0] > best[0]):
                    best = (*gain, i, j)
        if best is None or best[0] <= 0.0:
            break  # no pair saves anything: star out the rest
        _, res, i, j = best
        (na, pa, ma), (nb, pb, mb) = entries[i], entries[j]
        if res.case is BranchCase.COLLAPSE_TO_P:
            hub, hub_point = na, pa
            edges.append((na, nb, mb))
        elif res.case is BranchCase.COLLAPSE_TO_Q:
            hub, hub_point = nb, pb
            edges.append((nb, na, ma))
        else:  # interior branch point (a V shape has zero gain, never picked)
            hub, hub_point = n + 1 + len(junctions), res.b_star
            junctions.append(hub_point)
            edges += [(hub, na, ma), (hub, nb, mb)]
        k = len(entries)
        entries.append((hub, hub_point, ma + mb))
        alive.remove(i)
        alive.remove(j)
        for other in alive:
            score(other, k)  # entry indices only grow, so other < k
        alive.append(k)

    edges.extend((0, entries[i][0], entries[i][2]) for i in alive)
    return junctions, edges


def plan_cost(points, edges, alpha: float) -> float:
    """Cost of a plan: w**alpha * length summed over its edges in plan
    order, points indexed by node as in the plan."""
    total = 0.0
    for p, c, w in edges:
        total += w ** alpha * math.dist(points[p], points[c])
    return total


def _wire(net: TransportNetwork, ids: list[int], junctions, edges) -> None:
    """Put a _greedy_small plan into net: ids maps nodes 0..len(pool) to
    vertex ids; junction vertices are created in plan order, then the edges
    are added in plan order."""
    ids = ids + [net.add_vertex(pt) for pt in junctions]
    for p, c, w in edges:
        net.add_edge(ids[p], ids[c], w)


def build_small(source_point, source_mass: float, targets: AtomicMeasure,
                alpha: float) -> TransportNetwork:
    """Greedy bifurcation network from one source to a small target set."""
    check_source_targets(source_point, source_mass, targets, alpha)
    net = TransportNetwork(source_point, source_mass)
    ids = [net.root] + [net.add_vertex(pt, terminal=True) for pt in targets.points]
    pool = [(net.point(vid), m) for vid, (_, m) in zip(ids[1:], targets.atoms())]
    _wire(net, ids, *_greedy_small(net.point(net.root), pool, alpha))
    net.canonicalize()
    return net


def build_star(source_point, source_mass: float, targets: AtomicMeasure,
               alpha: float) -> TransportNetwork:
    """One direct edge per target; the baseline everything must beat."""
    check_source_targets(source_point, source_mass, targets, alpha)
    net = TransportNetwork(source_point, source_mass)
    for pt, mass in targets.atoms():
        vid = net.add_vertex(pt, terminal=True)
        net.add_edge(net.root, vid, mass)
    net.canonicalize()
    return net


def _subcells(box: tuple, lam: int, points, atom_idx: list[int]):
    """Split box = (lo, hi) into lam**d cells of equal side and group the
    atoms i in atom_idx by the cell holding points[i].

    Per axis the cells are half-open [cut_j, cut_j+1), and the last one
    also holds the upper face hi, so every atom of the box lands in exactly
    one cell.  Returns ((cell_lo, cell_hi), members) per nonempty cell in
    ascending cell index (last axis fastest), members in atom_idx order."""
    cuts = []
    for a, b in zip(*box):
        h = (b - a) / lam
        cuts.append([a + j * h for j in range(lam)] + [b])
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in atom_idx:
        key = tuple(bisect_right(c, x, 1, lam) - 1 for c, x in zip(cuts, points[i]))
        groups.setdefault(key, []).append(i)
    return [((tuple(c[k] for c, k in zip(cuts, key)),
              tuple(c[k + 1] for c, k in zip(cuts, key))), groups[key])
            for key in sorted(groups)]


def build_subdivision(source_point, source_mass: float, targets: AtomicMeasure,
                      alpha: float) -> TransportNetwork:
    """Recursive cell summary construction; scales past the greedy cutoff."""
    check_source_targets(source_point, source_mass, targets, alpha)
    d = targets.dimension
    lam = 3 if d == 2 else 2
    capacity = lam ** d  # the small-case cutoff and the cell fan-out

    net = TransportNetwork(source_point, source_mass)
    leaf_ids = [net.add_vertex(pt, terminal=True) for pt in targets.points]
    leaf_points = [net.point(vid) for vid in leaf_ids]

    def recurse(src_vid: int, atom_idx: list[int], box: tuple, depth: int) -> None:
        if not atom_idx:
            return
        o = net.point(src_vid)
        if len(atom_idx) <= capacity:
            pool = [(leaf_points[i], targets.masses[i]) for i in atom_idx]
            _wire(net, [src_vid] + [leaf_ids[i] for i in atom_idx],
                  *_greedy_small(o, pool, alpha))
            return
        if depth >= MAX_DEPTH:  # refuse to recurse further, star the cell out
            for i in atom_idx:
                net.add_edge(src_vid, leaf_ids[i], targets.masses[i])
            return
        groups = _subcells(box, lam, leaf_points, atom_idx)
        centers = [net.add_vertex([(a + b) / 2.0 for a, b in zip(*sub)]) for sub, _ in groups]
        pool = [(net.point(cvid), sum(targets.masses[i] for i in members))
                for cvid, (_, members) in zip(centers, groups)]
        _wire(net, [src_vid] + centers, *_greedy_small(o, pool, alpha))
        for (sub, members), cvid in zip(groups, centers):
            recurse(cvid, members, sub, depth + 1)

    box = bounding_cube([net.point(net.root)] + leaf_points)
    recurse(net.root, list(range(targets.n)), box, 0)
    net.canonicalize()
    return net
