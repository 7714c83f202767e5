"""Initial network construction.

build_small handles a handful of targets by greedy pairing: for every pair of
(possibly already merged) targets it scores the savings of serving the pair
through its optimal branch point instead of two direct edges from the source,
merges the best pair into a pseudo-target at that branch point, and repeats
until no pair saves anything.  Whatever remains connects straight to the
source.

build_subdivision scales to many targets by recursive spatial subdivision:
the bounding cube splits into lam**d equal cells (lam = 3 in the plane, 2
otherwise), each nonempty cell is summarized by a pseudo-target at its center
carrying the cell's mass, the source feeds the cell centers via build_small,
and each cell recurses from its own center.  Every vertex ends up with at
most lam**d + 1 neighbors.

build_star is the trivial baseline: one direct edge per target.
"""
from __future__ import annotations

import numpy as np

from .bifurcation import BifurcationInput, BranchCase, objective_f, solve_two_targets
from .errors import DegenerateInputError, InputError
from .measures import AtomicMeasure, Cube, bounding_cube, check_source_targets
from .network import TransportNetwork

MAX_DEPTH = 32


class _Active:
    """A live entry in the greedy merge pool: a target leaf, or a junction
    standing in for an already merged group."""

    __slots__ = ("vid", "point", "mass")

    def __init__(self, vid: int, point: np.ndarray, mass: float):
        self.vid = vid
        self.point = point
        self.mass = mass


def _pair_gain(o: np.ndarray, a: _Active, b: _Active, alpha: float):
    """Savings and solution for merging two pool entries, scored from the
    real source.  Coincident entries never merge."""
    inp = BifurcationInput(o=o, p=a.point, q=b.point, m_p=a.mass, m_q=b.mass, alpha=alpha)
    try:
        res = solve_two_targets(inp)
    except DegenerateInputError:
        return -np.inf, None
    return objective_f(o, inp) - res.cost, res


def _greedy_small(net: TransportNetwork, source_vid: int, source_mass: float,
                  pool: list[_Active], alpha: float) -> list[tuple[int, int, float]]:
    """Wire the pool under source_vid with greedily chosen bifurcations.

    Returns the (parent, child, weight) edges in the order they were added."""
    o = net.point(source_vid)
    added: list[tuple[int, int, float]] = []

    def link(parent: int, child: int, weight: float) -> None:
        net.add_edge(parent, child, weight)
        added.append((parent, child, weight))

    n = len(pool)
    if n == 1:
        link(source_vid, pool[0].vid, pool[0].mass)
        return added

    gains: dict[tuple[int, int], tuple[float, object]] = {}

    def score(i: int, j: int) -> None:
        gains[(i, j)] = _pair_gain(o, pool[i], pool[j], alpha)

    for i in range(n):
        for j in range(i + 1, n):
            score(i, j)

    alive = list(range(n))
    while len(alive) > 1:
        best = None
        for ii, i in enumerate(alive):
            for j in alive[ii + 1:]:
                g, res = gains[(i, j)]
                if res is None:
                    continue
                if best is None or g > best[0]:
                    best = (g, i, j, res)
        if best is None or best[0] <= 0.0:
            break  # no pair saves anything: star out the rest
        _, i, j, res = best
        a, b = pool[i], pool[j]
        if res.case is BranchCase.COLLAPSE_TO_P:
            hub = a
            link(hub.vid, b.vid, b.mass)
        elif res.case is BranchCase.COLLAPSE_TO_Q:
            hub = b
            link(hub.vid, a.vid, a.mass)
        else:  # interior branch point (a V shape has zero gain, never picked)
            vid = net.add_vertex(res.b_star)
            link(vid, a.vid, a.mass)
            link(vid, b.vid, b.mass)
            hub = _Active(vid, np.asarray(res.b_star, dtype=float), 0.0)
        merged = _Active(hub.vid, hub.point, a.mass + b.mass)
        k = len(pool)
        pool.append(merged)
        alive.remove(i)
        alive.remove(j)
        for other in alive:
            score(other, k)  # pool indices only grow, so other < k
        alive.append(k)

    for i in alive:
        link(source_vid, pool[i].vid, pool[i].mass)
    return added


def build_small(source_point, source_mass: float, targets: AtomicMeasure,
                alpha: float) -> TransportNetwork:
    """Greedy bifurcation network from one source to a small target set."""
    check_source_targets(source_point, source_mass, targets)
    net = TransportNetwork(source_point, source_mass)
    pool = [
        _Active(net.add_vertex(targets.points[i], terminal=True),
                targets.points[i], float(targets.masses[i]))
        for i in range(targets.n)
    ]
    _greedy_small(net, net.root, source_mass, pool, alpha)
    net.canonicalize()
    return net


def build_star(source_point, source_mass: float, targets: AtomicMeasure,
               alpha: float) -> TransportNetwork:
    """One direct edge per target; the baseline everything must beat."""
    check_source_targets(source_point, source_mass, targets)
    net = TransportNetwork(source_point, source_mass)
    for pt, mass in targets.atoms():
        vid = net.add_vertex(pt, terminal=True)
        net.add_edge(net.root, vid, mass)
    net.canonicalize()
    return net


def build_subdivision(source_point, source_mass: float, targets: AtomicMeasure,
                      alpha: float) -> TransportNetwork:
    """Recursive cell summary construction; scales past the greedy cutoff."""
    check_source_targets(source_point, source_mass, targets)
    source_point = np.asarray(source_point, dtype=float)
    d = targets.dimension
    if d < 2:
        raise InputError("instances must live in dimension >= 2")
    lam = 3 if d == 2 else 2
    capacity = lam ** d  # the small-case cutoff and the cell fan-out

    net = TransportNetwork(source_point, source_mass)
    leaf_ids = [net.add_vertex(targets.points[i], terminal=True) for i in range(targets.n)]

    all_points = np.vstack([source_point.reshape(1, -1), targets.points])
    cube = bounding_cube(all_points)

    def recurse(src_vid: int, src_mass: float, atom_idx: list[int], cell: Cube, depth: int) -> None:
        n = len(atom_idx)
        if n == 0:
            return
        if n <= capacity or depth >= MAX_DEPTH:
            pool = [_Active(leaf_ids[i], targets.points[i], float(targets.masses[i]))
                    for i in atom_idx]
            if n <= capacity:
                _greedy_small(net, src_vid, src_mass, pool, alpha)
            else:  # depth cap: refuse to recurse further, star the cell out
                for entry in pool:
                    net.add_edge(src_vid, entry.vid, entry.mass)
            return
        groups: list[tuple[Cube, list[int]]] = []
        for sub in cell.split(lam):
            members = [i for i in atom_idx if sub.contains(targets.points[i])]
            if members:
                groups.append((sub, members))
        centers = []
        for sub, members in groups:
            mass = float(sum(targets.masses[i] for i in members))
            cvid = net.add_vertex(sub.center)
            centers.append(_Active(cvid, sub.center, mass))
        _greedy_small(net, src_vid, src_mass, centers, alpha)
        for (sub, members), entry in zip(groups, centers):
            recurse(entry.vid, entry.mass, members, sub, depth + 1)

    recurse(net.root, source_mass, list(range(targets.n)), cube, 0)
    net.canonicalize()
    return net
