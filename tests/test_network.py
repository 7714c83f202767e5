"""Unit tests for the rooted transport-tree container and canonicalization."""
import math

import numpy as np
import pytest

from branchflow.config import mass_tolerance, merge_tolerance
from branchflow.construct import build_subdivision
from branchflow.errors import InvariantViolation
from branchflow.instances import export_network
from branchflow.measures import AtomicMeasure
from branchflow.network import BalanceReport, TransportNetwork
from branchflow.optimize_global import _check_result


def chain_net():
    """root(0,0) -> a(1,0) -> two leaves, weights 1.0 then 0.5/0.5."""
    net = TransportNetwork((0.0, 0.0), 1.0)
    a = net.add_vertex((1.0, 0.0))
    b = net.add_vertex((2.0, 0.0), terminal=True)
    c = net.add_vertex((1.0, 1.0), terminal=True)
    net.add_edge(net.root, a, 1.0)
    net.add_edge(a, b, 0.5)
    net.add_edge(a, c, 0.5)
    return net, a, b, c


def test_structure_queries():
    net, a, b, c = chain_net()
    assert net.n_vertices() == 4
    assert net.n_edges() == 3
    assert net.parent(b) == a
    assert sorted(net.children(a)) == [b, c]
    assert net.degree(a) == 3
    assert net.degree(net.root) == 1
    assert net.is_terminal(b) and not net.is_terminal(a)
    assert sorted(net.terminals()) == [b, c]
    assert net.is_descendant(c, net.root)
    assert not net.is_descendant(net.root, c)
    assert set(net.subtree(a)) == {a, b, c}
    order = net.bfs_order()
    assert order[0] == net.root
    assert order.index(a) < order.index(b)


def test_edge_accounting():
    net, a, b, c = chain_net()
    assert net.edge_length(b) == pytest.approx(1.0)
    assert net.edge_mass(b) == pytest.approx(0.5)
    assert net.edge_mass(net.root) == pytest.approx(1.0)  # total outflow
    want = 1.0 + 2.0 * math.sqrt(0.5)
    assert net.cost_m_alpha(0.5) == pytest.approx(want, abs=1e-12)
    assert net.cost_m_alpha(1.0) == pytest.approx(2.0, abs=1e-12)


def test_structural_invariants_raise():
    net, a, b, c = chain_net()
    with pytest.raises(InvariantViolation):
        net.add_edge(b, net.root, 1.0)  # root cannot receive an edge
    with pytest.raises(InvariantViolation):
        net.add_edge(net.root, b, 0.1)  # b already has a parent
    with pytest.raises(InvariantViolation):
        net.add_edge(b, a, 0.5)  # would close a cycle
    with pytest.raises(InvariantViolation):
        net.remove_vertex(a)  # not isolated
    exc = None
    try:
        net.add_edge(b, a, 0.5)
    except InvariantViolation as e:
        exc = e
    assert exc is not None and exc.network is net


def test_explicit_vertex_ids():
    net = TransportNetwork((0.0, 0.0), 1.0)
    vid = net.add_vertex((1.0, 1.0), terminal=True, vid=7)
    assert vid == 7
    with pytest.raises(ValueError):
        net.add_vertex((2.0, 2.0), vid=7)
    nxt = net.add_vertex((3.0, 3.0))
    assert nxt == 8  # id counter advanced past the explicit id


def test_check_balance_exact_and_missing():
    net, a, b, c = chain_net()
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    tg = AtomicMeasure([[2.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    rep = net.check_balance(src, tg)
    assert rep.max_abs() <= 1e-15
    assert rep.is_balanced(1e-12)

    off = AtomicMeasure([[9.0, 9.0]], [1.0])
    rep = net.check_balance(src, off)
    assert rep.missing and rep.max_abs() >= 1.0
    assert not rep.is_balanced(1e-3)


def test_validate_structure_flags_problems():
    net, a, b, c = chain_net()
    assert net.validate_structure() == []
    net.set_weight(b, 0.0)
    problems = net.validate_structure()
    assert any("nonpositive weight" in p for p in problems)

    net2 = TransportNetwork((0.0, 0.0), 1.0)
    lone = net2.add_vertex((1.0, 1.0), terminal=True)
    problems = net2.validate_structure()
    assert any("disconnected" in p for p in problems), (problems, lone)


def test_nan_weight_fails_the_tree_and_balance_checks():
    """NaN fails `w > 0` and poisons max_abs, so neither check passes it;
    finite residuals keep their plain maximum."""
    net, a, b, c = chain_net()
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    tg = AtomicMeasure([[2.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    net.set_weight(b, math.nan)
    assert any("nonpositive weight nan" in p for p in net.validate_structure())
    rep = net.check_balance(src, tg)
    assert math.isnan(rep.max_abs())
    assert not rep.is_balanced(1e-9)
    with pytest.raises(InvariantViolation, match="flow residual nan"):
        _check_result(net, src, tg)

    assert math.isnan(BalanceReport({0: 0.0}, [((1.0, 1.0), math.nan)]).max_abs())
    assert BalanceReport({0: -2.0, 1: 1.0}, [((1.0, 1.0), -3.0)]).max_abs() == 3.0
    assert BalanceReport().max_abs() == 0.0


def test_copy_and_restore_round_trip():
    net, a, b, c = chain_net()
    snap = net.copy()
    net.remove_edge(c)
    net.add_edge(net.root, c, 0.5)
    net.set_weight(a, 0.5)
    assert net.parent(c) == net.root
    net.restore_from(snap)
    assert net.parent(c) == a
    assert net.edge_mass(a) == pytest.approx(1.0)
    assert net.edges() == snap.edges()
    # the snapshot stays independent of later edits
    net.set_weight(a, 0.25)
    assert snap.copy().edge_mass(a) == pytest.approx(1.0)


def test_edits_restamp_exactly_the_touched_stars():
    net, a, b, c = chain_net()
    d = net.add_vertex((3.0, 0.0), terminal=True)
    ids = net.vertices()

    def stamps():
        return {v: net.star_stamp(v) for v in ids}

    seen = set(stamps().values())
    for edit, ends in ((lambda: net.set_weight(b, 0.25), {a, b}),
                       (lambda: net.remove_edge(c), {a, c}),
                       (lambda: net.add_edge(b, d, 0.25), {b, d}),
                       (lambda: net.add_edge(net.root, c, 0.5), {net.root, c})):
        before = stamps()
        edit()
        after = stamps()
        assert {v for v in ids if after[v] != before[v]} == ends
        seen |= set(after.values())

    snap = net.copy()
    assert {v: snap.star_stamp(v) for v in ids} == stamps()
    net.remove_edge(d)
    seen |= set(stamps().values())
    net.remove_vertex(d)
    with pytest.raises(KeyError):
        net.star_stamp(d)
    net.restore_from(snap)
    assert set(net.vertices()) == set(ids)
    assert not seen & set(stamps().values())


def test_sibling_merge_restamps_the_kept_vertex():
    # a helper leaf coincides with its sibling target: the target keeps both
    # weights, and that weight change must show in its stamp
    net = TransportNetwork((0.0, 0.0), 1.0)
    helper = net.add_vertex((1.0, 0.0))
    target = net.add_vertex((1.0, 0.0), terminal=True)
    net.add_edge(net.root, helper, 0.25)
    net.add_edge(net.root, target, 0.75)
    before = net.star_stamp(target)
    net.canonicalize()
    assert not net.has_vertex(helper)
    assert net.edge_mass(target) == 1.0
    assert net.star_stamp(target) != before


def test_canonicalize_prunes_and_merges():
    net, a, b, c = chain_net()
    d = net.add_vertex((1.0, 0.0))  # coincides with helper a
    net.add_edge(a, d, 0.0)  # zero-weight edge: pruned, then d dropped
    net.canonicalize()
    assert not net.has_vertex(d)
    assert net.n_edges() == 3


def test_canonicalize_collapses_passthrough():
    net = TransportNetwork((0.0, 0.0), 1.0)
    mid = net.add_vertex((1.0, 0.0))
    leaf = net.add_vertex((2.0, 0.0), terminal=True)
    net.add_edge(net.root, mid, 1.0)
    net.add_edge(mid, leaf, 1.0)
    net.canonicalize(collapse_passthrough=True)
    assert not net.has_vertex(mid)
    assert net.parent(leaf) == net.root
    assert net.cost_m_alpha(0.5) == pytest.approx(2.0)


def test_canonicalize_keeps_flow_through_targets():
    net = TransportNetwork((0.0, 0.0), 1.0)
    t1 = net.add_vertex((1.0, 0.0), terminal=True)
    t2 = net.add_vertex((2.0, 0.0), terminal=True)
    net.add_edge(net.root, t1, 1.0)
    net.add_edge(t1, t2, 0.5)
    net.canonicalize(collapse_passthrough=True)
    assert net.has_vertex(t1)  # consumes mass: must survive
    assert net.n_edges() == 2


def test_canonicalize_contracts_folded_path():
    # flow runs out to x and folds straight back: root -> x -> d with d at
    # the root's position, plus a leaf hanging under x
    net = TransportNetwork((0.0, 0.0), 1.0)
    x = net.add_vertex((1.0, 0.0))
    d = net.add_vertex((0.0, 0.0), terminal=True)
    leaf = net.add_vertex((2.0, 0.0), terminal=True)
    net.add_edge(net.root, x, 1.0)
    net.add_edge(x, d, 0.4)
    net.add_edge(x, leaf, 0.6)
    net.canonicalize(collapse_passthrough=True)
    # the folded 0.4 is peeled off root->x, d merges into the root, and the
    # drained x splices away: only root->leaf at weight 0.6 remains
    assert not net.has_vertex(x) and not net.has_vertex(d)
    assert net.parent(leaf) == net.root
    assert net.edge_mass(leaf) == pytest.approx(0.6)
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    tg = AtomicMeasure([[0.0, 0.0], [2.0, 0.0]], [0.4, 0.6])
    assert net.check_balance(src, tg).max_abs() <= 1e-12
    assert net.validate_structure() == []


def test_canonicalize_scans_pairs_once(monkeypatch):
    # a coincident parent-child chain of three (a, b, c), a coincident
    # sibling pair (helper s and target t2 under c) and a folded path
    # root -> x -> dd with dd at the root's position
    net = TransportNetwork((0.0, 0.0), 1.0)
    add = net.add_vertex
    a, b, c = add((1.0, 0.0)), add((1.0, 0.0)), add((1.0, 0.0))
    t1, t2, t3 = add((2.0, 0.0), True), add((2.0, 1.0), True), add((3.0, 1.0), True)
    s, x, dd, t4 = add((2.0, 1.0)), add((0.0, -1.0)), add((0.0, 0.0)), add((-1.0, 0.0), True)
    for parent, child, w in ((net.root, a, 0.75), (a, b, 0.75), (b, c, 0.75),
                             (c, t1, 0.25), (c, t2, 0.25), (c, s, 0.25), (s, t3, 0.25),
                             (net.root, x, 0.25), (x, dd, 0.25), (dd, t4, 0.25)):
        net.add_edge(parent, child, w)
    calls = []
    real = TransportNetwork._coincident_pairs

    def counted(self, eps):
        calls.append(eps)
        return real(self, eps)

    monkeypatch.setattr(TransportNetwork, "_coincident_pairs", counted)
    net.canonicalize()
    assert len(calls) == 1
    assert net.edges() == [(net.root, a, 0.75), (a, t1, 0.25), (a, t2, 0.5),
                           (t2, t3, 0.25), (net.root, t4, 0.25)]
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    tg = AtomicMeasure([[2.0, 0.0], [2.0, 1.0], [3.0, 1.0], [-1.0, 0.0]],
                       [0.25, 0.25, 0.25, 0.25])
    assert net.check_balance(src, tg).max_abs() <= 1e-12
    assert net.validate_structure() == []


def ref_canonicalize(net):
    """canonicalize (no pass-through splicing) as it was while every merge
    rescanned all vertex pairs, with its merge rules for forests too."""
    eps_w = mass_tolerance(net.source_mass)
    eps_merge = merge_tolerance(net.bbox_diameter())
    changed = True
    while changed:
        changed = False
        for child in sorted(net._parent):
            if net._weight[child] <= eps_w:
                net.remove_edge(child)
                changed = True
        if eps_merge > 0:
            while True:
                for u, v in net._coincident_pairs(eps_merge):
                    if not (net.has_vertex(u) and net.has_vertex(v)):
                        continue
                    action = ref_classify(net, u, v)
                    if action == "detour":
                        if net.is_descendant(v, u):
                            net._contract_detour(u, v)
                        else:
                            net._contract_detour(v, u)
                    elif action == "merge":
                        ref_merge_pair(net, u, v)
                    else:
                        continue
                    changed = True
                    break  # structure changed: rescan
                else:
                    break
        for vid in net.vertices():
            if vid != net.root and not net.is_terminal(vid) \
                    and net.parent(vid) is None and not net.children(vid):
                net.remove_vertex(vid)
                changed = True


def ref_classify(net, u, v):
    if net.is_terminal(u) and net.is_terminal(v):
        return "skip"
    pu, pv = net.parent(u), net.parent(v)
    if pv == u or pu == v or (pu is not None and pu == pv):
        return "merge"
    if net.is_descendant(v, u) or net.is_descendant(u, v):
        return "detour"
    if pu is None or pv is None:
        return "merge"
    return "skip"


def ref_merge_pair(net, u, v):
    def rank(x):
        return 2 if x == net.root else 1 if net.is_terminal(x) else 0

    keep, gone = (u, v) if (rank(u), -u) >= (rank(v), -v) else (v, u)
    p_keep, p_gone = net.parent(keep), net.parent(gone)
    if p_gone == keep:
        net.remove_edge(gone)
    elif p_keep == gone:
        net.remove_edge(keep)
        if p_gone is not None:
            w = net.edge_mass(gone)
            net.remove_edge(gone)
            net.add_edge(p_gone, keep, w)
    elif p_gone is not None and p_gone == p_keep:
        net.set_weight(keep, net.edge_mass(keep) + net.edge_mass(gone))
        net.remove_edge(gone)
    elif p_keep is None and keep != net.root and p_gone is not None:
        w = net.edge_mass(gone)
        net.remove_edge(gone)
        net.add_edge(p_gone, keep, w)
    for child in net.children(gone):
        w = net.edge_mass(child)
        net.remove_edge(child)
        net.add_edge(keep, child, w)
    net.remove_vertex(gone)


def plant_coincident(net, rng, count):
    """Insert coincident parent-child chains, sibling pairs and folded paths
    into a balanced tree, keeping it balanced."""
    for _ in range(count):
        kind = int(rng.integers(3))
        if kind == 0:  # c gets two coincident helpers above it
            c = int(rng.choice([v for v in net.vertices() if v != net.root]))
            p, w = net.parent(c), net.edge_mass(c)
            net.remove_edge(c)
            h1, h2 = net.add_vertex(net.point(c)), net.add_vertex(net.point(c))
            net.add_edge(p, h1, w)
            net.add_edge(h1, h2, w)
            net.add_edge(h2, c, w)
        elif kind == 1:  # a coincident sibling of c takes over one child
            inner = [v for v in net.vertices()
                     if v != net.root and len(net.children(v)) > 1]
            c = int(rng.choice(inner))
            gc = net.children(c)[0]
            wg = net.edge_mass(gc)
            net.set_weight(c, net.edge_mass(c) - wg)
            net.remove_edge(gc)
            s = net.add_vertex(net.point(c))
            net.add_edge(net.parent(c), s, wg)
            net.add_edge(s, gc, wg)
        else:  # the flow to c runs out to x and back to a's position
            a = int(rng.choice([v for v in net.vertices() if net.children(v)]))
            c = net.children(a)[0]
            w = net.edge_mass(c)
            net.remove_edge(c)
            off = rng.uniform(-0.1, 0.1, size=net.dimension)
            x = net.add_vertex(np.add(net.point(a), off))
            dd = net.add_vertex(net.point(a))
            net.add_edge(a, x, w)
            net.add_edge(x, dd, w)
            net.add_edge(dd, c, w)


@pytest.mark.parametrize("seed", range(8))
def test_canonicalize_matches_the_rescanning_loop(seed):
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    n = int(rng.integers(10, 40))
    masses = rng.uniform(0.1, 1.0, size=n)
    targets = AtomicMeasure(rng.uniform(size=(n, d)), masses / masses.sum())
    net = build_subdivision([0.5] * d, 1.0, targets, 0.5)
    plant_coincident(net, rng, 8)
    ref = net.copy()
    planted = net.n_vertices()
    net.canonicalize()
    ref_canonicalize(ref)
    assert export_network(net, 0.5) == export_network(ref, 0.5)
    assert net.n_vertices() < planted
    assert net.validate_structure() == []


def test_canonicalize_is_idempotent():
    net, a, b, c = chain_net()
    net.canonicalize(collapse_passthrough=True)
    before = net.edges()
    net.canonicalize(collapse_passthrough=True)
    assert net.edges() == before


def test_points_array_and_bbox():
    net, a, b, c = chain_net()
    assert net.bbox_diameter() == pytest.approx(math.sqrt(5.0))


def ref_coincident_pairs(net, eps):
    """Every vertex pair (u, v), u < v, closer than eps, in ascending (u, v)."""
    ids = net.vertices()
    return [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
            if math.dist(net.point(u), net.point(v)) < eps]


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("scale", (1e-300, 1e-8, 1.0, 1e8, 1e300))
def test_coincident_sweep_matches_all_pairs(d, scale):
    rng = np.random.default_rng([d, round(math.log10(scale)) + 300])
    # a power of two, so that multiples of it by small integers are exact
    eps = 2.0 ** math.frexp(scale * 1e-3)[1]
    base = [list(row) for row in rng.uniform(0.0, scale, size=(40, d))]
    for row in base[:10]:  # first coordinates on the grid eps * k
        row[0] = round(row[0] / eps) * eps
    planted = []
    for row in base[:10]:
        ahead = [row[0] + eps, *row[1:]]  # first coordinates exactly eps apart
        planted += [row[:], ahead, [row[0] + eps, *(x + 0.5 * eps for x in row[1:])]]
    for row in base[10:25]:
        u = rng.normal(size=d)
        r = rng.uniform(0.05, 0.99) * eps
        planted.append([x + r * ux / np.linalg.norm(u) for x, ux in zip(row, u)])
        planted.append([row[0] + 0.75 * eps, *(x + 0.125 * eps for x in row[1:])])
        # a tie in the first coordinate, near or far in the others
        planted.append([row[0], *(x + rng.uniform(-2.0, 2.0) * eps for x in row[1:])])
    points = base + planted
    rng.shuffle(points)
    net = TransportNetwork(points[0], 1.0)
    for pt in points[1:]:
        net.add_vertex(pt)
    want = ref_coincident_pairs(net, eps)
    assert net._coincident_pairs(eps) == want
    # the planted cases are there: exact copies, pairs whose first
    # coordinates differ by more than eps / 2, and pairs exactly eps apart
    gaps = [net.point(v)[0] - net.point(u)[0] for u, v in want]
    assert any(g == 0.0 for g in gaps) and any(abs(g) > eps / 2 for g in gaps)
    ids = net.vertices()
    assert sum(math.dist(net.point(u), net.point(v)) == eps
               for i, u in enumerate(ids) for v in ids[i + 1:]) >= 10
