"""Unit tests for the rooted transport-tree container and canonicalization."""
import math

import numpy as np
import pytest

from branchflow.errors import InvariantViolation
from branchflow.measures import AtomicMeasure
from branchflow.network import TransportNetwork


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


def test_canonicalize_is_idempotent():
    net, a, b, c = chain_net()
    net.canonicalize(collapse_passthrough=True)
    before = net.edges()
    net.canonicalize(collapse_passthrough=True)
    assert net.edges() == before


def test_points_array_and_bbox():
    net, a, b, c = chain_net()
    ids, pts = net.points_array()
    assert pts.shape == (4, 2)
    assert net.bbox_diameter() == pytest.approx(math.sqrt(5.0))
