"""Unit tests for vertex-star rebuilding and local sweeps."""
import math

import numpy as np
import pytest

from branchflow import optimize_local
from branchflow.config import cost_tolerance, stalled
from branchflow.construct import _greedy_small, _wire, build_subdivision
from branchflow.instances import export_network
from branchflow.measures import AtomicMeasure
from branchflow.network import TransportNetwork
from branchflow.optimize_global import rewire
from branchflow.optimize_local import _star_scan, improve_vertex, local_sweep


def displaced_junction_net(j_point=(1.7, 0.8)):
    """Source feeding symmetric leaves (2,1)/(2,-1) through a junction."""
    net = TransportNetwork((0.0, 0.0), 1.0)
    j = net.add_vertex(j_point)
    p = net.add_vertex((2.0, 1.0), terminal=True)
    q = net.add_vertex((2.0, -1.0), terminal=True)
    net.add_edge(net.root, j, 1.0)
    net.add_edge(j, p, 0.5)
    net.add_edge(j, q, 0.5)
    return net, j


def star_cost(net, u, alpha):
    """Reference for the cost _star_scan returns: the edges touching u, the
    parent edge first, summed by a separate walk over the star."""
    total = net.edge_mass(u) ** alpha * net.edge_length(u)
    for child in net.children(u):
        total += net.edge_mass(child) ** alpha * net.edge_length(child)
    return total


def test_star_cost_hand_value():
    net, j = displaced_junction_net(j_point=(1.0, 0.0))
    want = 1.0 + math.sqrt(0.5) * math.sqrt(2.0) * 2.0
    assert _star_scan(net, j, 0.5)[2] == pytest.approx(want, abs=1e-12)


def test_improve_vertex_skips_root_and_leaves():
    net, j = displaced_junction_net()
    before = export_network(net, 0.5)
    assert not improve_vertex(net, net.root, 0.5, 0.0)
    leaf = net.children(j)[0]
    assert not improve_vertex(net, leaf, 0.5, 0.0)
    assert export_network(net, 0.5) == before


def test_star_pool_helper():
    net, j = displaced_junction_net(j_point=(1.0, 0.0))
    vids, pool, _ = _star_scan(net, j, 0.5)
    assert vids == net.children(j)
    for vid, (pt, m) in zip(vids, pool, strict=True):
        assert np.array_equal(pt, net.point(vid))
        assert m == net.edge_mass(vid)
    assert sum(m for _, m in pool) == pytest.approx(net.edge_mass(j))


def test_star_pool_flow_through_target():
    net = TransportNetwork((0.0, 0.0), 1.0)
    t = net.add_vertex((1.0, 0.0), terminal=True)
    leaf = net.add_vertex((2.0, 0.0), terminal=True)
    net.add_edge(net.root, t, 1.0)
    net.add_edge(t, leaf, 0.6)
    vids, pool, cost = _star_scan(net, t, 0.5)
    # the pool carries the downstream leaf plus the 0.4 consumed at t
    assert vids == [leaf, t]
    assert [m for _, m in pool] == pytest.approx([0.6, 0.4])
    assert np.array_equal(pool[1][0], net.point(t))
    assert cost == star_cost(net, t, 0.5)  # the consumed mass has no edge


def test_star_pool_refuses_leaky_helper():
    net, j = displaced_junction_net()
    net.set_weight(net.children(j)[0], 0.25)  # helper now leaks 0.25
    assert _star_scan(net, j, 0.5) is None
    before = export_network(net, 0.5)
    assert not improve_vertex(net, j, 0.5, 0.0)
    assert export_network(net, 0.5) == before


def test_improve_vertex_moves_junction_to_optimum():
    net, j = displaced_junction_net()
    eps = cost_tolerance(net.bbox_diameter(), 1.0, 0.5)
    assert improve_vertex(net, j, 0.5, eps)
    assert net.cost_m_alpha(0.5) == pytest.approx(3.0, abs=1e-9)
    helpers = [v for v in net.vertices() if v != net.root and not net.is_terminal(v)]
    assert len(helpers) == 1
    assert np.allclose(net.point(helpers[0]), [1.0, 0.0], atol=1e-8)
    # second pass has nothing left to gain
    assert not improve_vertex(net, helpers[0], 0.5, eps)


def test_improve_vertex_dissolves_junction_at_alpha_one():
    net, j = displaced_junction_net(j_point=(1.0, 0.0))
    eps = cost_tolerance(net.bbox_diameter(), 1.0, 1.0)
    assert improve_vertex(net, j, 1.0, eps)
    assert not net.has_vertex(j)
    assert net.n_edges() == 2
    want = 0.5 * math.sqrt(5.0) * 2.0
    assert net.cost_m_alpha(1.0) == pytest.approx(want, abs=1e-12)


def test_improve_vertex_keeps_optimal_chain():
    net = TransportNetwork((0.0, 0.0), 1.0)
    t = net.add_vertex((1.0, 0.0), terminal=True)
    leaf = net.add_vertex((2.0, 0.0), terminal=True)
    net.add_edge(net.root, t, 1.0)
    net.add_edge(t, leaf, 0.5)
    eps = cost_tolerance(net.bbox_diameter(), 1.0, 0.5)
    before = net.cost_m_alpha(0.5)
    assert not improve_vertex(net, t, 0.5, eps)
    assert net.cost_m_alpha(0.5) == pytest.approx(before)
    assert net.parent(leaf) == t


def test_local_sweep_monotone_and_balanced(recorder):
    rng = np.random.default_rng(10)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    ms = rng.uniform(0.1, 1.0, size=40)
    tg = AtomicMeasure(pts, ms)
    m = float(ms.sum())
    net = build_subdivision((0.5, 0.5), m, tg, 0.5)
    eps = cost_tolerance(net.bbox_diameter(), m, 0.5)
    recorder.start(0.5)
    final = local_sweep(net, 0.5, eps_improve=eps)
    trace = recorder.events
    assert final == pytest.approx(net.cost_m_alpha(0.5), rel=1e-12)
    for stage, _, before, after in trace:
        assert stage == "local"
        assert before - after > eps
    costs = [before for _, _, before, _ in trace] + [final]
    assert all(costs[i] >= costs[i + 1] - 1e-12 for i in range(len(costs) - 1))
    src = AtomicMeasure([[0.5, 0.5]], [m])
    assert net.check_balance(src, tg).max_abs() <= 1e-9 * m
    assert net.validate_structure() == []


def test_local_sweep_counts_sweeps():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(25, 2))
    tg = AtomicMeasure(pts, np.full(25, 1.0 / 25))
    net = build_subdivision((0.0, 0.0), 1.0, tg, 0.75)
    seen = []
    eps = cost_tolerance(net.bbox_diameter(), 1.0, 0.75)
    local_sweep(net, 0.75, eps, on_sweep=lambda n: seen.append(n.cost_m_alpha(0.75)))
    assert seen, "sweep callback never fired"
    assert all(seen[i] >= seen[i + 1] - 1e-12 for i in range(len(seen) - 1))


def _plan_network(net, u, alpha):
    """The greedy plan for u's star, wired by _wire into a scratch network
    rooted at a copy of parent(u)."""
    _, pool, _ = _star_scan(net, u, alpha)
    o = net.point(net.parent(u))
    junctions, edges = _greedy_small(o, pool, alpha)
    scratch = TransportNetwork(o, net.edge_mass(u))
    ids = [scratch.root] + [scratch.add_vertex(pt, terminal=True) for pt, _ in pool]
    _wire(scratch, ids, junctions, edges)
    return scratch


@pytest.mark.parametrize("dim, alpha", [(2, 0.5), (2, 0.75), (3, 0.5), (3, 0.75)])
def test_splice_matches_wired_plan(dim, alpha):
    rng = np.random.default_rng(20 + dim)
    pts = rng.uniform(0.0, 1.0, size=(40, dim))
    tg = AtomicMeasure(pts, rng.uniform(0.1, 1.0, size=40))
    m = float(np.sum(tg.masses))
    src = AtomicMeasure([np.full(dim, 0.5)], [m])
    net = build_subdivision(np.full(dim, 0.5), m, tg, alpha)
    eps = cost_tolerance(net.bbox_diameter(), m, alpha)
    accepted = 0
    for _ in range(3):
        for u in net.bfs_order():
            if not net.has_vertex(u):
                continue
            before = export_network(net, alpha)
            scored = None
            if u != net.root and net.children(u) and _star_scan(net, u, alpha) is not None:
                scored = star_cost(net, u, alpha) - _plan_network(net, u, alpha).cost_m_alpha(alpha)
            cost_before = net.cost_m_alpha(alpha)
            ok = improve_vertex(net, u, alpha, eps)
            assert ok == (scored is not None and scored > eps)
            if not ok:
                assert export_network(net, alpha) == before
                continue
            accepted += 1
            cost_after = net.cost_m_alpha(alpha)
            assert abs((cost_before - cost_after) - scored) <= 1e-12 * cost_before
            assert net.validate_structure() == []
            assert net.check_balance(src, tg).max_abs() <= 1e-9 * m
    assert accepted > 20


@pytest.mark.parametrize("dim", [2, 3])
def test_plan_score_equals_wired_cost_bitwise(dim):
    """improve_vertex scores the plan on plain points; the score must round
    exactly like cost_m_alpha of the same plan wired into a network, so the
    accept threshold sits on that exact value."""
    rng = np.random.default_rng(40 + dim)
    for _ in range(60):
        alpha = float(rng.uniform(0.05, 1.0))
        k = int(rng.integers(2, 9))
        net = TransportNetwork(rng.uniform(-1.0, 1.0, size=dim), 1.0)
        u = net.add_vertex(rng.uniform(-1.0, 1.0, size=dim), terminal=bool(rng.integers(2)))
        masses = rng.uniform(0.1, 1.0, size=k)
        consumed = float(rng.uniform(0.1, 1.0)) if net.is_terminal(u) else 0.0
        net.add_edge(net.root, u, float(masses.sum()) + consumed)
        for mass in masses:
            child = net.add_vertex(rng.uniform(-1.0, 1.0, size=dim), terminal=True)
            net.add_edge(u, child, float(mass))
        assert _star_scan(net, u, alpha)[2] == star_cost(net, u, alpha)
        threshold = star_cost(net, u, alpha) - _plan_network(net, u, alpha).cost_m_alpha(alpha)
        assert not improve_vertex(net.copy(), u, alpha, threshold)
        assert improve_vertex(net.copy(), u, alpha, float(np.nextafter(threshold, -np.inf)))


def _random_subdivision(dim, alpha, seed, n=25):
    rng = np.random.default_rng(seed)
    tg = AtomicMeasure(rng.uniform(0.0, 1.0, size=(n, dim)), rng.uniform(0.1, 1.0, size=n))
    m = float(np.sum(tg.masses))
    net = build_subdivision(np.full(dim, 0.5), m, tg, alpha)
    return net, cost_tolerance(net.bbox_diameter(), m, alpha)


def _star_key(net, u):
    return (net.parent(u), net.edge_mass(u),
            tuple((c, net.edge_mass(c)) for c in net.children(u)))


def _sweep_every_vertex(net, alpha, eps):
    """local_sweep without the skip: improve_vertex on every vertex of every
    sweep, the reference the skipping sweep must reproduce."""
    cost = net.cost_m_alpha(alpha)
    for _ in range(optimize_local.MAX_LOCAL_SWEEPS):
        improved = False
        for u in net.bfs_order():
            if net.has_vertex(u) and improve_vertex(net, u, alpha, eps):
                improved = True
        new_cost = net.cost_m_alpha(alpha)
        if not improved or stalled(cost, new_cost):
            return new_cost
        cost = new_cost
    return cost


@pytest.mark.parametrize("dim, alpha", [(2, 0.5), (2, 0.75), (3, 0.5), (3, 0.75)])
def test_sweep_skips_only_repeated_rejections(recorder, dim, alpha):
    net, eps = _random_subdivision(dim, alpha, 30 + dim)
    reference = net.copy()
    want_cost = _sweep_every_vertex(reference, alpha, eps)

    calls = recorder.calls
    last = {}  # vertex -> (star key, result) of the latest call on it
    skipped = []
    real_bfs = net.bfs_order

    def bfs_order():
        # the sweep asks for the next vertex only once it is done with u
        for u in real_bfs():
            visited, n_calls = net.has_vertex(u), len(calls)
            key = _star_key(net, u) if visited else None
            yield u
            if len(calls) > n_calls:
                ((vid, ok),) = calls[n_calls:]
                assert vid == u
                assert last.get(u) != (key, False), f"rejected star of {u} scored again"
                last[u] = (key, ok)
            elif visited:
                skipped.append(u)
                probe = net.copy()
                before = export_network(probe, alpha)
                assert not improve_vertex(probe, u, alpha, eps)
                assert export_network(probe, alpha) == before

    net.bfs_order = bfs_order
    cost = local_sweep(net, alpha, eps)
    assert len(skipped) > len(calls) / 2
    assert cost == want_cost
    assert export_network(net, alpha) == export_network(reference, alpha)


def _two_sweeps(monkeypatch, recorder, net, alpha, eps, edit=None):
    """Run local_sweep for two sweeps, calling edit(net) between them;
    returns the (vertex, accepted) calls of each sweep and the network as
    the first sweep left it."""
    monkeypatch.setattr(optimize_local, "MAX_LOCAL_SWEEPS", 2)
    ends = [len(recorder.calls)]  # where each sweep's calls start and end
    after_first = []

    def on_sweep(net_):
        if len(ends) == 1:
            after_first.append(net_.copy())
            if edit is not None:
                edit(net_)
        ends.append(len(recorder.calls))

    local_sweep(net, alpha, eps, on_sweep=on_sweep)
    assert len(ends) == 3, "the first sweep stalled"
    first, second = (recorder.calls[a:b] for a, b in zip(ends, ends[1:]))
    return first, second, after_first[0]


@pytest.mark.parametrize("edit", ["set_weight", "add_child", "rewire"])
def test_edited_rejected_star_is_scored_again(monkeypatch, recorder, edit):
    alpha = 0.5
    start, eps = _random_subdivision(2, alpha, 33, n=40)
    first, second, mid = _two_sweeps(monkeypatch, recorder, start.copy(), alpha, eps)
    scored_again = {u for u, _ in second}
    u = next(u for u, ok in first
             if not ok and u not in scored_again and u != mid.root
             and mid.has_vertex(u) and mid.children(u))
    child = mid.children(u)[0]
    leaf = next(v for v in mid.terminals()
                if not mid.children(v) and not mid.is_descendant(v, u))

    def change(net):
        if edit == "set_weight":
            net.set_weight(child, net.edge_mass(child) / 2)
        elif edit == "add_child":
            net.add_edge(u, net.add_vertex(np.add(net.point(u), 0.01), terminal=True), 1e-3)
        else:
            inflow = net.edge_mass(u)
            rewire(net, leaf, child)
            assert net.edge_mass(u) > inflow

    _, second, _ = _two_sweeps(monkeypatch, recorder, start.copy(), alpha, eps, edit=change)
    assert u in {v for v, _ in second}


def test_restored_snapshot_is_scored_in_full(monkeypatch, recorder):
    # on_sweep rewinds to a snapshot taken before the first sweep: ids freed
    # since then may return with other points, so no earlier rejection holds
    alpha = 0.5
    net, eps = _random_subdivision(2, alpha, 33, n=40)
    snap = net.copy()
    monkeypatch.setattr(optimize_local, "MAX_LOCAL_SWEEPS", 2)
    ends = [0]      # where each sweep's improve_vertex calls start and end
    reached = [[]]  # vertices each sweep found present on its visit

    real_bfs = net.bfs_order

    def bfs_order():
        for u in real_bfs():
            if net.has_vertex(u):
                reached[-1].append(u)
            yield u

    def on_sweep(net_):
        if len(ends) == 1:
            net_.restore_from(snap)
        ends.append(len(recorder.calls))
        reached.append([])

    net.bfs_order = bfs_order
    local_sweep(net, alpha, eps, on_sweep=on_sweep)
    assert len(ends) == 3, "the first sweep stalled"
    # (vertex, accepted) per improve_vertex call, per sweep
    calls = [recorder.calls[a:b] for a, b in zip(ends, ends[1:])]
    rejected_first = {u for u, ok in calls[0] if not ok}
    assert rejected_first & set(reached[1])
    assert [u for u, _ in calls[1]] == reached[1]
