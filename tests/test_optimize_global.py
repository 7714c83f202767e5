"""Unit tests for potentials, reparenting and the full pipeline."""
import math

import numpy as np
import pytest

from branchflow import optimize_global
from branchflow.construct import build_subdivision
from branchflow.errors import InputError
from branchflow.instances import export_network, generate_points
from branchflow.measures import AtomicMeasure
from branchflow.network import TransportNetwork
from branchflow.optimize_global import (
    evaluate_reparent,
    global_optimize,
    reparent_pass,
    rewire,
    subdivide_long_edges,
)
from reference import potential, predicted_gain

SPOT_SRC = AtomicMeasure([[0.0, 0.0]], [1.0])
SPOT_TG = AtomicMeasure([[2.0, 1.0], [2.0, -1.0]], [0.5, 0.5])


def unit_chain():
    """root(0,0) -> a(1,0) -> b(2,0), both edges carrying the full mass."""
    net = TransportNetwork((0.0, 0.0), 1.0)
    a = net.add_vertex((1.0, 0.0))
    b = net.add_vertex((2.0, 0.0), terminal=True)
    net.add_edge(net.root, a, 1.0)
    net.add_edge(a, b, 1.0)
    return net, a, b


def test_potential_chain_values():
    net, a, b = unit_chain()
    assert potential(net, b, 1.0, 0.5) == pytest.approx(2.0, abs=1e-12)
    want = 2.0 * (1.0 - math.sqrt(0.5))
    assert potential(net, b, 0.5, 0.5) == pytest.approx(want, abs=1e-12)
    # negative t adds flow and returns a negative release
    want = 2.0 * (1.0 - math.sqrt(2.0))
    assert potential(net, b, -1.0, 0.5) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        potential(net, b, 1.5, 0.5)


def test_subdivide_long_edges_midpoints():
    # lengths 10, 0.5 and 0.5: only the first exceeds twice their mean
    net = TransportNetwork((0.0, 0.0), 1.0)
    far = net.add_vertex((10.0, 0.0), terminal=True)
    net.add_edge(net.root, far, 0.5)
    for y in (0.5, -0.5):
        net.add_edge(net.root, net.add_vertex((0.0, y), terminal=True), 0.25)
    before = net.cost_m_alpha(0.5)
    created = subdivide_long_edges(net)
    assert len(created) == 1
    mid = created[0]
    assert np.allclose(net.point(mid), [5.0, 0.0])
    assert net.parent(far) == mid
    assert net.cost_m_alpha(0.5) == pytest.approx(before, rel=1e-12)

    # at 20 vertices per target the budget is spent: no split
    capped = TransportNetwork((0.0, 0.0), 1.0)
    tip = capped.root
    for k in range(1, 20):
        helper = capped.add_vertex((0.1 * k, 0.0))
        capped.add_edge(tip, helper, 1.0)
        tip = helper
    leaf = capped.add_vertex((10.0, 0.0), terminal=True)
    capped.add_edge(tip, leaf, 1.0)
    assert subdivide_long_edges(capped) == []


def plant_midpoints(net):
    """subdivide_long_edges at factor 1.0, which plants more midpoints than
    the solver's 2.0 and so gives the reparent search more candidates."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_global, "SUBDIVIDE_FACTOR", 1.0)
        subdivide_long_edges(net)


def reparent_scenario():
    """A stray target wired straight to the source despite a trunk next to it."""
    net = TransportNetwork((0.0, 0.0), 1.0)
    h = net.add_vertex((5.0, 0.0))
    t1 = net.add_vertex((6.0, 0.5), terminal=True)
    t2 = net.add_vertex((6.0, -0.5), terminal=True)
    s = net.add_vertex((5.2, 0.0), terminal=True)
    net.add_edge(net.root, h, 0.8)
    net.add_edge(h, t1, 0.4)
    net.add_edge(h, t2, 0.4)
    net.add_edge(net.root, s, 0.2)
    return net, h, s


def test_evaluate_reparent_finds_trunk():
    net, h, s = reparent_scenario()
    proposal = evaluate_reparent(net, s, 0.5, 1e-9)
    assert proposal is not None
    new_parent, gain = proposal
    assert new_parent == h
    assert gain > 1.0
    m_s = net.edge_mass(s)
    assert potential(net, s, m_s, 0.5) / m_s ** 0.5 >= 5.0


def brute_force_reparent(net, u, alpha):
    """(argmax, max) of predicted_gain over the closed sigma ball around u,
    outside u's subtree and other than its parent; ties go to the lowest id."""
    m_u = net.edge_mass(u)
    sigma = potential(net, u, m_u, alpha) / m_u ** alpha
    best_v, best_gain = None, -math.inf
    for v in net.vertices():
        if net.is_descendant(v, u) or v == net.parent(u):
            continue
        if math.dist(net.point(v), net.point(u)) > sigma * (1.0 + 1e-12):
            continue
        gain = predicted_gain(net, u, v, alpha)
        if gain > best_gain:
            best_v, best_gain = v, gain
    return best_v, best_gain


def assert_reparent_matches_brute_force(net, u, alpha, eps):
    best_v, best_gain = brute_force_reparent(net, u, alpha)
    proposal = evaluate_reparent(net, u, alpha, eps)
    if best_v is None or best_gain <= eps:
        assert proposal is None
    else:
        assert proposal is not None
        assert proposal == (best_v, best_gain)


def test_evaluate_reparent_matches_brute_force():
    # unit chain: the root sits at exactly sigma = 2 from b and its gain is 0
    net, a, b = unit_chain()
    assert brute_force_reparent(net, b, 0.5) == (net.root, 0.0)
    assert evaluate_reparent(net, b, 0.5, 0.0) is None
    assert evaluate_reparent(net, b, 0.5, -1.0)[0] == net.root
    m_b = net.edge_mass(b)
    assert potential(net, b, m_b, 0.5) / m_b ** 0.5 == 2.0

    # mirror-image junctions h1 and h2 tie exactly as new parents of u
    net = TransportNetwork((0.0, 0.0), 1.0)
    h1 = net.add_vertex((-1.0, 2.0))
    h2 = net.add_vertex((1.0, 2.0))
    for h, x in ((h1, -1.0), (h2, 1.0)):
        net.add_edge(net.root, h, 0.4)
        net.add_edge(h, net.add_vertex((x, 4.0), terminal=True), 0.4)
    u = net.add_vertex((0.0, 3.0), terminal=True)
    net.add_edge(net.root, u, 0.2)
    assert predicted_gain(net, u, h1, 0.5) == predicted_gain(net, u, h2, 0.5)
    assert evaluate_reparent(net, u, 0.5, 1e-9)[0] == h1
    assert_reparent_matches_brute_force(net, u, 0.5, 1e-9)

    rng = np.random.default_rng(16)
    proposals = 0
    for alpha in (0.5, 0.75):
        pts = rng.uniform(0.0, 1.0, size=(25, 2))
        ms = rng.uniform(0.1, 1.0, size=25)
        net = build_subdivision((0.0, 0.0), float(ms.sum()), AtomicMeasure(pts, ms), alpha)
        plant_midpoints(net)
        for u in net.vertices():
            if u == net.root:
                continue
            assert_reparent_matches_brute_force(net, u, alpha, 1e-9)
            _, best_gain = brute_force_reparent(net, u, alpha)
            assert_reparent_matches_brute_force(net, u, alpha, best_gain)
            proposals += evaluate_reparent(net, u, alpha, 1e-9) is not None
    assert proposals > 0


def test_predicted_gain_matches_direct_recomputation():
    net, h, s = reparent_scenario()
    gain = predicted_gain(net, s, h, 0.5)
    trial = net.copy()
    before = trial.cost_m_alpha(0.5)
    rewire(trial, s, h)
    after = trial.cost_m_alpha(0.5)
    assert gain == pytest.approx(before - after, abs=1e-12)
    with pytest.raises(ValueError):
        predicted_gain(net, h, t_inside_subtree(net, h), 0.5)


def t_inside_subtree(net, h):
    return [v for v in net.subtree(h) if v != h][0]


def test_predicted_gain_random_rewires():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 1.0, size=(30, 2))
    ms = rng.uniform(0.1, 1.0, size=30)
    tg = AtomicMeasure(pts, ms)
    m = float(ms.sum())
    net = build_subdivision((0.0, 0.0), m, tg, 0.5)
    ids = net.vertices()
    checked = 0
    while checked < 60:
        u, v = rng.choice(ids, size=2, replace=False)
        u, v = int(u), int(v)
        if u == net.root or net.parent(u) is None or v == net.parent(u):
            continue
        if net.is_descendant(v, u):
            continue
        gain = predicted_gain(net, u, v, 0.5)
        trial = net.copy()
        before = trial.cost_m_alpha(0.5)
        rewire(trial, u, v)
        after = trial.cost_m_alpha(0.5)
        assert gain == pytest.approx(before - after, abs=1e-9)
        checked += 1


def bfs_extra_costs(net, u, alpha):
    """Reference c(v) table: one breadth-first pass over the whole tree from
    the root, c[child] = c[parent] + len * ((w~ + m)**a - w~**a), with the
    residual weight w~ = max(w - m, 0) on u's root path."""
    m_u = net.edge_mass(u)
    on_path = set(net.path_to_root(u)[1:])
    c = {net.root: 0.0}
    queue = [net.root]
    while queue:
        nxt = []
        for v in queue:
            for child in net.children(v):
                w = net.edge_mass(child)
                w_res = max(w - m_u, 0.0) if child in on_path else w
                c[child] = c[v] + net.edge_length(child) * (
                    (w_res + m_u) ** alpha - w_res ** alpha)
                nxt.append(child)
        queue = nxt
    return c


def _subdivision_net(dim, alpha, seed, n=20):
    rng = np.random.default_rng(seed)
    tg = AtomicMeasure(rng.uniform(0.0, 1.0, size=(n, dim)), rng.uniform(0.1, 1.0, size=n))
    net = build_subdivision(np.full(dim, 0.5), float(np.sum(tg.masses)), tg, alpha)
    plant_midpoints(net)
    return net


@pytest.mark.parametrize("dim, alpha", [(2, 0.5), (2, 0.75), (3, 0.5), (3, 0.75)])
def test_predicted_gain_matches_the_full_tree_table_bitwise(dim, alpha):
    net = _subdivision_net(dim, alpha, 40 + dim)
    pairs = 0
    for u in net.vertices():
        if u == net.root:
            continue
        m_u = net.edge_mass(u)
        ma = m_u ** alpha
        s_val = potential(net, u, m_u, alpha)
        c = bfs_extra_costs(net, u, alpha)
        for v in net.vertices():
            if net.is_descendant(v, u):
                continue
            want = s_val - (c[v] + math.dist(net.point(v), net.point(u)) * ma)
            assert predicted_gain(net, u, v, alpha) == want
            pairs += 1
    assert pairs > 300


@pytest.mark.parametrize("dim, alpha", [(2, 0.5), (3, 0.75)])
def test_evaluate_reparent_ignores_a_detached_subtree(dim, alpha):
    net = _subdivision_net(dim, alpha, 50 + dim)
    cut = max((v for v in net.vertices() if v != net.root),
              key=lambda v: (len(net.subtree(v)), -v))
    detached = set(net.subtree(cut))
    assert len(detached) > 2
    net.remove_edge(cut)
    checked = 0
    for u in net.bfs_order():
        if u == net.root:
            continue
        c = bfs_extra_costs(net, u, alpha)
        m_u = net.edge_mass(u)
        ma = m_u ** alpha
        s_val = potential(net, u, m_u, alpha)
        sigma = s_val / ma
        best_v, best_t = None, math.inf
        for v in net.vertices():
            if v not in c or net.is_descendant(v, u) or v == net.parent(u):
                continue
            dist = math.dist(net.point(v), net.point(u))
            if dist <= sigma * (1.0 + 1e-12) and c[v] + dist * ma < best_t:
                best_v, best_t = v, c[v] + dist * ma
        proposal = evaluate_reparent(net, u, alpha, -math.inf)
        if best_v is None:
            assert proposal is None
            continue
        assert proposal[0] not in detached
        assert proposal == (best_v, s_val - best_t)
        checked += 1
    assert checked > 5
    with pytest.raises(ValueError):
        predicted_gain(net, net.bfs_order()[1], cut, alpha)


def test_evaluate_reparent_reads_only_candidate_root_paths(monkeypatch):
    net = _subdivision_net(2, 0.5, 60, n=30)
    read = set()
    real_length = TransportNetwork.edge_length

    def edge_length(self, child):
        read.add(child)
        return real_length(self, child)

    monkeypatch.setattr(TransportNetwork, "edge_length", edge_length)
    narrow = 0
    for u in net.vertices():
        if u == net.root:
            continue
        m_u = net.edge_mass(u)
        sigma = potential(net, u, m_u, 0.5) / m_u ** 0.5
        allowed = set(net.path_to_root(u))
        for v in net.vertices():
            if net.is_descendant(v, u) or v == net.parent(u):
                continue
            if math.dist(net.point(v), net.point(u)) <= sigma * (1.0 + 1e-12):
                allowed.update(net.path_to_root(v))
        read.clear()
        evaluate_reparent(net, u, 0.5, 1e-9)
        assert read <= allowed, (u, sorted(read - allowed))
        narrow += len(allowed) < net.n_vertices()
    assert narrow > 10


def test_rewire_preserves_balance():
    net, h, s = reparent_scenario()
    rewire(net, s, h)
    assert net.parent(s) == h
    assert net.edge_mass(h) == pytest.approx(1.0)
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    tg = AtomicMeasure([[6.0, 0.5], [6.0, -0.5], [5.2, 0.0]], [0.4, 0.4, 0.2])
    assert net.check_balance(src, tg).max_abs() <= 1e-12
    assert net.validate_structure() == []


def test_rewire_drops_the_helpers_it_strands():
    net = TransportNetwork((0.0, 0.0), 1.0)
    h1 = net.add_vertex((1.0, 0.0))
    h2 = net.add_vertex((2.0, 0.0))
    t = net.add_vertex((3.0, 0.0), terminal=True)
    b = net.add_vertex((3.0, 1.0), terminal=True)
    net.add_edge(net.root, h1, 0.5)
    net.add_edge(h1, h2, 0.5)
    net.add_edge(h2, t, 0.5)
    net.add_edge(net.root, b, 0.5)
    rewire(net, t, b)
    assert net.parent(t) == b and net.edge_mass(b) == 1.0
    assert not net.has_vertex(h1) and not net.has_vertex(h2)
    assert net.vertices() == sorted([net.root, t, b])
    assert net.validate_structure() == []


def test_reparent_pass_converges(recorder):
    net, h, s = reparent_scenario()
    recorder.start(0.5)
    assert reparent_pass(net, 0.5, 1e-9)
    trace = list(recorder.events)
    assert any(entry[0] == "reparent" for entry in trace)
    for _, _, before, after in trace:
        assert before - after > 1e-9
    for _ in range(5):
        if not reparent_pass(net, 0.5, 1e-9):
            break
    else:
        pytest.fail("reparent passes never converged")


def test_global_optimize_spot_instance():
    net = global_optimize(SPOT_SRC, SPOT_TG, 0.5)
    assert net.cost_m_alpha(0.5) == pytest.approx(3.0, abs=1e-9)
    helpers = [v for v in net.vertices() if v != net.root and not net.is_terminal(v)]
    assert len(helpers) == 1
    assert np.allclose(net.point(helpers[0]), [1.0, 0.0], atol=1e-7)


def test_global_optimize_alpha_one_star():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1.0, 1.0, size=(20, 2))
    ms = rng.uniform(0.1, 1.0, size=20)
    tg = AtomicMeasure(pts, ms)
    src_pt = rng.uniform(-1.0, 1.0, size=2)
    src = AtomicMeasure([src_pt], [float(ms.sum())])
    net = global_optimize(src, tg, 1.0)
    assert net.n_edges() == 20
    for v in net.vertices():
        if v != net.root:
            assert net.parent(v) == net.root
    want = sum(m * float(np.linalg.norm(p - src_pt)) for p, m in tg.atoms())
    assert net.cost_m_alpha(1.0) == pytest.approx(want, abs=1e-9)


def test_global_optimize_checkpoints_and_moves(recorder):
    rng = np.random.default_rng(14)
    pts = rng.uniform(0.0, 1.0, size=(30, 2))
    tg = AtomicMeasure(pts, np.full(30, 1.0 / 30))
    src = AtomicMeasure([[0.5, 0.5]], [1.0])
    stages = []
    recorder.solve(src, tg, 0.6, inspect=lambda stage, net: stages.append(stage))
    trace = recorder.events
    assert stages[0] == "init"
    assert stages[-1] == "final"
    assert set(stages) <= {"init", "local_sweep", "subdivide", "reparent_pass", "rollback",
                           "final"}
    assert trace[0][0] == "init" and trace[-1][0] == "final"
    costs = [entry[3] for entry in trace if entry[0] in ("local", "reparent")]
    assert all(costs[i] >= costs[i + 1] - 1e-12 for i in range(len(costs) - 1))


def test_global_optimize_deterministic():
    rng = np.random.default_rng(15)
    pts = rng.uniform(0.0, 1.0, size=(25, 2))
    tg = AtomicMeasure(pts, np.full(25, 1.0 / 25))
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    a = global_optimize(src, tg, 0.5)
    b = global_optimize(src, tg, 0.5)
    assert export_network(a, 0.5) == export_network(b, 0.5)


def test_global_optimize_initializers_on_spot():
    for init in ("subdivision", "small"):
        net = global_optimize(SPOT_SRC, SPOT_TG, 0.5, initializer=init)
        assert net.cost_m_alpha(0.5) == pytest.approx(3.0, abs=1e-9), init
    # the bare V shape is a genuine fixed point of the move set: no junction
    # vertex exists to rebuild, both edges sit at the mean length, and moving
    # either leaf below the other is strictly worse
    net = global_optimize(SPOT_SRC, SPOT_TG, 0.5, initializer="star")
    assert net.cost_m_alpha(0.5) == pytest.approx(math.sqrt(10.0), abs=1e-9)
    assert net.validate_structure() == []


def test_global_optimize_input_errors():
    with pytest.raises(InputError):
        global_optimize(AtomicMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5]), SPOT_TG, 0.5)
    with pytest.raises(InputError):
        global_optimize(SPOT_SRC, SPOT_TG, 1.5)
    with pytest.raises(ValueError):
        global_optimize(SPOT_SRC, SPOT_TG, 0.5, initializer="nope")


def test_solve_cost_scales_past_the_squared_range():
    # at 1e300 the squared bounding-box span overflowed, which made the
    # improvement threshold infinite and stopped every move
    pts = generate_points("uniform-square", 20, None, 1)
    tg_mass = np.full(20, 1.0 / 20)

    def cost(s: float) -> float:
        net = global_optimize(AtomicMeasure([[0.5 * s, 0.5 * s]], [1.0]),
                              AtomicMeasure(pts * s, tg_mass), 0.5)
        return net.cost_m_alpha(0.5)

    unit = cost(1.0)
    for s in (1e300, 1e-300):
        assert cost(s) == pytest.approx(unit * s, rel=1e-12), s
