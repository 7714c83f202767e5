"""Unit tests for the feasible-network initializers."""
import math

import numpy as np
import pytest

from branchflow import construct
from branchflow.bifurcation import BifurcationInput, solve_two_targets
from branchflow.construct import _greedy_pairs, _greedy_small, build_small, build_star, build_subdivision
from branchflow.errors import DegenerateInputError, InputError
from branchflow.instances import export_network
from branchflow.measures import AtomicMeasure


def random_instance(rng, k, d=2):
    pts = rng.uniform(0.0, 1.0, size=(k, d))
    ms = rng.uniform(0.1, 1.0, size=k)
    src = rng.uniform(0.0, 1.0, size=d)
    return src, float(ms.sum()), AtomicMeasure(pts, ms)


def assert_feasible(net, src_pt, src_mass, targets):
    assert net.validate_structure() == []
    src = AtomicMeasure([src_pt], [src_mass])
    rep = net.check_balance(src, targets)
    assert rep.max_abs() <= 1e-9 * src_mass, rep.max_abs()
    for _, _, w in net.edges():
        assert w > 0.0


def test_build_star_structure_and_cost():
    tg = AtomicMeasure([[1.0, 0.0], [0.0, 2.0]], [0.25, 0.75])
    net = build_star((0.0, 0.0), 1.0, tg, 0.5)
    assert net.n_edges() == 2
    assert len(net.terminals()) == 2
    want = 0.25 ** 0.5 * 1.0 + 0.75 ** 0.5 * 2.0
    assert net.cost_m_alpha(0.5) == pytest.approx(want, abs=1e-12)
    assert_feasible(net, (0.0, 0.0), 1.0, tg)


def test_build_small_single_target():
    tg = AtomicMeasure([[3.0, 4.0]], [1.0])
    net = build_small((0.0, 0.0), 1.0, tg, 0.7)
    assert net.n_edges() == 1
    assert net.cost_m_alpha(0.7) == pytest.approx(5.0, abs=1e-12)


def test_build_small_two_targets_matches_closed_form():
    inp = BifurcationInput(o=(0.0, 0.0), p=(2.0, 1.0), q=(2.0, -1.0),
                           m_p=0.5, m_q=0.5, alpha=0.5)
    net = build_small((0.0, 0.0), 1.0, AtomicMeasure([inp.p, inp.q], [0.5, 0.5]), 0.5)
    ref = solve_two_targets(inp)
    assert net.cost_m_alpha(0.5) == pytest.approx(ref.cost, abs=1e-9)
    helpers = [v for v in net.vertices() if v != net.root and not net.is_terminal(v)]
    assert len(helpers) == 1
    assert np.allclose(net.point(helpers[0]), ref.b_star, atol=1e-8)


def _two_entry_inputs(rng, dim):
    """(o, pool, alpha) for pools of two in dimension dim: random triangles,
    a target near the middle of the segment from o to the other target (on
    either side of the pool), a coincident pair, and alpha = 1."""
    for _ in range(30):
        o, p, q = (tuple(rng.uniform(-1.0, 1.0, size=dim).tolist()) for _ in range(3))
        m_p, m_q = rng.uniform(0.1, 1.0, size=2).tolist()
        alpha = float(rng.uniform(0.05, 1.0))
        near = tuple((a + b) / 2.0 + 1e-3 * c
                     for a, b, c in zip(o, p, rng.normal(size=dim).tolist()))
        yield o, [(p, m_p), (q, m_q)], alpha
        yield o, [(p, m_p), (near, m_q)], alpha
        yield o, [(near, m_p), (p, m_q)], alpha
        yield o, [(p, m_p), (p, m_q)], alpha
        yield o, [(p, m_p), (q, m_q)], 1.0


def _outcome(o, pool, alpha):
    (p, m_p), (q, m_q) = pool
    try:
        res = solve_two_targets(BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=alpha))
    except DegenerateInputError:
        return "coincident"
    return res.case.value if res.v_cost - res.cost > 0.0 else "no gain"


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_two_entry_plan_matches_general_greedy(monkeypatch, dim):
    """The two-entry shortcut of _greedy_small gives the general greedy's plan,
    junction points and edge order alike, from one solve_two_targets call
    looked up on the construct module."""
    calls = []

    def counted(inp):
        calls.append(inp)
        return solve_two_targets(inp)

    monkeypatch.setattr(construct, "solve_two_targets", counted)
    seen = set()
    for o, pool, alpha in _two_entry_inputs(np.random.default_rng(50 + dim), dim):
        del calls[:]
        plan = _greedy_small(o, pool, alpha)
        assert len(calls) == 1
        assert plan == _greedy_pairs(o, pool, alpha)
        seen.add((_outcome(o, pool, alpha), alpha == 1.0))
    assert {case for case, _ in seen} == {"coincident", "no gain", "CollapseToP",
                                          "CollapseToQ", "InteriorY"}
    assert ("no gain", True) in seen


def test_build_small_beats_or_ties_star():
    rng = np.random.default_rng(7)
    for _ in range(20):
        src, m, tg = random_instance(rng, int(rng.integers(2, 7)))
        alpha = float(rng.uniform(0.3, 0.95))
        small = build_small(src, m, tg, alpha).cost_m_alpha(alpha)
        star = build_star(src, m, tg, alpha).cost_m_alpha(alpha)
        assert small <= star * (1.0 + 1e-12)


def test_build_subdivision_feasible_and_deterministic():
    rng = np.random.default_rng(8)
    src, m, tg = random_instance(rng, 120)
    net1 = build_subdivision(src, m, tg, 0.5)
    net2 = build_subdivision(src, m, tg, 0.5)
    assert_feasible(net1, src, m, tg)
    assert len(net1.terminals()) == 120
    assert export_network(net1, 0.5) == export_network(net2, 0.5)


def test_build_subdivision_degree_bound():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        cap = 9 if d == 2 else 8
        src, m, tg = random_instance(rng, 100, d=d)
        net = build_subdivision(src, m, tg, 0.6)
        assert max(net.degree(v) for v in net.vertices()) <= cap
        assert_feasible(net, src, m, tg)


def test_build_rejects_bad_inputs():
    tg = AtomicMeasure([[1.0, 0.0]], [1.0])
    with pytest.raises(InputError):
        build_star((0.0, 0.0, 0.0), 1.0, tg, 0.5)  # dimension mismatch
    with pytest.raises(InputError):
        build_star((0.0, 0.0), -1.0, tg, 0.5)
    dup = AtomicMeasure([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(InputError):
        build_small((0.0, 0.0), 1.0, dup, 0.5)
    # atoms at or below the balance tolerance would be pruned away
    light = AtomicMeasure([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0 - 1e-12, 5e-13, 5e-13])
    with pytest.raises(InputError, match="tolerance"):
        build_star((0.0, 0.0), 1.0, light, 0.5)
