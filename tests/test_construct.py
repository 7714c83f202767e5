"""Unit tests for the feasible-network initializers."""
import math

import numpy as np
import pytest

from branchflow.bifurcation import BifurcationInput, solve_two_targets
from branchflow.construct import build_small, build_star, build_subdivision
from branchflow.errors import InputError
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
