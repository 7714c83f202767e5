"""Property tests: global_optimize on generated instances.

Instances span dimensions 2-5 (the planar generators in d = 2), 1-8
targets, alpha from 0.01 to 1, coordinate scales from 1e-8 to 1e8 and
masses skewed over six decades.  Every result must be one balanced tree
that delivers every atom, cost no more than the star, repeat byte for byte,
and survive the export/import round trip.  Scaling an instance by a power of
two, which is exact in floating point, scales the solve exactly.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchflow.config import mass_tolerance
from branchflow.construct import build_star
from branchflow.instances import GENERATORS, export_network, generate_points, import_network
from branchflow.measures import AtomicMeasure
from branchflow.optimize_global import global_optimize
from branchflow.oracle import enumerate_optimal

ALPHAS = st.sampled_from([0.01, 0.5, 0.75, 1.0 - 1e-6, 1.0]) | st.floats(0.01, 1.0)


@st.composite
def instances(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = 10.0 ** draw(st.integers(-8, 8))
    kind = draw(st.sampled_from(GENERATORS)) if d == 2 else "uniform-square"
    region = {"low": [0.0] * d, "high": [1.0] * d} if kind == "uniform-square" else None
    points = scale * generate_points(kind, n, region, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    masses = 10.0 ** rng.uniform(-6.0, 0.0, size=n)  # lightest atom > 1e-7 of the total
    source = AtomicMeasure([scale * rng.uniform(-1.0, 1.0, size=d)], [float(masses.sum())])
    return source, AtomicMeasure(points, masses), draw(ALPHAS)


def assert_delivers(net, source, targets):
    assert net.validate_structure() == []
    balance = net.check_balance(source, targets)
    assert balance.missing == []
    assert balance.max_abs() <= mass_tolerance(source.total_mass())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(instances())
def test_global_optimize_properties(instance):
    source, targets, alpha = instance
    net = global_optimize(source, targets, alpha)
    assert_delivers(net, source, targets)

    star = build_star(source.points[0], source.total_mass(), targets, alpha)
    assert net.cost_m_alpha(alpha) <= star.cost_m_alpha(alpha) * (1.0 + 1e-12)

    blob = export_network(net, alpha)
    assert export_network(global_optimize(source, targets, alpha), alpha) == blob

    back, back_alpha = import_network(blob)
    assert back_alpha == alpha
    assert_delivers(back, source, targets)


def _scaled(source_point, points, masses, k):
    """The instance with every coordinate times 2**k, as measures."""
    return (AtomicMeasure([np.ldexp(source_point, k)], [float(masses.sum())]),
            AtomicMeasure(np.ldexp(points, k), masses))


@pytest.mark.parametrize("seed", range(8))
def test_power_of_two_scale_equivariance(seed):
    """Every tolerance is relative and a power-of-two scale is exact, so
    the solve at 2**k is the solve at 1 with every coordinate and the cost
    times 2**k: the same vertex ids and edges, bit for bit; likewise the
    exhaustive oracle's cost on the first two to four targets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 31))
    d = 2 + seed % 2
    alpha = (0.3, 0.5, 0.75, 0.9)[seed % 4]
    points = rng.uniform(0.0, 1.0, size=(n, d))
    masses = rng.uniform(0.1, 1.0, size=n)
    source_point = rng.uniform(0.0, 1.0, size=d)
    few = 2 + seed % 3

    base = global_optimize(*_scaled(source_point, points, masses, 0), alpha)
    _, base_oracle = enumerate_optimal(
        *_scaled(source_point, points[:few], masses[:few], 0), alpha)
    for k in (-600, -300, -40, 40, 260, 600):
        net = global_optimize(*_scaled(source_point, points, masses, k), alpha)
        assert net.vertices() == base.vertices(), k
        assert net.edges() == base.edges(), k
        for v in base.vertices():
            assert net.point(v) == tuple(math.ldexp(x, k) for x in base.point(v)), (k, v)
        assert net.cost_m_alpha(alpha) == math.ldexp(base.cost_m_alpha(alpha), k)
        _, cost = enumerate_optimal(
            *_scaled(source_point, points[:few], masses[:few], k), alpha)
        assert cost == math.ldexp(base_oracle, k), k
