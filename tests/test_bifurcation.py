"""Unit tests for the closed-form two-target junction solver."""
import math

import numpy as np
import pytest

from branchflow.bifurcation import (
    MASS_TERMS_CACHE,
    BifurcationInput,
    BranchCase,
    _mass_terms,
    branch_angles,
    objective_f,
    solve_two_targets,
)
from branchflow.errors import DegenerateInputError
from branchflow.oracle import grid_minimize_f
from reference import balance_residual

SPOT = BifurcationInput(o=(0.0, 0.0), p=(2.0, 1.0), q=(2.0, -1.0),
                        m_p=0.5, m_q=0.5, alpha=0.5)


def test_branch_angles_symmetric_half():
    t1, t2, t3 = branch_angles(0.5, 0.5, 1.0, 0.5)
    assert t1 == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
    assert t2 == pytest.approx(3.0 * math.pi / 4.0, abs=1e-12)
    assert t3 == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_branch_angles_alpha_one_exact():
    t1, t2, t3 = branch_angles(0.3, 0.7, 1.0, 1.0)
    assert (t1, t2, t3) == (math.pi, math.pi, 0.0)


def test_branch_angles_defining_cosines():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m_p, m_q = rng.uniform(0.1, 2.0, size=2)
        alpha = rng.uniform(0.05, 0.95)
        m_o = m_p + m_q
        t1, t2, t3 = branch_angles(m_p, m_q, m_o, alpha)
        k1 = (m_p / m_o) ** (2.0 * alpha)
        k2 = (m_q / m_o) ** (2.0 * alpha)
        assert math.cos(t1) == pytest.approx((k2 - k1 - 1) / (2 * math.sqrt(k1)), abs=1e-12)
        assert math.cos(t2) == pytest.approx((k1 - k2 - 1) / (2 * math.sqrt(k2)), abs=1e-12)
        assert math.cos(t3) == pytest.approx((1 - k1 - k2) / (2 * math.sqrt(k1 * k2)), abs=1e-12)
        assert t3 <= t1 + 1e-12 and t3 <= t2 + 1e-12


def test_spot_interior_solution():
    res = solve_two_targets(SPOT)
    assert res.case is BranchCase.INTERIOR_Y
    assert np.allclose(res.b_star, [1.0, 0.0], atol=1e-8)
    assert res.cost == pytest.approx(3.0, abs=1e-9)
    angles = branch_angles(SPOT.m_p, SPOT.m_q, SPOT.m_o, SPOT.alpha)
    assert angles[0] == pytest.approx(3.0 * math.pi / 4.0, abs=1e-9)
    assert angles[2] == pytest.approx(math.pi / 2.0, abs=1e-9)


# (triangle, its case at unit scale): SPOT, a thin Y whose junction sits at
# x = 1 - 0.1 (a V would cost 1.42 against 1.10), a right angle at O that
# sits exactly on the V-shape boundary t3 = pi/2, and the thin Y tripled and
# laid in the tilted plane spanned by (1, 2, 2) and (2, 1, -2), so that the
# d = 3 body's hand-off to the rescale is reached too
SCALED = {
    "spot": (SPOT, BranchCase.INTERIOR_Y),
    "thin": (BifurcationInput(o=(0.0, 0.0), p=(1.0, 0.1), q=(1.0, -0.1),
                              m_p=0.5, m_q=0.5, alpha=0.5), BranchCase.INTERIOR_Y),
    "right": (BifurcationInput(o=(0.0, 0.0), p=(1.0, 1.0), q=(1.0, -1.0),
                               m_p=0.5, m_q=0.5, alpha=0.5), BranchCase.V_SHAPE_AT_SOURCE),
    "tilted": (BifurcationInput(o=(0.0, 0.0, 0.0), p=(1.2, 2.1, 1.8), q=(0.8, 1.9, 2.2),
                                m_p=0.5, m_q=0.5, alpha=0.5), BranchCase.INTERIOR_Y),
}


@pytest.mark.parametrize("k", range(-1000, 1001))
@pytest.mark.parametrize("name", SCALED)
def test_spot_at_extreme_scales_is_the_unit_result_scaled(name, k):
    """The angle tests multiply four lengths, which leave the float range
    past about 2**+-256, so a triangle outside 2**+-200 is solved rescaled;
    scaling by a power of two is exact either way."""
    def up(v):
        return tuple(math.ldexp(x, k) for x in v)

    inp, case = SCALED[name]
    ref = solve_two_targets(inp)
    res = solve_two_targets(BifurcationInput(o=up(inp.o), p=up(inp.p), q=up(inp.q),
                                             m_p=inp.m_p, m_q=inp.m_q, alpha=inp.alpha))
    assert res.case is ref.case is case
    assert res.b_star == up(ref.b_star)
    assert res.cost == math.ldexp(ref.cost, k)
    assert res.v_cost == math.ldexp(ref.v_cost, k)


def test_spot_advantage():
    res = solve_two_targets(SPOT)
    assert res.v_cost - res.cost == pytest.approx(math.sqrt(10.0) - 3.0, abs=1e-9)


def test_objective_and_residual_at_spot():
    assert objective_f(np.array([1.0, 0.0]), SPOT) == pytest.approx(3.0, abs=1e-12)
    assert balance_residual(np.array([1.0, 0.0]), SPOT) <= 1e-12
    # the interior point is a strict local minimum
    rng = np.random.default_rng(4)
    for _ in range(25):
        b = np.array([1.0, 0.0]) + rng.normal(scale=1e-3, size=2)
        assert objective_f(b, SPOT) >= 3.0 - 1e-15


def test_collapse_cases():
    # Q sits between O and P on one ray: the junction lands on Q
    inp = BifurcationInput(o=(0.0, 0.0), p=(2.0, 0.0), q=(1.0, 0.0),
                           m_p=0.5, m_q=0.5, alpha=0.5)
    res = solve_two_targets(inp)
    assert res.case is BranchCase.COLLAPSE_TO_Q
    assert np.allclose(res.b_star, inp.q, atol=1e-12)
    want = 1.0 ** 0.5 * 1.0 + 0.5 ** 0.5 * 1.0
    assert res.cost == pytest.approx(want, abs=1e-12)

    swapped = BifurcationInput(o=(0.0, 0.0), p=(1.0, 0.0), q=(2.0, 0.0),
                               m_p=0.5, m_q=0.5, alpha=0.5)
    res = solve_two_targets(swapped)
    assert res.case is BranchCase.COLLAPSE_TO_P
    assert np.allclose(res.b_star, swapped.p, atol=1e-12)


def test_v_shape_wide_angle():
    inp = BifurcationInput(o=(0.0, 0.0), p=(-1.0, 2.0), q=(1.0, -2.0),
                           m_p=0.5, m_q=0.5, alpha=0.5)
    res = solve_two_targets(inp)
    assert res.case is BranchCase.V_SHAPE_AT_SOURCE
    assert np.allclose(res.b_star, inp.o, atol=1e-12)
    want = math.sqrt(0.5) * math.sqrt(5.0) * 2.0
    assert res.cost == pytest.approx(want, abs=1e-12)


def test_alpha_one_always_v():
    rng = np.random.default_rng(5)
    for _ in range(50):
        o, p, q = rng.uniform(-1.0, 1.0, size=(3, 2))
        inp = BifurcationInput(o=o, p=p, q=q, m_p=rng.uniform(0.1, 1.0),
                               m_q=rng.uniform(0.1, 1.0), alpha=1.0)
        res = solve_two_targets(inp)
        assert res.case is BranchCase.V_SHAPE_AT_SOURCE
        want = inp.m_p * np.linalg.norm(p - o) + inp.m_q * np.linalg.norm(q - o)
        assert res.cost == pytest.approx(float(want), abs=1e-12)


def test_swap_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(25):
        o, p, q = rng.uniform(-1.0, 1.0, size=(3, 2))
        m_p, m_q = rng.uniform(0.1, 1.0, size=2)
        a = solve_two_targets(BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=0.6))
        b = solve_two_targets(BifurcationInput(o=o, p=q, q=p, m_p=m_q, m_q=m_p, alpha=0.6))
        assert a.cost == pytest.approx(b.cost, rel=1e-12)
        assert np.allclose(a.b_star, b.b_star, atol=1e-9)


def test_three_dimensional_interior():
    inp = BifurcationInput(o=(0.0, 0.0, 0.0), p=(2.0, 1.0, 0.5), q=(2.0, -1.0, -0.5),
                           m_p=0.5, m_q=0.5, alpha=0.5)
    res = solve_two_targets(inp)
    assert res.case is BranchCase.INTERIOR_Y
    assert balance_residual(res.b_star, inp) <= 1e-8
    # realized geometry matches the optimal angles
    t1, t2, t3 = branch_angles(inp.m_p, inp.m_q, inp.m_o, inp.alpha)
    b = np.asarray(res.b_star)
    u_o = (inp.o - b) / np.linalg.norm(inp.o - b)
    u_p = (inp.p - b) / np.linalg.norm(inp.p - b)
    u_q = (inp.q - b) / np.linalg.norm(inp.q - b)
    assert math.acos(float(np.clip(np.dot(u_o, u_p), -1, 1))) == pytest.approx(t1, abs=1e-8)
    assert math.acos(float(np.clip(np.dot(u_o, u_q), -1, 1))) == pytest.approx(t2, abs=1e-8)
    assert math.acos(float(np.clip(np.dot(u_p, u_q), -1, 1))) == pytest.approx(t3, abs=1e-8)


def test_input_validation():
    with pytest.raises(ValueError):
        BifurcationInput(o=(0.0, 0.0), p=(1.0, 0.0), q=(0.0, 1.0),
                         m_p=0.5, m_q=0.5, alpha=0.0)
    with pytest.raises(ValueError):
        BifurcationInput(o=(0.0, 0.0), p=(1.0, 0.0), q=(0.0, 1.0),
                         m_p=-0.5, m_q=0.5, alpha=0.5)
    with pytest.raises(ValueError):
        BifurcationInput(o=(0.0, 0.0), p=(1.0, 0.0, 0.0), q=(0.0, 1.0),
                         m_p=0.5, m_q=0.5, alpha=0.5)
    with pytest.raises(ValueError):
        BifurcationInput(o=(0.0, 0.0), p=(1.0, 0.0), q=(0.0, 1.0),
                         m_p=0.5, m_q=0.5, alpha=1.5)


@pytest.mark.parametrize("field, value", [
    ("m_p", math.nan),           # gave cost nan
    ("m_q", math.inf),           # raised ZeroDivisionError
    ("p", (math.inf, 1.0)),      # raised DegenerateInputError: targets coincide
    ("q", (2.0, math.nan)),      # gave cost nan
    ("alpha", math.nan),
])
def test_non_finite_input_rejected(field, value):
    fields = {"o": SPOT.o, "p": SPOT.p, "q": SPOT.q, "m_p": SPOT.m_p, "m_q": SPOT.m_q,
              "alpha": SPOT.alpha, field: value}
    with pytest.raises(ValueError) as err:
        solve_two_targets(BifurcationInput(**fields))
    assert not isinstance(err.value, DegenerateInputError)


@pytest.mark.parametrize("m_p, m_q", [(1e-300, 1.0), (1.0, 1e-300)])
def test_underflowing_mass_ratio_takes_the_limit_angles(m_p, m_q):
    """(m/m_o)**(2 alpha) underflows to 0 for a branch of mass 1e-300: the
    angles are then their limit as that branch vanishes, and the junction
    still matches the grid oracle.  These used to divide by zero."""
    t_small, t_big = (math.pi / 2.0, math.pi) if m_p < m_q else (math.pi, math.pi / 2.0)
    assert branch_angles(m_p, m_q, m_p + m_q, 0.9) == (t_small, t_big, math.pi / 2.0)
    for o, p, q in [((0.0, 0.0), (2.0, 1.0), (2.0, -1.0)),
                    ((0.0, 0.0), (1.0, 3.0), (4.0, 0.0)),
                    ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (3.0, -1.0, 0.5))]:
        inp = BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=0.9)
        res = solve_two_targets(inp)
        _, grid_cost = grid_minimize_f(inp)
        assert res.cost == pytest.approx(grid_cost, rel=1e-12)


def test_mass_terms_memo_bounded_and_transparent():
    """More distinct mass splits than the memo holds: it never grows past its
    size, and every answer, hit or miss, is the fresh computation."""
    rng = np.random.default_rng(8)
    keys = [(*rng.uniform(0.01, 2.0, size=2).tolist(), float(rng.uniform(0.05, 1.0)))
            for _ in range(MASS_TERMS_CACHE + 200)]
    keys += [(0.5, 0.5, 1.0), (3, 1, 0.5)]
    hits = _mass_terms.cache_info().hits
    for m_p, m_q, alpha in keys + keys[-300:]:  # the repeats are hits
        m_o = m_p + m_q
        t1, t2, t3 = branch_angles(m_p, m_q, m_o, alpha)
        halves = ((math.cos(t1) / math.sin(t1)) / 2.0, (math.cos(t2) / math.sin(t2)) / 2.0)
        want = ((t1, t2, t3), halves, m_o ** alpha, m_p ** alpha, m_q ** alpha)
        assert _mass_terms(m_p, m_q, alpha) == want
        assert _mass_terms.cache_info().currsize <= MASS_TERMS_CACHE
    assert _mass_terms.cache_info().hits - hits >= 300
    assert _mass_terms.cache_info().maxsize == MASS_TERMS_CACHE
    # a numpy split is a key of its own, so its terms stay numpy floats
    assert type(_mass_terms(0.25, 0.75, 0.5)[2]) is float
    assert type(_mass_terms(np.float64(0.25), np.float64(0.75), 0.5)[2]) is np.float64
