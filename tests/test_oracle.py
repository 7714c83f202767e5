"""Unit tests for the exhaustive small-instance reference solver."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from branchflow import oracle
from branchflow.bifurcation import BifurcationInput, objective_f, solve_two_targets
from branchflow.construct import plan_cost
from branchflow.errors import InputError
from branchflow.instances import export_network
from branchflow.measures import AtomicMeasure
from branchflow.network import TransportNetwork
from branchflow.oracle import _plan, enumerate_optimal, grid_minimize_f, topologies

ROOT = Path(__file__).resolve().parents[1]


def test_topology_counts():
    for n, want in ((1, 1), (2, 1), (3, 3), (4, 15)):
        shapes = list(topologies(n))
        assert len(shapes) == want, n
        assert len(set(map(repr, shapes))) == want  # all distinct


def test_grid_minimize_matches_closed_form():
    rng = np.random.default_rng(16)
    hits = 0
    while hits < 40:
        o, p, q = rng.uniform(-1.0, 1.0, size=(3, 2))
        m_p, m_q = rng.uniform(0.1, 1.0, size=2)
        inp = BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q,
                               alpha=float(rng.uniform(0.2, 0.95)))
        scale = float(np.linalg.norm(p - o) + np.linalg.norm(q - o))
        if scale < 1e-2:
            continue
        ref = solve_two_targets(inp)
        _, val = grid_minimize_f(inp)
        tol = 1e-6 * scale * inp.m_o ** inp.alpha
        assert abs(val - ref.cost) <= tol
        hits += 1


def test_grid_minimize_matches_closed_form_in_3d():
    rng = np.random.default_rng(20)
    hits = 0
    while hits < 20:
        o, p, q = rng.uniform(-1.0, 1.0, size=(3, 3))
        m_p, m_q = rng.uniform(0.1, 1.0, size=2)
        inp = BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q,
                               alpha=float(rng.uniform(0.2, 0.95)))
        scale = float(np.linalg.norm(p - o) + np.linalg.norm(q - o))
        if scale < 1e-2:
            continue
        ref = solve_two_targets(inp)
        b, val = grid_minimize_f(inp)
        assert b.shape == (3,)
        tol = 1e-6 * scale * inp.m_o ** inp.alpha
        assert abs(val - ref.cost) <= tol
        hits += 1


def test_grid_minimize_never_calls_the_closed_form(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the grid oracle reached the closed form")

    monkeypatch.setattr("branchflow.bifurcation.solve_two_targets", forbidden)
    monkeypatch.setattr("branchflow.oracle.solve_two_targets", forbidden)
    monkeypatch.setattr("branchflow.bifurcation.branch_point", forbidden)
    monkeypatch.setattr("branchflow.oracle.branch_point", forbidden)
    inp = BifurcationInput(o=(0.0, 0.0), p=(2.0, 1.0), q=(2.0, -1.0),
                           m_p=0.5, m_q=0.5, alpha=0.5)
    b, val = grid_minimize_f(inp)
    assert val == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(b, [1.0, 0.0], atol=1e-6)


def test_grid_minimize_shares_no_state_between_calls():
    inp = BifurcationInput(o=(0.1, -0.2), p=(1.3, 0.9), q=(0.4, -1.1),
                           m_p=0.3, m_q=0.8, alpha=0.6)
    b, val = grid_minimize_f(inp)
    kept = b.copy()
    b[:] = -1e9
    again, val_again = grid_minimize_f(inp)
    assert val_again == val
    assert np.array_equal(again, kept)


def test_grid_minimize_degenerate_collinear():
    # exactly collinear corners, each of O, P, Q in the middle once, in 2-d
    # and 3-d, and a triangle with O = P; the grid and the stencil cover the
    # segment like any other triangle
    line2 = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    line3 = ((0.5, -1.0, 2.0), (1.5, 1.0, 0.0), (3.5, 5.0, -4.0))
    triangles = [(a, b, c) for line in (line2, line3)
                 for a, b, c in ((line[1], line[0], line[2]),
                                 (line[0], line[1], line[2]),
                                 (line[0], line[2], line[1]))]
    triangles.append(((0.3, 0.4), (0.3, 0.4), (1.3, -0.6)))
    for o, p, q in triangles:
        for m_p, m_q, alpha in ((0.5, 0.5, 0.5), (0.2, 0.9, 0.3)):
            inp = BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=alpha)
            b, val = grid_minimize_f(inp)
            ref = solve_two_targets(inp)
            ends = max(((u, v) for u in (o, p, q) for v in (o, p, q)),
                       key=lambda uv: math.dist(*uv))
            scale = math.dist(*ends)
            # 1e-7 * scale, and never looser than the absolute 1e-7 of the
            # first input's old check
            assert abs(val - ref.cost) <= 1e-7 * min(scale, 1.0), (o, p, q)
            assert objective_f(b, inp) == pytest.approx(val, rel=1e-12)
            # b lies on the segment between the two farthest corners
            a, c = np.asarray(ends[0]), np.asarray(ends[1])
            t = float(np.dot(b - a, c - a)) / scale ** 2
            assert -1e-12 <= t <= 1.0 + 1e-12
            assert np.linalg.norm(b - (a + t * (c - a))) <= 1e-12 * scale


def test_plan_of_a_balanced_shape():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [6.0, 8.0]])
    masses = np.array([1.0, 2.0, 4.0, 8.0])
    junctions, edges = _plan(((0, 1), (2, 3)), points, masses)
    # junctions in preorder: the root's junction 5, then 6 over (0, 1) and
    # 7 over (2, 3), each at the midpoint of its children's starts
    assert [tuple(j) for j in junctions] == [(2.0, 3.0), (1.0, 0.0), (3.0, 6.0)]
    assert edges == [(0, 5, 15.0), (5, 6, 3.0), (6, 1, 1.0), (6, 2, 2.0),
                     (5, 7, 12.0), (7, 3, 4.0), (7, 4, 8.0)]


def test_plan_flow_balances_for_every_shape():
    rng = np.random.default_rng(21)
    for n in range(1, 5):
        points = rng.uniform(0.0, 1.0, size=(n, 2))
        masses = rng.uniform(0.1, 1.0, size=n)
        for shape in topologies(n):
            junctions, edges = _plan(shape, points, masses)
            assert len(junctions) == max(n - 1, 0)
            inflow = {c: w for _, c, w in edges}
            outflow: dict[int, list[float]] = {}
            for p, c, w in edges:
                outflow.setdefault(p, []).append(w)
            assert sorted(inflow) == list(range(1, 2 * n))
            for j in range(n + 1, 2 * n):
                assert len(outflow[j]) == 2
                assert inflow[j] == outflow[j][0] + outflow[j][1]
            assert len(outflow[0]) == 1
            assert outflow[0][0] == pytest.approx(float(masses.sum()), rel=1e-15)


def test_enumerate_optimal_two_targets_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        o = rng.uniform(-1.0, 1.0, size=2)
        pts = rng.uniform(-1.0, 1.0, size=(2, 2))
        ms = rng.uniform(0.1, 1.0, size=2)
        alpha = float(rng.uniform(0.3, 0.95))
        src = AtomicMeasure([o], [float(ms.sum())])
        tg = AtomicMeasure(pts, ms)
        inp = BifurcationInput(o=o, p=pts[0], q=pts[1], m_p=float(ms[0]),
                               m_q=float(ms[1]), alpha=alpha)
        ref = solve_two_targets(inp)
        net, cost = enumerate_optimal(src, tg, alpha)
        scale = float(np.linalg.norm(pts[0] - o) + np.linalg.norm(pts[1] - o))
        assert abs(cost - ref.cost) <= 1e-7 * scale * inp.m_o ** alpha
        assert net.cost_m_alpha(alpha) == pytest.approx(cost, rel=1e-9)


def test_enumerate_optimal_spot_instance():
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    tg = AtomicMeasure([[2.0, 1.0], [2.0, -1.0]], [0.5, 0.5])
    net, cost = enumerate_optimal(src, tg, 0.5)
    assert cost == pytest.approx(3.0, abs=1e-7)
    helpers = [v for v in net.vertices() if v != net.root and not net.is_terminal(v)]
    assert len(helpers) == 1
    assert np.allclose(net.point(helpers[0]), [1.0, 0.0], atol=1e-5)


def test_enumerate_optimal_never_beats_star_or_loses_to_it():
    rng = np.random.default_rng(18)
    for k in (3, 4):
        for _ in range(8):
            o = rng.uniform(0.0, 1.0, size=2)
            pts = rng.uniform(0.0, 1.0, size=(k, 2))
            ms = rng.uniform(0.1, 1.0, size=k)
            alpha = float(rng.uniform(0.4, 0.9))
            src = AtomicMeasure([o], [float(ms.sum())])
            tg = AtomicMeasure(pts, ms)
            net, cost = enumerate_optimal(src, tg, alpha)
            star = sum(m ** alpha * float(np.linalg.norm(p - o)) for p, m in tg.atoms())
            assert cost <= star * (1.0 + 1e-9)
            assert net.validate_structure() == []
            rep = net.check_balance(src, tg)
            assert rep.max_abs() <= 1e-6 * float(ms.sum())


def test_enumerate_optimal_alpha_one_is_star():
    rng = np.random.default_rng(19)
    pts = rng.uniform(0.0, 1.0, size=(3, 2))
    ms = rng.uniform(0.1, 1.0, size=3)
    o = np.zeros(2)
    src = AtomicMeasure([o], [float(ms.sum())])
    net, cost = enumerate_optimal(src, AtomicMeasure(pts, ms), 1.0)
    want = sum(m * float(np.linalg.norm(p - o)) for p, m in AtomicMeasure(pts, ms).atoms())
    assert cost == pytest.approx(want, abs=1e-9)


def test_enumerate_optimal_input_limits():
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    five = AtomicMeasure(np.arange(10.0).reshape(5, 2), np.full(5, 0.2))
    with pytest.raises(InputError):
        enumerate_optimal(src, five, 0.5)
    two_src = AtomicMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    tg = AtomicMeasure([[2.0, 2.0]], [1.0])
    with pytest.raises(InputError):
        enumerate_optimal(two_src, tg, 0.5)


def _lbfgs_smooth_min(points: list, edges, first: int, alpha: float,
                      above: float = math.inf) -> bool:
    """The junction placement the oracle used before its Newton kernel:
    scipy's L-BFGS-B on the same smoothed objective and delta schedule,
    with the scale floored at 1e-9.  Kept as a reference; it ignores above
    and places every plan."""
    free = len(points) - first
    if not free:
        return True
    terms = [(p - first, points[p], c - first, points[c], w ** alpha)
             for p, c, w in edges]
    scale = max(float(np.ptp(np.vstack(points[:first]), axis=0).max()), 1e-9)

    def value_and_grad(x: np.ndarray, delta: float):
        pts = x.reshape(free, -1)
        val = 0.0
        grad = np.zeros_like(pts)
        for i, a, j, b, coef in terms:
            diff = (pts[i] if i >= 0 else a) - (pts[j] if j >= 0 else b)
            r = math.sqrt(float(np.dot(diff, diff)) + delta * delta)
            val += coef * r
            g = coef * diff / r
            if i >= 0:
                grad[i] += g
            if j >= 0:
                grad[j] -= g
        return val, grad.ravel()

    x = np.concatenate(points[first:])
    for delta in (1e-2 * scale, 1e-4 * scale, 1e-6 * scale, 1e-9 * scale):
        res = minimize(value_and_grad, x, args=(delta,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12})
        x = res.x
    points[first:] = x.reshape(free, -1)
    return True


def _random_instance(rng, k: int, d: int, scale: float = 1.0):
    pts = rng.uniform(size=(k, d)) * scale
    src = rng.uniform(size=d) * scale
    ms = rng.uniform(0.5, 1.5, size=k)
    ms /= ms.sum()
    return AtomicMeasure([src], [1.0]), AtomicMeasure(pts, ms)


def test_smoothed_system_matches_finite_differences():
    rng = np.random.default_rng(31)
    h = 1e-6
    for k, d in ((2, 2), (3, 3), (4, 2), (4, 4)):
        src, tg = _random_instance(rng, k, d)
        alpha = float(rng.uniform(0.3, 0.95))
        shape = list(topologies(k))[-1]
        junctions, edges = _plan(shape, tg.points, tg.masses)
        first = k + 1
        fixed = [tuple(p) for p in (src.points[0], *tg.points)]
        terms = oracle._edge_terms(fixed, edges, first, alpha)
        pts = [(j + rng.normal(scale=0.05, size=d)).tolist() for j in junctions]
        n = len(pts) * d
        for delta in (0.1, 0.01):
            value, grad, hess, drift = oracle._smoothed_system(terms, pts, delta, d)
            assert value == pytest.approx(oracle._smoothed_value(terms, pts, delta), rel=1e-15)

            def shifted(c: int, e: float) -> list:
                flat = [x for row in pts for x in row]
                flat[c] += e
                return [flat[r * d:(r + 1) * d] for r in range(len(pts))]

            for c in range(n):
                up, down = shifted(c, h), shifted(c, -h)
                fd = (oracle._smoothed_value(terms, up, delta)
                      - oracle._smoothed_value(terms, down, delta)) / (2 * h)
                assert fd == pytest.approx(grad[c], abs=1e-7)
                g_up = oracle._smoothed_system(terms, up, delta, d)[1]
                g_down = oracle._smoothed_system(terms, down, delta, d)[1]
                top = max(map(abs, hess[c]))
                for r in range(n):
                    assert hess[r][c] == pytest.approx(hess[c][r], rel=1e-14)
                    fd = (g_up[r] - g_down[r]) / (2 * h)
                    assert fd == pytest.approx(hess[r][c], abs=1e-6 * top)
            g_up = oracle._smoothed_system(terms, pts, delta + h * delta, d)[1]
            g_down = oracle._smoothed_system(terms, pts, delta - h * delta, d)[1]
            for c in range(n):
                fd = (g_up[c] - g_down[c]) / (2 * h * delta)
                assert fd == pytest.approx(drift[c], abs=1e-6 * max(map(abs, drift)))


def test_newton_placement_is_no_worse_than_lbfgs(monkeypatch):
    rng = np.random.default_rng(32)
    for k in (2, 3, 4):
        for d in (2, 3, 4):
            for scale in (1e-8, 1.0, 1e8):
                src, tg = _random_instance(rng, k, d, scale)
                alpha = float(rng.uniform(0.3, 0.95))
                _, got = enumerate_optimal(src, tg, alpha)
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_joint_smooth_min", _lbfgs_smooth_min)
                    _, ref = enumerate_optimal(src, tg, alpha)
                assert got <= ref * (1.0 + 1e-12), (k, d, scale, got, ref)


def test_stage_floor_never_exceeds_the_placed_cost(monkeypatch):
    # every stage's floor bounds the plan's cost after placement and the
    # polish, on every topology, whatever the instance's scale; so does
    # the floor taken where a stage starts, far from its minimizer
    rng = np.random.default_rng(33)
    newton_stage = oracle._newton_stage
    for k in (3, 4):
        for d in (2, 3, 4):
            for scale in (1e-8, 1.0, 1e8):
                src, tg = _random_instance(rng, k, d, scale)
                alpha = float(rng.uniform(0.3, 1.0))
                first = k + 1
                for shape in topologies(k):
                    junctions, edges = _plan(shape, tg.points, tg.masses)
                    points = [src.points[0], *tg.points, *junctions]
                    stages = []

                    def recording(terms, pts, delta, d):
                        out = newton_stage(terms, pts, delta, d)
                        start = oracle._smoothed_system(terms, pts, delta, d)
                        stages.append((terms, delta, pts, start[:2], out))
                        return out

                    monkeypatch.setattr(oracle, "_newton_stage", recording)
                    assert oracle._joint_smooth_min(points, edges, first, alpha)
                    oracle._descend(points, edges, first, alpha)
                    cost = plan_cost(points, edges, alpha)
                    e = math.frexp(oracle._scale(points, first))[1]
                    fixed = [tuple(math.ldexp(x, -e) for x in pt) for pt in points[:first]]
                    assert len(stages) == len(oracle.SMOOTHING)
                    floors = []
                    for terms, delta, start, (f0, g0), (end, f1, g1, _, _) in stages:
                        floors += [oracle._stage_floor(fixed, terms, start, f0, g0, delta, e),
                                   oracle._stage_floor(fixed, terms, end, f1, g1, delta, e)]
                    for floor in floors:
                        assert floor <= cost, (k, d, scale, shape, floors, cost)
                    # and the last stage ends close enough to cut losing plans
                    assert floors[-1] >= 0.99 * cost, (k, d, scale, shape, floors, cost)


def _collinear_instance(rng, k: int, d: int):
    """Source and targets on one coordinate axis at distinct integer
    offsets, with masses in eighths: every cost is exact, so at alpha = 1
    topologies tie to the last bit."""
    axis = int(rng.integers(d))
    base = rng.integers(-3, 4, size=d).astype(float)
    offsets = rng.choice([t for t in range(-4, 5) if t], size=k, replace=False)
    pts = [base + float(t) * np.eye(d)[axis] for t in offsets]
    cuts = np.sort(rng.choice(np.arange(1, 8), size=k - 1, replace=False))
    ms = np.diff(np.concatenate([[0], cuts, [8]])) / 8.0
    return AtomicMeasure([base], [1.0]), AtomicMeasure(pts, ms)


def _mirrored_instance(rng, d: int):
    """Three targets, the first on the source's axis and the other two
    mirror images across it: the two topologies that pair the first target
    with one of the others place their junctions in mirrored arithmetic, so
    they tie to the last bit in different networks."""
    axis = [float(rng.uniform(0.2, 2.0))] + [0.0] * (d - 1)
    off = rng.uniform(0.2, 3.0, size=d).tolist()
    pts = [axis, off, off[:-1] + [-off[-1]]]
    m = float(rng.uniform(0.1, 0.8))
    return (AtomicMeasure([[0.0] * d], [1.0]),
            AtomicMeasure(pts, [m, (1.0 - m) / 2.0, (1.0 - m) / 2.0]))


def test_pruning_leaves_the_oracle_output_unchanged(monkeypatch):
    # the floor only skips plans that cannot win, and an exact tie goes to
    # the first topology in enumeration order, as when every plan is placed
    place = oracle._joint_smooth_min

    def unpruned(points, edges, first, alpha, above=math.inf):
        return place(points, edges, first, alpha)

    rng = np.random.default_rng(34)
    cases = []
    for i in range(120):
        k = (2, 3, 4, 4)[i % 4]
        d = (2, 3)[i % 5 == 0]
        alpha = 1.0 if i % 6 == 0 else float(rng.uniform(0.3, 1.0))
        if i % 3 == 0:
            src, tg = _collinear_instance(rng, k, d)
        elif i % 3 == 1:
            src, tg = _mirrored_instance(rng, d)
        else:
            src, tg = _random_instance(rng, k, d, float(rng.choice([1e-8, 1.0, 1e8])))
        cases.append((src, tg, alpha))
    for src, tg, alpha in cases:
        got = export_network(enumerate_optimal(src, tg, alpha)[0], alpha)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_joint_smooth_min", unpruned)
            want = export_network(enumerate_optimal(src, tg, alpha)[0], alpha)
        assert got == want, (tg.points, alpha)


def test_an_exact_tie_goes_to_the_first_topology():
    # mirror images: shapes 1 and 2 pair the axis target with one of the
    # mirrored ones, tie to the last bit as the cheapest and end in
    # different networks; the oracle keeps the first in enumeration order
    src, pts, ms, alpha = (0.0, 0.0), [(1.6, 0.0), (2.5, 1.6), (2.5, -1.6)], [0.3, 0.35, 0.35], 0.35
    placed = []
    for shape in topologies(3):
        junctions, edges = _plan(shape, pts, ms)
        points = [src, *pts, *junctions]
        assert oracle._joint_smooth_min(points, edges, 4, alpha)
        oracle._descend(points, edges, 4, alpha)
        net = TransportNetwork(src, 1.0)
        net.wire([net.root] + [net.add_vertex(pt, terminal=True) for pt in pts],
                 points[4:], edges)
        net.canonicalize()
        placed.append((plan_cost(points, edges, alpha), export_network(net, alpha)))
    assert placed[1][0] == placed[2][0] < placed[0][0]
    assert placed[1][1] != placed[2][1]
    net, _ = enumerate_optimal(AtomicMeasure([src], [1.0]), AtomicMeasure(pts, ms), alpha)
    assert export_network(net, alpha) == placed[1][1]


def test_descent_tolerance_scales_with_the_instance(caplog):
    # a k = 4, d = 3 instance whose descent ran into the pass cap at 1e8 and
    # stopped 6.7e-7 above the optimum at 1e-8 while the tolerance was
    # absolute
    src, tg = _random_instance(np.random.default_rng(17), 4, 3)
    alpha = 0.75
    _, unit = enumerate_optimal(src, tg, alpha)
    for s in (1e8, 1e-8):
        caplog.clear()
        scaled_src = AtomicMeasure(np.multiply(src.points, s), src.masses)
        scaled_tg = AtomicMeasure(np.multiply(tg.points, s), tg.masses)
        _, cost = enumerate_optimal(scaled_src, scaled_tg, alpha)
        assert not [r for r in caplog.records if "pass cap" in r.getMessage()], s
        assert cost == pytest.approx(unit * s, rel=1e-9), s


def test_importing_the_package_leaves_scipy_optimize_out():
    code = ("import sys, branchflow; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
