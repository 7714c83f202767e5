"""Acceptance suite: ten end-to-end checks at pinned tolerances.

Each test prints one summary line (visible under pytest -s) and asserts the
property it names.  Randomness is seeded so every run checks the same cases.
"""
import json
import math
import time

import numpy as np
import pytest

from branchflow import cli
from branchflow.bifurcation import (
    BifurcationInput,
    BranchCase,
    branch_angles,
    objective_f,
    solve_two_targets,
)
from branchflow.config import cost_tolerance
from branchflow.construct import build_subdivision
from branchflow.instances import generate_points
from branchflow.measures import AtomicMeasure, diameter
from branchflow.optimize_global import global_optimize, rewire
from branchflow.oracle import enumerate_optimal, grid_minimize_f
from reference import balance_residual, predicted_gain


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS ({detail})")


def _random_two_target(rng):
    while True:
        o, p, q = rng.uniform(-1.0, 1.0, size=(3, 2))
        gaps = (np.linalg.norm(p - o), np.linalg.norm(q - o), np.linalg.norm(q - p))
        if min(gaps) >= 1e-3:
            return o, p, q


def test_criterion_01_two_target_exactness():
    """Closed form vs grid search on 1000 planar inputs per alpha, < 10 s."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    interior = 0
    worst_gap = -math.inf
    worst_residual = 0.0
    worst_angle = 0.0
    for alpha in (0.25, 0.5, 0.75, 0.95, 1.0):
        for _ in range(1000):
            o, p, q = _random_two_target(rng)
            m_p, m_q = rng.uniform(0.1, 1.0, size=2)
            inp = BifurcationInput(o=o, p=p, q=q, m_p=float(m_p), m_q=float(m_q),
                                   alpha=alpha)
            res = solve_two_targets(inp)
            _, grid_val = grid_minimize_f(inp)
            scale = float(np.linalg.norm(p - o) + np.linalg.norm(q - o)) * inp.m_o ** alpha
            gap = objective_f(res.b_star, inp) - grid_val
            worst_gap = max(worst_gap, gap / scale)
            assert gap <= 1e-6 * scale

            if res.case is BranchCase.INTERIOR_Y:
                interior += 1
                r = balance_residual(res.b_star, inp)
                worst_residual = max(worst_residual, r)
                assert r <= 1e-8
                t1, t2, t3 = branch_angles(inp.m_p, inp.m_q, inp.m_o, alpha)
                b = res.b_star
                u_o = (o - b) / np.linalg.norm(o - b)
                u_p = (p - b) / np.linalg.norm(p - b)
                u_q = (q - b) / np.linalg.norm(q - b)
                seen = (
                    math.acos(float(np.clip(np.dot(u_o, u_p), -1.0, 1.0))),
                    math.acos(float(np.clip(np.dot(u_o, u_q), -1.0, 1.0))),
                    math.acos(float(np.clip(np.dot(u_p, u_q), -1.0, 1.0))),
                )
                err = max(abs(seen[0] - t1), abs(seen[1] - t2), abs(seen[2] - t3))
                worst_angle = max(worst_angle, err)
                assert err <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"5000 cases, {interior} interior, worst gap/scale {worst_gap:.2e}, "
               f"worst residual {worst_residual:.2e}, worst angle {worst_angle:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_02_spot_values():
    """The symmetric half-mass instance hits its known solution exactly."""
    inp = BifurcationInput(o=(0.0, 0.0), p=(2.0, 1.0), q=(2.0, -1.0),
                           m_p=0.5, m_q=0.5, alpha=0.5)
    res = solve_two_targets(inp)
    assert np.allclose(res.b_star, [1.0, 0.0], atol=1e-8)
    assert res.cost == pytest.approx(3.0, abs=1e-9)
    adv = res.v_cost - res.cost
    assert adv == pytest.approx(math.sqrt(10.0) - 3.0, abs=1e-9)
    _report(2, f"b*=({res.b_star[0]:.10f},{res.b_star[1]:.10f}), "
               f"cost={res.cost:.12f}, advantage={adv:.12f}")


def test_criterion_03_alpha_one_degeneration():
    """At alpha = 1 every junction is a V and the pipeline returns the star."""
    rng = np.random.default_rng(43)
    for _ in range(200):
        o, p, q = _random_two_target(rng)
        m_p, m_q = rng.uniform(0.1, 1.0, size=2)
        res = solve_two_targets(BifurcationInput(o=o, p=p, q=q, m_p=float(m_p),
                                                 m_q=float(m_q), alpha=1.0))
        assert res.case is BranchCase.V_SHAPE_AT_SOURCE

    worst = 0.0
    for k in (20, 50):
        pts = rng.uniform(0.0, 1.0, size=(k, 2))
        ms = rng.uniform(0.5, 1.5, size=k)
        ms /= ms.sum()
        src_pt = rng.uniform(0.0, 1.0, size=2)
        net = global_optimize(AtomicMeasure([src_pt], [1.0]),
                              AtomicMeasure(pts, ms), 1.0)
        assert net.n_edges() == k
        assert all(net.parent(v) == net.root for v in net.vertices() if v != net.root)
        want = sum(float(m) * float(np.linalg.norm(p - src_pt))
                   for p, m in zip(pts, ms))
        worst = max(worst, abs(net.cost_m_alpha(1.0) - want))
        assert net.cost_m_alpha(1.0) == pytest.approx(want, abs=1e-9)
    _report(3, f"200 V-shape cases, star networks exact to {worst:.2e}")


def test_criterion_04_conservation_at_every_stage(recorder):
    """Balance, acyclicity and positive weights hold after every stage:
    init, every sweep, subdivision, reparent pass and rollback, and final."""
    rng = np.random.default_rng(44)
    stages_seen = 0
    worst_residual = 0.0
    for alpha in (0.5, 0.75):
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        ms = rng.uniform(0.5, 1.5, size=100)
        ms /= ms.sum()
        tg = AtomicMeasure(pts, ms)
        src_pt = rng.uniform(0.0, 1.0, size=2)
        src = AtomicMeasure([src_pt], [1.0])
        checks = []

        def inspect(stage, net):
            rep = net.check_balance(src, tg)
            problems = net.validate_structure()
            weights_ok = all(w > 0.0 for _, _, w in net.edges())
            reach = len(net.bfs_order()) == net.n_vertices()
            checks.append((stage, rep.max_abs(), problems, weights_ok, reach))

        recorder.solve(src, tg, alpha, inspect=inspect)
        assert checks and checks[0][0] == "init" and checks[-1][0] == "final"
        for stage, residual, problems, weights_ok, reach in checks:
            assert residual <= 1e-9 * 1.0, (stage, residual)
            assert problems == [], (stage, problems)
            assert weights_ok and reach, stage
            worst_residual = max(worst_residual, residual)
        stages_seen += len(checks)
    _report(4, f"{stages_seen} stage checkpoints, worst residual {worst_residual:.2e}")


def test_criterion_05_monotone_cost_sequence(recorder):
    """Recorded costs never increase; accepted moves beat the threshold.

    Every before/after pair the recorder takes is a full fresh cost
    evaluation of the network, so this checks the moves themselves, not
    running totals."""
    rng = np.random.default_rng(45)
    moves_checked = 0
    for alpha in (0.5, 0.75, 0.9):
        pts = rng.uniform(0.0, 1.0, size=(30, 2))
        ms = rng.uniform(0.5, 1.5, size=30)
        ms /= ms.sum()
        tg = AtomicMeasure(pts, ms)
        src_pt = rng.uniform(0.0, 1.0, size=2)
        src = AtomicMeasure([src_pt], [1.0])
        eps_f = cost_tolerance(diameter(np.vstack([[src_pt], pts])), 1.0, alpha)
        net = recorder.solve(src, tg, alpha)
        trace = recorder.events
        # chronological network costs: moves record their own before/after,
        # checkpoints the cost at that point
        seq = [trace[0][2]]
        for stage, _, before, after in trace:
            if stage in ("local", "reparent"):
                assert before - after > eps_f, (stage, before - after, eps_f)
                moves_checked += 1
            seq.append(after)
        assert all(seq[i] >= seq[i + 1] - 1e-12 for i in range(len(seq) - 1))
        assert trace[-1][0] == "final"
        assert net.cost_m_alpha(alpha) == pytest.approx(trace[-1][3], rel=1e-12)
    _report(5, f"{moves_checked} accepted moves all beat eps_f; sequences non-increasing")


def test_criterion_06_oracle_equivalence_small_n():
    """Pipeline vs exhaustive optimum on 200 small instances, < 2 min."""
    rng = np.random.default_rng(1207)
    t0 = time.perf_counter()
    hits = 0
    min_margin = math.inf
    for trial in range(200):
        k = int(rng.integers(2, 5))
        alpha = 0.5 if trial % 2 == 0 else 0.75
        pts = rng.uniform(0.0, 1.0, size=(k, 2))
        src_pt = rng.uniform(0.0, 1.0, size=2)
        tg = AtomicMeasure(pts, np.full(k, 1.0 / k))
        src = AtomicMeasure([src_pt], [1.0])
        got = global_optimize(src, tg, alpha).cost_m_alpha(alpha)
        _, ref = enumerate_optimal(src, tg, alpha)
        if got <= ref * (1.0 + 1e-3):
            hits += 1
        min_margin = min(min_margin, got - ref)
        assert got >= ref - 1e-6 * ref, (trial, got, ref)
    elapsed = time.perf_counter() - t0
    assert hits >= 190, hits
    assert elapsed < 120.0
    _report(6, f"{hits}/200 within 0.1%, min(got-ref) {min_margin:.1e}, {elapsed:.0f}s")


def test_criterion_07_subdivision_degree_bound():
    """The initializer respects the cell fan-out bound in d = 2 and d = 3."""
    rng = np.random.default_rng(46)
    results = []
    for d, cap in ((2, 9), (3, 8)):
        for _ in range(3):
            pts = rng.uniform(0.0, 1.0, size=(100, d))
            ms = rng.uniform(0.5, 1.5, size=100)
            ms /= ms.sum()
            src_pt = rng.uniform(0.0, 1.0, size=d)
            net = build_subdivision(src_pt, 1.0, AtomicMeasure(pts, ms), 0.6)
            top = max(net.degree(v) for v in net.vertices())
            assert top <= cap, (d, top)
            results.append((d, top))
    _report(7, "max degree " + ", ".join(f"d={d}:{t}" for d, t in results))


def test_criterion_08_potential_bookkeeping():
    """Predicted reparent gains equal directly recomputed cost deltas."""
    rng = np.random.default_rng(47)
    checked = 0
    worst = 0.0
    while checked < 500:
        k = int(rng.integers(10, 40))
        alpha = float(rng.uniform(0.3, 0.95))
        pts = rng.uniform(0.0, 1.0, size=(k, 2))
        ms = rng.uniform(0.5, 1.5, size=k)
        ms /= ms.sum()
        net = build_subdivision(rng.uniform(0.0, 1.0, size=2), 1.0,
                                AtomicMeasure(pts, ms), alpha)
        ids = net.vertices()
        for _ in range(25):
            if checked >= 500:
                break
            u, v = (int(x) for x in rng.choice(ids, size=2, replace=False))
            if u == net.root or net.parent(u) is None or v == net.parent(u):
                continue
            if net.is_descendant(v, u):
                continue
            gain = predicted_gain(net, u, v, alpha)
            trial = net.copy()
            before = trial.cost_m_alpha(alpha)
            rewire(trial, u, v)
            delta = before - trial.cost_m_alpha(alpha)
            worst = max(worst, abs(gain - delta))
            assert abs(gain - delta) <= 1e-9, (u, v, gain, delta)
            checked += 1
    _report(8, f"500 rewires, worst |predicted - direct| {worst:.1e}")


def test_criterion_09_cli_determinism(tmp_path, capsys):
    """Two solve runs with one seed produce byte-identical JSON and SVG."""
    doc = {
        "alpha": 0.65,
        "source": {"point": [0.0, 0.0], "mass": 1.0},
        "generator": {"kind": "uniform-square", "count": 30},
        "seed": 11,
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    blobs = []
    for run in (1, 2):
        oj = tmp_path / f"run{run}.json"
        osvg = tmp_path / f"run{run}.svg"
        code = cli.main(["solve", "--input", str(inst),
                         "--out-json", str(oj), "--out-svg", str(osvg)])
        capsys.readouterr()
        assert code == 0
        blobs.append((oj.read_bytes(), osvg.read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    _report(9, f"JSON {len(blobs[0][0])} bytes and SVG {len(blobs[0][1])} bytes identical")


def _branch_points(net):
    """Vertices where the drawn network forks.

    A target that passes flow onward draws as a junction plus a leaf at one
    position, so it contributes its vertex degree plus one; with that exact
    convention a pure chain target (one child) counts as degree 3."""
    total = 0
    for v in net.vertices():
        deg = net.degree(v)
        if v != net.root and net.is_terminal(v) and net.children(v):
            deg += 1
        if deg >= 3:
            total += 1
    return total


def test_criterion_10_branching_declines_with_alpha():
    """One 50-point instance branches monotonically less as alpha -> 1."""
    pts = generate_points("uniform-square", 50, None, seed=1)
    tg = AtomicMeasure(pts, np.full(50, 1.0 / 50))
    src = AtomicMeasure([[0.0, 0.0]], [1.0])
    counts = []
    raw = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        net = global_optimize(src, tg, alpha)
        counts.append(_branch_points(net))
        raw.append(sum(1 for v in net.vertices() if net.degree(v) >= 3))
    assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1)), counts
    assert counts[-1] == 1  # alpha = 1: single fan out of the source
    _report(10, f"branch points {counts} (vertex degrees alone: {raw})")

