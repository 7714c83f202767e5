"""Correctness checks for every output the benchmark produces.

A network output must re-import, validate structurally, balance against its
instance within 1e-9 * mass with no missing atom, carry a JSON cost equal to
the recomputed cost, and cost no more than the star network, both up to
summation-order rounding (an optimum can be the star itself).  On the
certify workload the oracle must also be at least as good as the solver,
and the closed-form bifurcation must match the grid search.
"""
from __future__ import annotations

import json

import numpy as np

from branchflow.bifurcation import objective_f
from branchflow.construct import build_star
from branchflow.instances import import_network

from pb_workloads import Case, OpOutput

ORACLE_SLACK = 1e-6     # oracle cost <= solver cost * (1 + this)
HIT_SLACK = 1e-3        # solver "hits" the optimum when within this share
CLOSED_FORM_SLACK = 1e-6  # closed form - grid <= this * scale
COST_ROUNDING = 1e-12   # costs summed over the same edges in another order


def star_cost(case: Case) -> float:
    net = build_star(case.source, case.source_mass, case.target_measure(), case.alpha)
    return net.cost_m_alpha(case.alpha)


def check_network(blob: bytes, case: Case, star: float, label: str):
    """Returns (cost, vertex count, problems) for one network JSON output."""
    problems = []
    net, alpha = import_network(blob)
    doc = json.loads(blob)
    if alpha != case.alpha:
        problems.append(f"{label}: alpha {alpha} != instance alpha {case.alpha}")
    problems += [f"{label}: {p}" for p in net.validate_structure()]
    report = net.check_balance(case.source_measure(), case.target_measure())
    if report.missing:
        problems.append(f"{label}: {len(report.missing)} atoms have no vertex")
    if not report.is_balanced(1e-9 * case.source_mass):
        problems.append(f"{label}: balance residual {report.max_abs():.3e}")
    cost = float(doc["cost"])
    recomputed = net.cost_m_alpha(alpha)
    if abs(cost - recomputed) > COST_ROUNDING * abs(recomputed):
        problems.append(f"{label}: JSON cost {cost!r} != recomputed {recomputed!r}")
    if not cost <= star * (1.0 + COST_ROUNDING):
        problems.append(f"{label}: cost {cost!r} exceeds the star cost {star!r}")
    return cost, net.n_vertices(), problems


def check_op(case: Case, out: OpOutput) -> tuple[list[str], dict]:
    """All checks for one operation; returns (problems, measured facts)."""
    problems: list[str] = []
    facts: dict = {}
    star = star_cost(case)
    if out.solve_rc != 0:
        return [f"solve exited {out.solve_rc}"], facts
    cost, vertices, found = check_network(out.solve_json.read_bytes(), case, star, "solve")
    problems += found
    facts.update(cost_ratio=cost / star, vertices=vertices)
    if not out.solve_stdout.startswith(f"cost={cost!r} "):
        problems.append(f"solve summary line {out.solve_stdout.strip()!r} disagrees with JSON")
    if out.svg is not None:
        svg = out.svg.read_bytes()
        if b"<svg" not in svg or not svg.rstrip().endswith(b"</svg>"):
            problems.append("solve SVG is not a complete <svg> document")
    if out.oracle_rc is not None:
        if out.oracle_rc != 0:
            return problems + [f"oracle exited {out.oracle_rc}"], facts
        ref, _, found = check_network(out.oracle_json.read_bytes(), case, star, "oracle")
        problems += found
        if ref > cost * (1.0 + ORACLE_SLACK):
            problems.append(f"oracle cost {ref!r} exceeds solver cost {cost!r}")
        facts["oracle_hit"] = cost <= ref * (1.0 + HIT_SLACK)
    for inp, (res, (_, grid_val)) in zip(case.pairs, out.pair_results):
        scale = float(np.linalg.norm(inp.p - inp.o) + np.linalg.norm(inp.q - inp.o)) \
            * inp.m_o ** inp.alpha
        gap = objective_f(res.b_star, inp) - grid_val
        if gap > CLOSED_FORM_SLACK * scale:
            problems.append(f"closed form exceeds the grid minimum by {gap / scale:.2e} * scale")
    return problems, facts
