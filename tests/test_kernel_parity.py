"""The float bifurcation kernel against a numpy reference of the same formulas.

`_reference` is the closed-form construction written with numpy vectors, as
the solver computed it before it moved to plain floats.  numpy may evaluate
`np.dot` on short vectors as a fused multiply-add chain, so the two agree up
to rounding, not bit for bit: the case must be the same and B* must agree
within 1e-12 of the triangle's size.

The float kernel adds one rule, applied by `_expected`: an interior point
that is not cheaper than the best corner gives way to that corner.  The old
formulas break that rule on slivers: with the two targets a factor 2 above
the coincidence threshold nearly every interior point they return costs
more than a corner, and there the construction is too ill-conditioned for
two roundings to agree on B*.

The reference keeps the old inside-the-triangle projection; the kernel has
none, and it still matches this reference within 1e-12 of the scale on all
10,400 inputs.

The solver calls the kernel `branch_point` on plain floats, with no checks;
`solve_two_targets` is the checked public entry around it, and the two must
agree bit for bit.  The checks themselves are tested in test_bifurcation.

branch_point sends d = 2 points to a planar body, d = 3 points to a 3-d
body and all others to the general one.  Each unpacked body must equal the
general body bit for bit, signed zeros included, on every input of its
dimension here and on edge cases of its own, and no other dimension may
enter it.
"""
import math

import numpy as np
import pytest

from branchflow import bifurcation
from branchflow.bifurcation import (
    _COINCIDENT_REL,
    BifurcationInput,
    BranchCase,
    branch_angles,
    branch_point,
    objective_f,
    solve_two_targets,
)
from branchflow.errors import DegenerateInputError


def _norm(v):
    return float(math.sqrt(float(np.dot(v, v))))


def _angle(u, v):
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = float(np.dot(u, v))
    return math.atan2(math.sqrt(max(nu * nu * nv * nv - dot * dot, 0.0)), dot)


def _closest_point_on_triangle(b, o, p, q):
    ab, ac, ap = p - o, q - o, b - o
    d1, d2 = float(np.dot(ab, ap)), float(np.dot(ac, ap))
    if d1 <= 0 and d2 <= 0:
        return o.copy()
    bp = b - p
    d3, d4 = float(np.dot(ab, bp)), float(np.dot(ac, bp))
    if d3 >= 0 and d4 <= d3:
        return p.copy()
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return o + d1 / (d1 - d3) * ab
    cp = b - q
    d5, d6 = float(np.dot(ab, cp)), float(np.dot(ac, cp))
    if d6 >= 0 and d5 <= d6:
        return q.copy()
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return o + d2 / (d2 - d6) * ac
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        return p + (d4 - d3) / ((d4 - d3) + (d5 - d6)) * (q - p)
    denom = va + vb + vc
    return o + ab * (vb / denom) + ac * (vc / denom)


def _barycentric(b, o, p, q):
    v0, v1, v2 = p - o, q - o, b - o
    d00, d01, d11 = float(np.dot(v0, v0)), float(np.dot(v0, v1)), float(np.dot(v1, v1))
    d20, d21 = float(np.dot(v2, v0)), float(np.dot(v2, v1))
    denom = d00 * d11 - d01 * d01
    if denom <= 0.0:
        return None
    s = (d11 * d20 - d01 * d21) / denom
    t = (d00 * d21 - d01 * d20) / denom
    return (1.0 - s - t, s, t)


def _reference(o, p, q, m_p, m_q, alpha):
    """(case, B*) by the numpy formulas; raises DegenerateInputError when
    the targets coincide."""
    o, p, q = (np.asarray(v, dtype=float) for v in (o, p, q))
    op, oq, pq = p - o, q - o, q - p
    l_op, l_oq, l_pq = _norm(op), _norm(oq), _norm(pq)
    scale = max(l_op, l_oq, l_pq)
    t1, t2, t3 = branch_angles(m_p, m_q, m_p + m_q, alpha)
    if scale == 0.0:
        return BranchCase.V_SHAPE_AT_SOURCE, o
    if l_pq <= _COINCIDENT_REL * scale:
        raise DegenerateInputError("the two targets coincide")
    if l_op <= _COINCIDENT_REL * scale or l_oq <= _COINCIDENT_REL * scale:
        return BranchCase.V_SHAPE_AT_SOURCE, o
    if _angle(op, oq) >= t3:
        return BranchCase.V_SHAPE_AT_SOURCE, o
    if _angle(o - q, p - q) >= t1:
        return BranchCase.COLLAPSE_TO_Q, q
    if _angle(o - p, q - p) >= t2:
        return BranchCase.COLLAPSE_TO_P, p
    dot_pq = float(np.dot(op, oq))
    qm = (dot_pq / (l_op * l_op)) * op - oq
    ph = (dot_pq / (l_oq * l_oq)) * oq - op
    cot1 = math.cos(t1) / math.sin(t1)
    cot2 = math.cos(t2) / math.sin(t2)
    r_center = (o + p) / 2.0 - (cot1 / 2.0) * (qm / _norm(qm)) * l_op
    s_center = (o + q) / 2.0 - (cot2 / 2.0) * (ph / _norm(ph)) * l_oq
    rs = s_center - r_center
    rs_sq = float(np.dot(rs, rs))
    lam = 0.0 if rs_sq <= (_COINCIDENT_REL * scale) ** 2 \
        else float(np.dot(o - r_center, rs)) / rs_sq
    b = 2.0 * ((1.0 - lam) * r_center + lam * s_center) - o
    assert np.all(np.isfinite(b)), "parity inputs must not break the construction"
    bar = _barycentric(b, o, p, q)
    if bar is not None and min(bar) < -1e-9:
        b = _closest_point_on_triangle(b, o, p, q)
    return BranchCase.INTERIOR_Y, b


def _expected(inp):
    """The reference (case, B*) under the best-corner rule."""
    case, b = _reference(inp.o, inp.p, inp.q, inp.m_p, inp.m_q, inp.alpha)
    if case is BranchCase.INTERIOR_Y:
        corners = ((BranchCase.V_SHAPE_AT_SOURCE, inp.o), (BranchCase.COLLAPSE_TO_Q, inp.q),
                   (BranchCase.COLLAPSE_TO_P, inp.p))
        best = min(corners, key=lambda c: objective_f(c[1], inp))
        if objective_f(b, inp) >= objective_f(best[1], inp):
            return best
    return case, b


def _inputs(n_per_kind=2600, seed=2024):
    """Seeded (o, p, q, m_p, m_q, alpha) tuples in d = 2-5: generic triangles,
    near-collinear ones, and a target or the other target within a factor 2
    of the coincidence threshold, at coordinate scales 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    out = []
    for kind in ("generic", "collinear", "on-source", "targets-close"):
        for _ in range(n_per_kind):
            d = int(rng.integers(2, 6))
            scale = 10.0 ** rng.uniform(-8.0, 8.0)
            o, p, q = rng.uniform(-1.0, 1.0, size=(3, d))
            if kind == "collinear":
                t = rng.uniform(-2.0, 2.0, size=2)
                noise = 10.0 ** rng.uniform(-12.0, -6.0)
                p = o + t[0] * (p - o) + noise * rng.normal(size=d)
                q = o + t[1] * (p - o) + noise * rng.normal(size=d)
            elif kind == "on-source":
                gap = _COINCIDENT_REL * rng.choice([0.5, 2.0]) * np.linalg.norm(q - o)
                u = rng.normal(size=d)
                p = o + gap * u / np.linalg.norm(u)
            elif kind == "targets-close":
                gap = _COINCIDENT_REL * rng.choice([0.5, 2.0]) * np.linalg.norm(q - o)
                u = rng.normal(size=d)
                p = q + gap * u / np.linalg.norm(u)
            m_p, m_q = (float(m) for m in rng.uniform(0.05, 2.0, size=2))
            alpha = 1.0 if rng.uniform() < 0.05 else float(rng.uniform(0.02, 1.0))
            out.append((tuple((scale * o).tolist()), tuple((scale * p).tolist()),
                        tuple((scale * q).tolist()), m_p, m_q, alpha))
    return out


def test_float_kernel_matches_numpy_reference():
    inputs = _inputs()
    assert len(inputs) >= 10_000
    cases = dict.fromkeys(BranchCase, 0)
    raised = 0
    for o, p, q, m_p, m_q, alpha in inputs:
        inp = BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=alpha)
        try:
            want_case, want_b = _expected(inp)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                solve_two_targets(inp)
            raised += 1
            continue
        res = solve_two_targets(inp)
        assert res.case is want_case, (o, p, q, m_p, m_q, alpha)
        cases[res.case] += 1
        scale = max(math.dist(o, p), math.dist(o, q), math.dist(p, q))
        gap = max(abs(a - b) for a, b in zip(res.b_star, want_b))
        assert gap <= 1e-12 * scale, (gap / scale, o, p, q, m_p, m_q, alpha)
        assert res.cost == pytest.approx(objective_f(res.b_star, inp), rel=1e-12, abs=0.0)
        assert res.v_cost == pytest.approx(objective_f(o, inp), rel=1e-12, abs=0.0)
        corner = min(res.v_cost, objective_f(p, inp), objective_f(q, inp))
        assert res.cost <= corner * (1.0 + 1e-12)
    assert raised >= 500
    assert min(cases.values()) >= 500, cases


def test_result_types_are_floats():
    inp = BifurcationInput(o=np.array([0.0, 0.0]), p=np.array([2.0, 1.0]),
                           q=np.array([2.0, -1.0]), m_p=0.5, m_q=0.5, alpha=0.5)
    res = solve_two_targets(inp)
    assert type(res.b_star) is tuple
    assert all(type(x) is float for x in res.b_star)
    assert type(res.cost) is float and type(res.v_cost) is float


def _exact(x):
    """A float as its hex digits, so -0.0 and 0.0 differ; an int as itself."""
    return x.hex() if type(x) is float else x


def _bits(case, b_star, cost, v_cost):
    return case, tuple(map(_exact, b_star)), _exact(cost), _exact(v_cost)


def _entries_agree(o, p, q, m_p, m_q, alpha):
    """Both entries on one input: the same four fields bit for bit, or
    DegenerateInputError from both.  Returns the case, or None."""
    inp = BifurcationInput(o=o, p=p, q=q, m_p=m_p, m_q=m_q, alpha=alpha)
    try:
        core = branch_point(o, p, q, m_p, m_q, alpha)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            solve_two_targets(inp)
        return None
    res = solve_two_targets(inp)
    assert _bits(*core) == _bits(res.case, res.b_star, res.cost, res.v_cost), inp
    return core[0]


def _edge_inputs(seed=77):
    """Per d = 2-5: generic triangles scaled by 2**-300, 1 and 2**300 (the
    first and last solved rescaled), at alpha 1 and below, plus on-source
    slivers a factor 2 above the coincidence threshold and coincident
    targets."""
    rng = np.random.default_rng(seed)
    out = []
    for d in range(2, 6):
        for _ in range(40):
            o, p, q = rng.uniform(-1.0, 1.0, size=(3, d))
            m_p, m_q = (float(m) for m in rng.uniform(0.05, 2.0, size=2))
            u = rng.normal(size=d)
            sliver = o + 2.0 * _COINCIDENT_REL * np.linalg.norm(q - o) * u / np.linalg.norm(u)
            for k in (-300, 0, 300):
                for alpha in (0.3, 0.75, 1.0):
                    for pp, qq in ((p, q), (sliver, q), (p, p)):
                        out.append((*(tuple(math.ldexp(x, k) for x in v.tolist())
                                      for v in (o, pp, qq)), m_p, m_q, alpha))
    return out


def test_kernel_and_public_entry_agree_bit_for_bit():
    cases = dict.fromkeys([*BranchCase, None], 0)
    for args in _inputs() + _edge_inputs():
        cases[_entries_agree(*args)] += 1
    assert min(cases.values()) >= 100, cases


def _planar_edge_inputs():
    """d = 2 inputs on the planar body's edges: the thin triangles of the
    sliver bug (ROADMAP item 4), which the planar body must reproduce;
    exactly collinear triangles in ints and in floats, each vertex in the
    middle once, and int triangles up to 2**50; signed zeros; longest sides
    at and around 2**+-199, 2**+-200 and 2**+-201, where the rescale starts;
    alpha 1; a mass ratio whose k1 or k2 underflows; and coincident
    targets."""
    out = []
    for e in range(2, 11):
        out.append(((0.0, 0.0), (10.0 ** e, 1.0), (10.0 ** e, -1.0), 0.5, 0.5, 0.5))
    masses = ((0.5, 0.5, 0.5), (0.2, 0.9, 0.75), (1.3, 0.4, 0.3))
    lines = (((0, 0), (1, 2), (3, 6)), ((-4, 1), (2, -2), (6, -4)), ((5, 0), (0, 0), (7, 0)))
    for line in lines:
        for a, b, c in ((line[1], line[0], line[2]), (line[0], line[1], line[2]),
                        (line[0], line[2], line[1])):
            for pts in ((a, b, c), tuple(tuple(map(float, v)) for v in (a, b, c))):
                out.extend((*pts, *m) for m in masses)
    # int coordinates up to 2**50: their dot products are exact ints, as in the int-start fold
    for pts in (((0, 0), (4, 1), (4, -1)), ((1, -3), (7, 2), (2, 5)), ((0, 0), (1, 1), (1, -1)),
                ((26550782, -975535001), (462327730, 662688057), (-996142360, 725107465)),
                ((-226919560720, 493219528485), (143783646368, -752944593814),
                 (733281284401, 229440554697)),
                ((1061431740058576, 197494261338107), (-1073742460419670, 3117174378896),
                 (958990063254059, 440832679753358))):
        out.extend((*pts, *m) for m in masses)
    # int triangles whose angle at Q, then at P, meets t1, then t2, where the
    # int-start fold and a 0.0-start fold of dot_q, then dot_p, part ways
    out.append(((32284514295880, 22375347396773), (115353124987729, 19537308404768),
                (67446005170911, 19585934236528), 163.0660783971254, 1.0, 0.5))
    out.append(((16341079192468, 11276062734858), (6559001083848, 6266363992275),
                (-5591995078405, -6031825364403), 0.10843672930496606, 1.0, 0.5))
    zeros = (0.0, -0.0)
    for shape in (((0.0, 0.0), (2.0, 1.0), (2.0, -1.0)), ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
                  ((1.0, 0.0), (0.0, 0.0), (0.0, 1.0))):
        for signs in range(64):  # bit 2i + j: the sign of coordinate j of point i, if zero
            pts = tuple(tuple(x or zeros[signs >> (2 * i + j) & 1] for j, x in enumerate(v))
                        for i, v in enumerate(shape))
            out.extend((*pts, *m) for m in masses)
    shapes = (((0.0, 0.0), (1.0, 0.0), (0.5, 0.25)), ((0.5, -2.0), (0.0, 0.0), (0.5, 0.0)),
              ((0.0, 0.0), (0.5, 0.5), (0.5, -0.5)))
    for k in (-201, -200, -199, 199, 200, 201):
        for factor in (1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52):
            s = math.ldexp(factor, k)
            for o, p, q in shapes:
                pts = tuple(tuple(s * x for x in v) for v in (o, p, q))
                out.extend((*pts, *m) for m in masses)
    for o, p, q in (((0.0, 0.0), (2.0, 1.0), (2.0, -1.0)), ((0.3, 0.1), (1.7, 0.4), (0.2, 1.9))):
        out.append((o, p, q, 0.4, 0.7, 1.0))
        out.append((o, p, q, 1e-300, 1.0, 0.9))
        out.append((o, p, q, 1.0, 1e-300, 0.9))
        out.append((o, p, p, 0.4, 0.7, 0.5))
        out.append((o, q, q, 0.4, 0.7, 1.0))
    return out


def _3d_edge_inputs():
    """d = 3 inputs on the 3-d body's edges, after _planar_edge_inputs: the
    sliver-bug triangles laid in the tilted plane spanned by (1, 2, 2) and
    (2, 1, -2); exactly collinear triangles in ints and in floats, each
    vertex in the middle once, and int triangles up to 2**50; every sign
    placement on the zero coordinates of three shapes; longest sides at and
    around 2**+-199, 2**+-200 and 2**+-201; alpha 1; a mass ratio whose k1 or
    k2 underflows; and coincident targets."""
    out = []
    for e in range(2, 11):
        length = 10.0 ** e
        out.append(((0.0, 0.0, 0.0), (length + 2.0, 2.0 * length + 1.0, 2.0 * length - 2.0),
                    (length - 2.0, 2.0 * length - 1.0, 2.0 * length + 2.0), 0.5, 0.5, 0.5))
    masses = ((0.5, 0.5, 0.5), (0.2, 0.9, 0.75), (1.3, 0.4, 0.3))
    lines = (((0, 0, 0), (1, 2, 3), (3, 6, 9)), ((-4, 1, 2), (2, -2, 5), (8, -5, 8)),
             ((5, 0, 0), (0, 0, 0), (7, 0, 0)))
    for line in lines:
        for a, b, c in ((line[1], line[0], line[2]), (line[0], line[1], line[2]),
                        (line[0], line[2], line[1])):
            for pts in ((a, b, c), tuple(tuple(map(float, v)) for v in (a, b, c))):
                out.extend((*pts, *m) for m in masses)
    # int coordinates up to 2**50: their dot products are exact ints, as in the int-start fold
    for pts in (((0, 0, 0), (4, 1, 2), (4, -1, -2)), ((1, -3, 2), (7, 2, -1), (2, 5, 3)),
                ((23460385, -841377920, 509211430), (-621508874, 300512398, 994830272),
                 (730419811, 642135517, -164382205)),
                ((-413675284136, 820371853218, 97430118426),
                 (652006914275, -350271650829, -784230551038),
                 (-10487532981, 293746018275, 711924839201)),
                ((1117920638273648, -402317264013375, 771034285591129),
                 (-985124077013872, 1042917355268841, -6630419825377),
                 (345871992011583, 919482616000137, -1103387102288462))):
        out.extend((*pts, *m) for m in masses)
    # int triangles whose angle at Q, then at P, meets t1, then t2, where the
    # int-start fold and a 0.0-start fold of dot_q, then dot_p, part ways
    out.append(((4204985708912, 6978704986765, -8118060264798),
                (-102220472398, 8076448974620, 11454275965384),
                (3046572173929, 7938176840862, 508936910947), 31.655387272080514, 1.0, 0.5))
    out.append(((116365555202809, 3521457834430, 35888228803012),
                (130038495259304, -77250529300656, -23778036577570),
                (166298743619490, -98435571420756, -34119570883563), 1.409158397227169, 1.0, 0.5))
    zeros = (0.0, -0.0)
    for shape in (((0.0, 0.0, 0.0), (2.0, 1.0, 0.0), (2.0, -1.0, 0.0)),
                  ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
                  ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 0.5))):
        at = [(i, j) for i, v in enumerate(shape) for j, x in enumerate(v) if x == 0.0]
        for signs in range(2 ** len(at)):  # bit n: the sign of the n-th zero coordinate
            pts = [list(v) for v in shape]
            for n, (i, j) in enumerate(at):
                pts[i][j] = zeros[signs >> n & 1]
            out.extend((*map(tuple, pts), *m) for m in masses)
    shapes = (((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.25, 0.125)),
              ((0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.5, -0.5)),
              ((0.25, -1.0, 0.5), (0.0, 0.0, 0.0), (0.25, 0.0, 0.5)))
    for k in (-201, -200, -199, 199, 200, 201):
        for factor in (1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52):
            s = math.ldexp(factor, k)
            for o, p, q in shapes:
                pts = tuple(tuple(s * x for x in v) for v in (o, p, q))
                out.extend((*pts, *m) for m in masses)
    for o, p, q in (((0.0, 0.0, 0.0), (2.0, 1.0, 0.5), (2.0, -1.0, -0.5)),
                    ((0.3, 0.1, -0.2), (1.7, 0.4, 0.9), (0.2, 1.9, -1.1))):
        out.append((o, p, q, 0.4, 0.7, 1.0))
        out.append((o, p, q, 1e-300, 1.0, 0.9))
        out.append((o, p, q, 1.0, 1e-300, 0.9))
        out.append((o, p, p, 0.4, 0.7, 0.5))
        out.append((o, q, q, 0.4, 0.7, 1.0))
    return out


# (dimension, the unpacked body branch_point sends it to)
UNPACKED_BODIES = ((2, "_branch_point_planar"), (3, "_branch_point_3d"))
_OWN_EDGE_INPUTS = {2: _planar_edge_inputs, 3: _3d_edge_inputs}


def _outcome(body, args):
    """The body's four fields as _bits, or DegenerateInputError."""
    try:
        return _bits(*body(*args))
    except DegenerateInputError:
        return DegenerateInputError


def _inputs_of_dimension(d):
    """Every input of dimension d here: the shared ones, then the body's own edges."""
    return [a for a in _inputs() + _edge_inputs() if len(a[0]) == d] + _OWN_EDGE_INPUTS[d]()


@pytest.mark.parametrize("d, name", UNPACKED_BODIES)
def test_unpacked_body_matches_general_body_bit_for_bit(monkeypatch, d, name):
    """branch_point sends every input of dimension d to its unpacked body,
    and its four fields equal the general body's bit for bit, signed zeros
    included (both raise on coincident targets).  The general side runs with
    branch_point bound to the general body, so its rescale never reaches the
    unpacked one.  sum() rounds floats differently across Python versions
    (from 3.12 it compensates), so the bodies fold dot products by hand;
    shadowed here by the correctly rounded fsum, a sum() in a body fails
    this test on any version."""
    monkeypatch.setattr(bifurcation, "sum", lambda terms, start=0: math.fsum((start, *terms)),
                        raising=False)
    inputs = _inputs_of_dimension(d)
    body = getattr(bifurcation, name)
    entered = []

    def counted(*args):
        entered.append(args)
        return body(*args)

    monkeypatch.setattr(bifurcation, name, counted)
    got = []
    for args in inputs:
        del entered[:]
        got.append(_outcome(branch_point, args))
        assert entered[:1] == [args]
    monkeypatch.setattr(bifurcation, "branch_point", bifurcation._branch_point_general)
    want = [_outcome(bifurcation._branch_point_general, args) for args in inputs]
    mismatched = [(args, g, w) for args, g, w in zip(inputs, got, want) if g != w]
    assert not mismatched, (len(mismatched), mismatched[:3])
    cases = {w if w is DegenerateInputError else w[0] for w in want}
    assert cases == {*BranchCase, DegenerateInputError}


@pytest.mark.parametrize("d", sorted(_OWN_EDGE_INPUTS))
def test_unpacked_body_returns_the_callers_corner_objects(d):
    """A corner B*, from an angle test, the best-corner fallback or the
    rescale, is the caller's own o, p or q object."""
    seen = set()
    for o, p, q, m_p, m_q, alpha in _inputs_of_dimension(d):
        try:
            case, b_star, _, _ = branch_point(o, p, q, m_p, m_q, alpha)
        except DegenerateInputError:
            continue
        corner = {BranchCase.V_SHAPE_AT_SOURCE: o, BranchCase.COLLAPSE_TO_P: p,
                  BranchCase.COLLAPSE_TO_Q: q}.get(case)
        assert corner is None or b_star is corner
        seen.add(case)
    assert seen == set(BranchCase)


def test_each_dimension_enters_only_its_own_unpacked_body(monkeypatch):
    """d = 2 never enters the 3-d body nor d = 3 the planar one, rescale
    included, and d = 4-5 enters neither unpacked body."""
    for d, name in UNPACKED_BODIES:
        def guarded(*args, d=d, body=getattr(bifurcation, name)):
            if len(args[0]) != d:
                raise AssertionError(f"a d = {len(args[0])} input reached the d = {d} body")
            return body(*args)

        monkeypatch.setattr(bifurcation, name, guarded)
    seen = dict.fromkeys(range(2, 6), 0)
    for args in _inputs() + _edge_inputs():
        _outcome(branch_point, args)
        seen[len(args[0])] += 1
    assert min(seen.values()) >= 3_000, seen
