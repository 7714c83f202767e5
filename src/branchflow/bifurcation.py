"""Closed-form optimal bifurcation for one source feeding two targets.

Mass m_o = m_p + m_q leaves the source O; m_p must reach P and m_q must
reach Q.  A candidate layout routes everything to a branch point B and splits
there, costing

    f(B) = m_o**a * |OB| + m_p**a * |BP| + m_q**a * |BQ|,    a = alpha.

f is convex (a sum of weighted norms), so it has a global minimizer B*.
Writing k1 = (m_p/m_o)**(2a) and k2 = (m_q/m_o)**(2a), the force balance at
an interior minimizer fixes the three angles around B*:

    angle(O,B*,P) = t1 = arccos((k2 - k1 - 1) / (2 sqrt(k1)))
    angle(O,B*,Q) = t2 = arccos((k1 - k2 - 1) / (2 sqrt(k2)))
    angle(P,B*,Q) = t3 = arccos((1 - k1 - k2) / (2 sqrt(k1 k2)))

An interior minimizer exists iff the triangle angles at O, P, Q stay strictly
below t3, t2, t1 respectively.  Otherwise B* collapses onto a triangle vertex:
onto O (a plain V shape) when angle(P,O,Q) >= t3, else onto Q when
angle(O,Q,P) >= t1, else onto P when angle(O,P,Q) >= t2.

In the interior case B* is constructed from two circumcenters.  The chord OP
subtends the inscribed angle t1 at B*, so the center R of the circle through
O, B*, P sits at distance (cot t1 / 2)|OP| from the midpoint of OP, along the
perpendicular through the foot M of the altitude from Q.  Likewise S for the
chord OQ.  B* is then the reflection of O across the line RS (both circles
pass through O and B*).  All vectors live in the affine hull of O, P, Q, so
the same arithmetic covers any ambient dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInputError

_COINCIDENT_REL = 1e-12


class BranchCase(Enum):
    INTERIOR_Y = "InteriorY"
    V_SHAPE_AT_SOURCE = "VShapeAtO"
    COLLAPSE_TO_P = "CollapseToP"
    COLLAPSE_TO_Q = "CollapseToQ"


@dataclass(frozen=True)
class BifurcationInput:
    o: np.ndarray
    p: np.ndarray
    q: np.ndarray
    m_p: float
    m_q: float
    alpha: float

    def __post_init__(self):
        for name in ("o", "p", "q"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.p.shape != self.o.shape or self.q.shape != self.o.shape:
            raise ValueError("O, P, Q must share one dimension")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.m_p <= 0 or self.m_q <= 0:
            raise ValueError("branch masses must be positive")

    @property
    def m_o(self) -> float:
        return self.m_p + self.m_q


@dataclass(frozen=True)
class BifurcationResult:
    case: BranchCase
    b_star: np.ndarray
    cost: float
    angles: tuple[float, float, float]


def _norm(v: np.ndarray) -> float:
    return float(math.sqrt(float(np.dot(v, v))))


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two vectors, stable near 0 and pi."""
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = float(np.dot(u, v))
    cross_sq = max(nu * nu * nv * nv - dot * dot, 0.0)
    return math.atan2(math.sqrt(cross_sq), dot)


def _clamped_acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


def branch_angles(m_p: float, m_q: float, m_o: float, alpha: float) -> tuple[float, float, float]:
    """Optimal angles (t1, t2, t3) at an interior branch point.

    At alpha = 1 the algebra collapses to (pi, pi, 0) exactly: branching never
    pays and the V shape is always optimal.
    """
    if alpha == 1.0:
        return (math.pi, math.pi, 0.0)
    k1 = (m_p / m_o) ** (2.0 * alpha)
    k2 = (m_q / m_o) ** (2.0 * alpha)
    t1 = _clamped_acos((k2 - k1 - 1.0) / (2.0 * math.sqrt(k1)))
    t2 = _clamped_acos((k1 - k2 - 1.0) / (2.0 * math.sqrt(k2)))
    t3 = _clamped_acos((1.0 - k1 - k2) / (2.0 * math.sqrt(k1 * k2)))
    return (t1, t2, t3)


def objective_f(b, inp: BifurcationInput) -> float:
    """Branching cost f(B) for an arbitrary branch point B."""
    b = np.asarray(b, dtype=float)
    return (
        inp.m_o ** inp.alpha * _norm(b - inp.o)
        + inp.m_p ** inp.alpha * _norm(inp.p - b)
        + inp.m_q ** inp.alpha * _norm(inp.q - b)
    )


def _objective_batch(bs: np.ndarray, inp: BifurcationInput) -> np.ndarray:
    """f evaluated on an (n, d) batch of branch points."""
    d_o = np.sqrt(np.sum((bs - inp.o) ** 2, axis=1))
    d_p = np.sqrt(np.sum((bs - inp.p) ** 2, axis=1))
    d_q = np.sqrt(np.sum((bs - inp.q) ** 2, axis=1))
    a = inp.alpha
    return inp.m_o ** a * d_o + inp.m_p ** a * d_p + inp.m_q ** a * d_q


def balance_residual(b, inp: BifurcationInput) -> float:
    """Norm of the weighted unit-vector balance at B.

    At an interior optimum the three pulls cancel:
    m_o**a * u(B->O) + m_p**a * u(B->P) + m_q**a * u(B->Q) = 0.
    """
    b = np.asarray(b, dtype=float)
    total = np.zeros_like(b)
    for point, mass in ((inp.o, inp.m_o), (inp.p, inp.m_p), (inp.q, inp.m_q)):
        delta = point - b
        n = _norm(delta)
        if n == 0.0:
            return math.inf
        total = total + mass ** inp.alpha * delta / n
    return _norm(total)


def _closest_point_on_triangle(b, o, p, q):
    """Euclidean projection of b onto the closed triangle opq."""
    ab = p - o
    ac = q - o
    ap = b - o
    d1 = float(np.dot(ab, ap))
    d2 = float(np.dot(ac, ap))
    if d1 <= 0 and d2 <= 0:
        return o.copy()
    bp = b - p
    d3 = float(np.dot(ab, bp))
    d4 = float(np.dot(ac, bp))
    if d3 >= 0 and d4 <= d3:
        return p.copy()
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        t = d1 / (d1 - d3)
        return o + t * ab
    cp = b - q
    d5 = float(np.dot(ab, cp))
    d6 = float(np.dot(ac, cp))
    if d6 >= 0 and d5 <= d6:
        return q.copy()
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        t = d2 / (d2 - d6)
        return o + t * ac
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return p + t * (q - p)
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    return o + ab * v + ac * w


def solve_two_targets(inp: BifurcationInput) -> BifurcationResult:
    """Globally optimal branch point for a single bifurcation.

    Classifies the configuration against the optimal angles, then either
    returns a triangle vertex (degenerate cases) or builds the interior
    branch point from the circumcenter reflection construction.
    """
    o, p, q = inp.o, inp.p, inp.q
    op = p - o
    oq = q - o
    pq = q - p
    l_op = _norm(op)
    l_oq = _norm(oq)
    l_pq = _norm(pq)
    scale = max(l_op, l_oq, l_pq)
    angles = branch_angles(inp.m_p, inp.m_q, inp.m_o, inp.alpha)
    t1, t2, t3 = angles

    if scale == 0.0:
        # all three points coincide: nothing to transport anywhere
        return BifurcationResult(BranchCase.V_SHAPE_AT_SOURCE, o.copy(), 0.0, angles)
    if l_pq <= _COINCIDENT_REL * scale:
        raise DegenerateInputError("the two targets coincide")

    # a target sitting on the source absorbs the branch point
    if l_op <= _COINCIDENT_REL * scale or l_oq <= _COINCIDENT_REL * scale:
        b = o.copy()
        return BifurcationResult(BranchCase.V_SHAPE_AT_SOURCE, b, objective_f(b, inp), angles)

    ang_o = _angle(op, oq)
    if ang_o >= t3:
        b = o.copy()
        return BifurcationResult(BranchCase.V_SHAPE_AT_SOURCE, b, objective_f(b, inp), angles)
    ang_q = _angle(o - q, p - q)
    if ang_q >= t1:
        b = q.copy()
        return BifurcationResult(BranchCase.COLLAPSE_TO_Q, b, objective_f(b, inp), angles)
    ang_p = _angle(o - p, q - p)
    if ang_p >= t2:
        b = p.copy()
        return BifurcationResult(BranchCase.COLLAPSE_TO_P, b, objective_f(b, inp), angles)

    # interior branch point via circumcenters of the chords OP and OQ
    dot_pq = float(np.dot(op, oq))
    qm = (dot_pq / (l_op * l_op)) * op - oq  # foot of the altitude from Q, minus Q
    ph = (dot_pq / (l_oq * l_oq)) * oq - op
    n_qm = _norm(qm)
    n_ph = _norm(ph)
    cot1 = math.cos(t1) / math.sin(t1)
    cot2 = math.cos(t2) / math.sin(t2)
    r_center = (o + p) / 2.0 - (cot1 / 2.0) * (qm / n_qm) * l_op
    s_center = (o + q) / 2.0 - (cot2 / 2.0) * (ph / n_ph) * l_oq
    rs = s_center - r_center
    rs_sq = float(np.dot(rs, rs))
    if rs_sq <= (_COINCIDENT_REL * scale) ** 2:
        lam = 0.0  # concentric limit: reflect straight through the center
    else:
        lam = float(np.dot(o - r_center, rs)) / rs_sq
    b = 2.0 * ((1.0 - lam) * r_center + lam * s_center) - o

    if not np.all(np.isfinite(b)):
        b = _closest_point_on_triangle(np.nan_to_num(b), o, p, q)
    else:
        # guard: the reflection must land inside the closed triangle
        bar = _barycentric(b, o, p, q)
        if bar is not None and min(bar) < -1e-9:
            b = _closest_point_on_triangle(b, o, p, q)

    return BifurcationResult(BranchCase.INTERIOR_Y, b, objective_f(b, inp), angles)


def _barycentric(b, o, p, q):
    """Barycentric coordinates of b in triangle opq, None when degenerate."""
    v0 = p - o
    v1 = q - o
    v2 = b - o
    d00 = float(np.dot(v0, v0))
    d01 = float(np.dot(v0, v1))
    d11 = float(np.dot(v1, v1))
    d20 = float(np.dot(v2, v0))
    d21 = float(np.dot(v2, v1))
    denom = d00 * d11 - d01 * d01
    if denom <= 0.0:
        return None
    s = (d11 * d20 - d01 * d21) / denom
    t = (d00 * d21 - d01 * d20) / denom
    return (1.0 - s - t, s, t)


def advantage(inp: BifurcationInput) -> float:
    """Savings of the optimal bifurcation over the plain V shape,
    f(O) - f(B*); zero exactly when the V shape is already optimal."""
    result = solve_two_targets(inp)
    return objective_f(inp.o, inp) - result.cost
