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
the same arithmetic covers any ambient dimension.  If the construction breaks
down, or its point costs no less than the best corner, the best corner is
returned: f is convex, so no interior point dearer than a corner is kept.

branch_point, the kernel, takes tuples of floats and checks nothing: the
solver and the oracle's descent call it, and solve_two_targets wraps it for
outside callers behind BifurcationInput, which rejects NaN and infinite
masses and coordinates.  A triangle whose longest side is outside 2**+-200
is solved scaled by an exact power of two, so that the products of four
lengths in the angle tests neither underflow nor overflow.

branch_point has three bodies.  Points with two coordinates take
_branch_point_planar, three coordinates _branch_point_3d, and every other
dimension _branch_point_general, whose map/zip/fold steps work in any
dimension.  The two unpacked bodies perform the general body's float
operations one by one, in the same order, on unpacked coordinates, so each
agrees with it bit for bit, signed zeros included: a dot product is the left
fold 0 + x0*y0 + x1*y1 (+ x2*y2), which the general body spells
reduce(add, map(mul, ...), 0) (its int start turns a -0.0 sum into 0.0, and
int coordinates sum as ints); lengths stay math.dist and math.hypot; there
is no fused multiply-add and no reassociation.  The fold is not sum(): from
Python 3.12 on, sum() compensates its float additions, which changes the
last bit of some three-term dot products and would tie the kernel's output
to the interpreter's version.  A triangle that needs the rescale, or whose
points all coincide, goes from an unpacked body to the general body, whose
rescale re-enters branch_point on the scaled copy.  Unpacked, a call skips
the per-dimension map and zip plumbing and takes about half the general
body's time.  The general body stays: it serves d >= 4, and the tests hold
both unpacked bodies to it.

The mass terms, the optimal angles, the halves cot(t1)/2 and cot(t2)/2 and
the weights m_o**a, m_p**a and m_q**a, depend on (m_p, m_q, alpha) alone and
come from _mass_terms, an lru_cache of MASS_TERMS_CACHE = 512 entries.  In
n = 30 solves the key repeats on 95% of calls with equal target masses and
84% with random ones in the plane (97% and 88% in 3-d), and one such solve
meets at most 252 distinct keys, so the bound holds them with room to spare.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from operator import add, itemgetter, mul, sub

from .errors import DegenerateInputError

_COINCIDENT_REL = 1e-12
MASS_TERMS_CACHE = 512  # entries of the _mass_terms memo


class BranchCase(Enum):
    INTERIOR_Y = "InteriorY"
    V_SHAPE_AT_SOURCE = "VShapeAtO"
    COLLAPSE_TO_P = "CollapseToP"
    COLLAPSE_TO_Q = "CollapseToQ"


@dataclass(frozen=True)
class BifurcationInput:
    """One bifurcation.  The points are kept as given: the solver passes
    tuples of floats, and numpy arrays or lists work as well."""

    o: tuple
    p: tuple
    q: tuple
    m_p: float
    m_q: float
    alpha: float

    def __post_init__(self):
        if not len(self.o) == len(self.p) == len(self.q):
            raise ValueError("O, P, Q must share one dimension")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        # NaN fails every comparison; an infinite or overflowing m_o fails the last
        if not (0.0 < self.m_p and 0.0 < self.m_q and self.m_p + self.m_q < math.inf):
            raise ValueError("branch masses must be positive and finite")
        if not all(map(math.isfinite, (*self.o, *self.p, *self.q))):
            raise ValueError("O, P, Q must have finite coordinates")

    @property
    def m_o(self) -> float:
        return self.m_p + self.m_q


@dataclass(frozen=True)
class BifurcationResult:
    """The optimal branch point B*, its cost f(B*), and v_cost = f(O), the
    cost of the plain V shape."""

    case: BranchCase
    b_star: tuple
    cost: float
    v_cost: float


def _floats(v) -> tuple:
    """v as a tuple of floats; a tuple passes through as it is."""
    return v if type(v) is tuple else tuple(map(float, v))


def _clamped_acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


def branch_angles(m_p: float, m_q: float, m_o: float, alpha: float) -> tuple[float, float, float]:
    """Optimal angles (t1, t2, t3) at an interior branch point.

    At alpha = 1 the algebra collapses to (pi, pi, 0) exactly: branching never
    pays and the V shape is always optimal.  When k1 or k2 underflows to 0,
    the angles are their limit as that branch's mass vanishes: the other
    branch runs straight on from O and the vanishing one leaves it at a
    right angle.
    """
    if alpha == 1.0:
        return (math.pi, math.pi, 0.0)
    k1 = (m_p / m_o) ** (2.0 * alpha)
    k2 = (m_q / m_o) ** (2.0 * alpha)
    if k1 == 0.0:
        return (math.pi / 2.0, math.pi, math.pi / 2.0)
    if k2 == 0.0:
        return (math.pi, math.pi / 2.0, math.pi / 2.0)
    t1 = _clamped_acos((k2 - k1 - 1.0) / (2.0 * math.sqrt(k1)))
    t2 = _clamped_acos((k1 - k2 - 1.0) / (2.0 * math.sqrt(k2)))
    t3 = _clamped_acos((1.0 - k1 - k2) / (2.0 * math.sqrt(k1 * k2)))
    return (t1, t2, t3)


@lru_cache(maxsize=MASS_TERMS_CACHE, typed=True)
def _mass_terms(m_p: float, m_q: float, alpha: float):
    """(branch_angles, (cot t1 / 2, cot t2 / 2), m_o**a, m_p**a, m_q**a), memoized;
    typed=True keeps an int or numpy mass from serving a float key."""
    m_o = m_p + m_q
    t1, t2, t3 = branch_angles(m_p, m_q, m_o, alpha)
    try:
        halves = ((math.cos(t1) / math.sin(t1)) / 2.0, (math.cos(t2) / math.sin(t2)) / 2.0)
    except ZeroDivisionError:  # a zero sine: nan makes B* non-finite, so a corner wins
        halves = (math.nan, math.nan)
    return (t1, t2, t3), halves, m_o ** alpha, m_p ** alpha, m_q ** alpha


def objective_f(b, inp: BifurcationInput) -> float:
    """Branching cost f(B) for an arbitrary branch point B."""
    a = inp.alpha
    return (
        inp.m_o ** a * math.dist(b, inp.o)
        + inp.m_p ** a * math.dist(inp.p, b)
        + inp.m_q ** a * math.dist(inp.q, b)
    )


def solve_two_targets(inp: BifurcationInput) -> BifurcationResult:
    """Globally optimal branch point for a single bifurcation."""
    return BifurcationResult(*branch_point(_floats(inp.o), _floats(inp.p), _floats(inp.q),
                                           inp.m_p, inp.m_q, inp.alpha))


def branch_point(o: tuple, p: tuple, q: tuple, m_p: float, m_q: float, alpha: float) -> tuple:
    """(case, b_star, cost, v_cost) for unchecked float tuples, masses and
    alpha: classifies the triangle against the optimal angles, then returns
    a vertex or builds the interior branch point by circumcenter reflection.
    Points with two coordinates take the planar body, three the 3-d body and
    all others the general one; each unpacked body agrees bit for bit with
    the general one in its dimension."""
    d = len(o)
    if d == 2:
        return _branch_point_planar(o, p, q, m_p, m_q, alpha)
    if d == 3:
        return _branch_point_3d(o, p, q, m_p, m_q, alpha)
    return _branch_point_general(o, p, q, m_p, m_q, alpha)


def _branch_point_general(o: tuple, p: tuple, q: tuple, m_p: float, m_q: float,
                          alpha: float) -> tuple:
    """branch_point in any dimension, one map/zip/fold per vector step."""
    l_op = math.dist(o, p)
    l_oq = math.dist(o, q)
    l_pq = math.dist(p, q)
    scale = max(l_op, l_oq, l_pq)
    k = math.frexp(scale)[1]
    if not -200 < k < 200:  # solve scaled by 2**-k, exactly; a corner B* is the point given
        case, b, cost, v_cost = branch_point(
            *(tuple(math.ldexp(x, -k) for x in v) for v in (o, p, q)), m_p, m_q, alpha)
        b = {BranchCase.V_SHAPE_AT_SOURCE: o, BranchCase.COLLAPSE_TO_P: p,
             BranchCase.COLLAPSE_TO_Q: q}.get(case) or tuple(math.ldexp(x, k) for x in b)
        return case, b, math.ldexp(cost, k), math.ldexp(v_cost, k)

    if scale == 0.0:
        # all three points coincide: nothing to transport anywhere
        return BranchCase.V_SHAPE_AT_SOURCE, o, 0.0, 0.0
    tol = _COINCIDENT_REL * scale
    if l_pq <= tol:
        raise DegenerateInputError("the two targets coincide")

    (t1, t2, t3), (h1, h2), w_o, w_p, w_q = _mass_terms(m_p, m_q, alpha)
    f_o = w_p * l_op + w_q * l_oq  # f at a corner comes from the side lengths
    # a target sitting on the source absorbs the branch point
    if l_op <= tol or l_oq <= tol:
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    # The angle tests below are atan2(|u x v|, u.v) written out, with
    # |u x v|**2 = |u|**2 |v|**2 - (u.v)**2: stable near 0 and pi.  The dot
    # products are left folds from int 0, which turns a -0.0 into 0.0.
    op = tuple(map(sub, p, o))
    oq = tuple(map(sub, q, o))
    pq = tuple(map(sub, q, p))
    dot_o = reduce(add, map(mul, op, oq), 0)
    if math.atan2(math.sqrt(max(l_op * l_op * l_oq * l_oq - dot_o * dot_o, 0.0)),
                  dot_o) >= t3:  # the angle at O
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    f_q = w_o * l_oq + w_p * l_pq
    dot_q = reduce(add, map(mul, oq, pq), 0)
    if math.atan2(math.sqrt(max(l_oq * l_oq * l_pq * l_pq - dot_q * dot_q, 0.0)),
                  dot_q) >= t1:  # the angle at Q
        return BranchCase.COLLAPSE_TO_Q, q, f_q, f_o
    f_p = w_o * l_op + w_q * l_pq
    dot_p = -reduce(add, map(mul, op, pq), 0)
    if math.atan2(math.sqrt(max(l_op * l_op * l_pq * l_pq - dot_p * dot_p, 0.0)),
                  dot_p) >= t2:  # the angle at P
        return BranchCase.COLLAPSE_TO_P, p, f_p, f_o

    # interior branch point via circumcenters of the chords OP and OQ
    try:
        c_q = dot_o / (l_op * l_op)
        c_p = dot_o / (l_oq * l_oq)
        qm = [c_q * x - y for x, y in zip(op, oq)]  # foot of the altitude from Q, minus Q
        ph = [c_p * y - x for x, y in zip(op, oq)]
        n_qm = math.hypot(*qm)
        n_ph = math.hypot(*ph)
        r, s, rs, o_r = [], [], [], []
        for x, y, z, u, v in zip(o, p, q, qm, ph):
            r_i = (x + y) / 2.0 - h1 * (u / n_qm) * l_op
            s_i = (x + z) / 2.0 - h2 * (v / n_ph) * l_oq
            r.append(r_i)
            s.append(s_i)
            rs.append(s_i - r_i)
            o_r.append(x - r_i)
        rs_sq = reduce(add, map(mul, rs, rs), 0)
        if rs_sq <= tol * tol:
            lam = 0.0  # concentric limit: reflect straight through the center
        else:
            lam = reduce(add, map(mul, o_r, rs), 0) / rs_sq
        b = tuple(2.0 * ((1.0 - lam) * x + lam * y) - z for x, y, z in zip(r, s, o))
    except ZeroDivisionError:
        b = None
    if b is not None and all(map(math.isfinite, b)):
        cost = w_o * math.dist(b, o) + w_p * math.dist(p, b) + w_q * math.dist(q, b)
        if cost < min(f_o, f_q, f_p):
            return BranchCase.INTERIOR_Y, b, cost, f_o
    # The construction broke down, or it ended no lower than a corner, as it
    # can on a sliver triangle (two targets a hair above the coincidence
    # threshold); f is convex, so the best corner is the better answer.
    return min((BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o),
               (BranchCase.COLLAPSE_TO_Q, q, f_q, f_o),
               (BranchCase.COLLAPSE_TO_P, p, f_p, f_o),
               key=itemgetter(2))


def _branch_point_planar(o: tuple, p: tuple, q: tuple, m_p: float, m_q: float,
                         alpha: float) -> tuple:
    """_branch_point_general for two coordinates, bit for bit: the same
    float operations in the same order on unpacked coordinates."""
    l_op = math.dist(o, p)
    l_oq = math.dist(o, q)
    l_pq = math.dist(p, q)
    scale = max(l_op, l_oq, l_pq)
    if scale == 0.0 or not -200 < math.frexp(scale)[1] < 200:
        return _branch_point_general(o, p, q, m_p, m_q, alpha)
    tol = _COINCIDENT_REL * scale
    if l_pq <= tol:
        raise DegenerateInputError("the two targets coincide")

    (t1, t2, t3), (h1, h2), w_o, w_p, w_q = _mass_terms(m_p, m_q, alpha)
    f_o = w_p * l_op + w_q * l_oq
    if l_op <= tol or l_oq <= tol:
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    o_x, o_y = o
    p_x, p_y = p
    q_x, q_y = q
    op_x = p_x - o_x
    op_y = p_y - o_y
    oq_x = q_x - o_x
    oq_y = q_y - o_y
    pq_x = q_x - p_x
    pq_y = q_y - p_y
    dot_o = 0 + op_x * oq_x + op_y * oq_y
    if math.atan2(math.sqrt(max(l_op * l_op * l_oq * l_oq - dot_o * dot_o, 0.0)),
                  dot_o) >= t3:  # the angle at O
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    f_q = w_o * l_oq + w_p * l_pq
    dot_q = 0 + oq_x * pq_x + oq_y * pq_y
    if math.atan2(math.sqrt(max(l_oq * l_oq * l_pq * l_pq - dot_q * dot_q, 0.0)),
                  dot_q) >= t1:  # the angle at Q
        return BranchCase.COLLAPSE_TO_Q, q, f_q, f_o
    f_p = w_o * l_op + w_q * l_pq
    dot_p = -(0 + op_x * pq_x + op_y * pq_y)
    if math.atan2(math.sqrt(max(l_op * l_op * l_pq * l_pq - dot_p * dot_p, 0.0)),
                  dot_p) >= t2:  # the angle at P
        return BranchCase.COLLAPSE_TO_P, p, f_p, f_o

    try:
        c_q = dot_o / (l_op * l_op)
        c_p = dot_o / (l_oq * l_oq)
        qm_x = c_q * op_x - oq_x
        qm_y = c_q * op_y - oq_y
        ph_x = c_p * oq_x - op_x
        ph_y = c_p * oq_y - op_y
        n_qm = math.hypot(qm_x, qm_y)
        n_ph = math.hypot(ph_x, ph_y)
        r_x = (o_x + p_x) / 2.0 - h1 * (qm_x / n_qm) * l_op
        s_x = (o_x + q_x) / 2.0 - h2 * (ph_x / n_ph) * l_oq
        rs_x = s_x - r_x
        or_x = o_x - r_x
        r_y = (o_y + p_y) / 2.0 - h1 * (qm_y / n_qm) * l_op
        s_y = (o_y + q_y) / 2.0 - h2 * (ph_y / n_ph) * l_oq
        rs_y = s_y - r_y
        or_y = o_y - r_y
        rs_sq = 0 + rs_x * rs_x + rs_y * rs_y
        if rs_sq <= tol * tol:
            lam = 0.0
        else:
            lam = (0 + or_x * rs_x + or_y * rs_y) / rs_sq
        b = (2.0 * ((1.0 - lam) * r_x + lam * s_x) - o_x,
             2.0 * ((1.0 - lam) * r_y + lam * s_y) - o_y)
    except ZeroDivisionError:
        b = None
    if b is not None and math.isfinite(b[0]) and math.isfinite(b[1]):
        cost = w_o * math.dist(b, o) + w_p * math.dist(p, b) + w_q * math.dist(q, b)
        if cost < min(f_o, f_q, f_p):
            return BranchCase.INTERIOR_Y, b, cost, f_o
    return min((BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o),
               (BranchCase.COLLAPSE_TO_Q, q, f_q, f_o),
               (BranchCase.COLLAPSE_TO_P, p, f_p, f_o),
               key=itemgetter(2))


def _branch_point_3d(o: tuple, p: tuple, q: tuple, m_p: float, m_q: float,
                     alpha: float) -> tuple:
    """_branch_point_general for three coordinates, bit for bit: the same
    float operations in the same order on unpacked coordinates."""
    l_op = math.dist(o, p)
    l_oq = math.dist(o, q)
    l_pq = math.dist(p, q)
    scale = max(l_op, l_oq, l_pq)
    if scale == 0.0 or not -200 < math.frexp(scale)[1] < 200:
        return _branch_point_general(o, p, q, m_p, m_q, alpha)
    tol = _COINCIDENT_REL * scale
    if l_pq <= tol:
        raise DegenerateInputError("the two targets coincide")

    (t1, t2, t3), (h1, h2), w_o, w_p, w_q = _mass_terms(m_p, m_q, alpha)
    f_o = w_p * l_op + w_q * l_oq
    if l_op <= tol or l_oq <= tol:
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    o_x, o_y, o_z = o
    p_x, p_y, p_z = p
    q_x, q_y, q_z = q
    op_x = p_x - o_x
    op_y = p_y - o_y
    op_z = p_z - o_z
    oq_x = q_x - o_x
    oq_y = q_y - o_y
    oq_z = q_z - o_z
    pq_x = q_x - p_x
    pq_y = q_y - p_y
    pq_z = q_z - p_z
    dot_o = 0 + op_x * oq_x + op_y * oq_y + op_z * oq_z
    if math.atan2(math.sqrt(max(l_op * l_op * l_oq * l_oq - dot_o * dot_o, 0.0)),
                  dot_o) >= t3:  # the angle at O
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    f_q = w_o * l_oq + w_p * l_pq
    dot_q = 0 + oq_x * pq_x + oq_y * pq_y + oq_z * pq_z
    if math.atan2(math.sqrt(max(l_oq * l_oq * l_pq * l_pq - dot_q * dot_q, 0.0)),
                  dot_q) >= t1:  # the angle at Q
        return BranchCase.COLLAPSE_TO_Q, q, f_q, f_o
    f_p = w_o * l_op + w_q * l_pq
    dot_p = -(0 + op_x * pq_x + op_y * pq_y + op_z * pq_z)
    if math.atan2(math.sqrt(max(l_op * l_op * l_pq * l_pq - dot_p * dot_p, 0.0)),
                  dot_p) >= t2:  # the angle at P
        return BranchCase.COLLAPSE_TO_P, p, f_p, f_o

    try:
        c_q = dot_o / (l_op * l_op)
        c_p = dot_o / (l_oq * l_oq)
        qm_x = c_q * op_x - oq_x
        qm_y = c_q * op_y - oq_y
        qm_z = c_q * op_z - oq_z
        ph_x = c_p * oq_x - op_x
        ph_y = c_p * oq_y - op_y
        ph_z = c_p * oq_z - op_z
        n_qm = math.hypot(qm_x, qm_y, qm_z)
        n_ph = math.hypot(ph_x, ph_y, ph_z)
        r_x = (o_x + p_x) / 2.0 - h1 * (qm_x / n_qm) * l_op
        s_x = (o_x + q_x) / 2.0 - h2 * (ph_x / n_ph) * l_oq
        rs_x = s_x - r_x
        or_x = o_x - r_x
        r_y = (o_y + p_y) / 2.0 - h1 * (qm_y / n_qm) * l_op
        s_y = (o_y + q_y) / 2.0 - h2 * (ph_y / n_ph) * l_oq
        rs_y = s_y - r_y
        or_y = o_y - r_y
        r_z = (o_z + p_z) / 2.0 - h1 * (qm_z / n_qm) * l_op
        s_z = (o_z + q_z) / 2.0 - h2 * (ph_z / n_ph) * l_oq
        rs_z = s_z - r_z
        or_z = o_z - r_z
        rs_sq = 0 + rs_x * rs_x + rs_y * rs_y + rs_z * rs_z
        if rs_sq <= tol * tol:
            lam = 0.0
        else:
            lam = (0 + or_x * rs_x + or_y * rs_y + or_z * rs_z) / rs_sq
        b = (2.0 * ((1.0 - lam) * r_x + lam * s_x) - o_x,
             2.0 * ((1.0 - lam) * r_y + lam * s_y) - o_y,
             2.0 * ((1.0 - lam) * r_z + lam * s_z) - o_z)
    except ZeroDivisionError:
        b = None
    if (b is not None and math.isfinite(b[0]) and math.isfinite(b[1])
            and math.isfinite(b[2])):
        cost = w_o * math.dist(b, o) + w_p * math.dist(p, b) + w_q * math.dist(q, b)
        if cost < min(f_o, f_q, f_p):
            return BranchCase.INTERIOR_Y, b, cost, f_o
    return min((BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o),
               (BranchCase.COLLAPSE_TO_Q, q, f_q, f_o),
               (BranchCase.COLLAPSE_TO_P, p, f_p, f_o),
               key=itemgetter(2))
