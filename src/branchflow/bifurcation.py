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

branch_point has one body, the template _TEMPLATE.  _body(d) expands it
into straight-line code on d unpacked coordinates, compiles it with this
module's globals on first use (about 1 ms), registers its source with
linecache as <branch_point d=N> for tracebacks and inspect.getsource, and
keeps it in _BODIES, so every dimension runs the one construction.  The
rescale and the all-coincident case leave the body for _rescaled, which
re-enters branch_point on the 2**-k copy.  Generated code is harder to step
through, and coverage tools do not see its lines; the tests hold each body
bit for bit to the map/zip/fold general body kept in tests/reference.py.

Every float reduction, here and in the rest of the package, is an explicit
left fold from int 0: a dot product is 0 + x0*y0 + x1*y1 + ..., so a -0.0
sum comes out 0.0 and int coordinates sum exactly as ints.  It is never
sum(), which from Python 3.12 on compensates float additions and would tie
the output's last bit to the interpreter's version.  Lengths are math.dist
and math.hypot; there is no fused multiply-add and no reassociation.

The mass terms, the optimal angles, the halves cot(t1)/2 and cot(t2)/2 and
the weights m_o**a, m_p**a and m_q**a, depend on (m_p, m_q, alpha) alone and
come from _mass_terms, an lru_cache of MASS_TERMS_CACHE = 512 entries.  In
n = 30 solves the key repeats on 95% of calls with equal target masses and
84% with random ones in the plane (97% and 88% in 3-d), and one such solve
meets at most 252 distinct keys, so the bound holds them with room to spare.
"""
from __future__ import annotations

import linecache
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter

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
    halves = ((math.cos(t1) / math.sin(t1)) / 2.0, (math.cos(t2) / math.sin(t2)) / 2.0)
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
    Runs the body generated for len(o) coordinates."""
    return (_BODIES.get(len(o)) or _body(len(o)))(o, p, q, m_p, m_q, alpha)


# The kernel's one body.  _body(d) writes each {group} out once per
# coordinate in place, then repeats each line that still holds an @ once per
# coordinate; @ becomes the coordinate's index.  A dot product is the left
# fold 0{ + a_@ * b_@}, never sum().
_TEMPLATE = """\
def branch_point(o, p, q, m_p, m_q, alpha):
    l_op = math.dist(o, p)
    l_oq = math.dist(o, q)
    l_pq = math.dist(p, q)
    scale = max(l_op, l_oq, l_pq)
    if scale == 0.0 or not -200 < math.frexp(scale)[1] < 200:
        return _rescaled(o, p, q, m_p, m_q, alpha, scale)
    tol = _COINCIDENT_REL * scale
    if l_pq <= tol:
        raise DegenerateInputError("the two targets coincide")

    (t1, t2, t3), (h1, h2), w_o, w_p, w_q = _mass_terms(m_p, m_q, alpha)
    f_o = w_p * l_op + w_q * l_oq  # f at a corner comes from the side lengths
    # a target sitting on the source absorbs the branch point
    if l_op <= tol or l_oq <= tol:
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    # The angle tests below are atan2(|u x v|, u.v) written out, with
    # |u x v|**2 = |u|**2 |v|**2 - (u.v)**2: stable near 0 and pi.
    [{o_@, }] = o
    [{p_@, }] = p
    [{q_@, }] = q
    op_@ = p_@ - o_@
    oq_@ = q_@ - o_@
    pq_@ = q_@ - p_@
    dot_o = 0{ + op_@ * oq_@}
    if math.atan2(math.sqrt(max(l_op * l_op * l_oq * l_oq - dot_o * dot_o, 0.0)),
                  dot_o) >= t3:  # the angle at O
        return BranchCase.V_SHAPE_AT_SOURCE, o, f_o, f_o
    f_q = w_o * l_oq + w_p * l_pq
    dot_q = 0{ + oq_@ * pq_@}
    if math.atan2(math.sqrt(max(l_oq * l_oq * l_pq * l_pq - dot_q * dot_q, 0.0)),
                  dot_q) >= t1:  # the angle at Q
        return BranchCase.COLLAPSE_TO_Q, q, f_q, f_o
    f_p = w_o * l_op + w_q * l_pq
    dot_p = -(0{ + op_@ * pq_@})
    if math.atan2(math.sqrt(max(l_op * l_op * l_pq * l_pq - dot_p * dot_p, 0.0)),
                  dot_p) >= t2:  # the angle at P
        return BranchCase.COLLAPSE_TO_P, p, f_p, f_o

    # interior branch point via circumcenters of the chords OP and OQ; qm is
    # the foot of the altitude from Q, minus Q
    try:
        c_q = dot_o / (l_op * l_op)
        c_p = dot_o / (l_oq * l_oq)
        qm_@ = c_q * op_@ - oq_@
        ph_@ = c_p * oq_@ - op_@
        n_qm = math.hypot({qm_@, })
        n_ph = math.hypot({ph_@, })
        r_@ = (o_@ + p_@) / 2.0 - h1 * (qm_@ / n_qm) * l_op
        s_@ = (o_@ + q_@) / 2.0 - h2 * (ph_@ / n_ph) * l_oq
        rs_@ = s_@ - r_@
        or_@ = o_@ - r_@
        rs_sq = 0{ + rs_@ * rs_@}
        lam = (0{ + or_@ * rs_@}) / rs_sq
        b = ({2.0 * ((1.0 - lam) * r_@ + lam * s_@) - o_@, })
    except ZeroDivisionError:
        pass  # the construction broke down
    else:
        # a non-finite B* costs inf or nan, which is never below a corner
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
"""
_GROUP = re.compile(r"\{([^{}]*)\}")
_BODIES: dict = {}  # dimension -> its compiled body


def _expand(line: str, d: int) -> list:
    """One template line for d coordinates, as a list of lines."""
    def each(text):
        return [text.replace("@", str(i)) for i in range(d)]
    line = _GROUP.sub(lambda group: "".join(each(group[1])), line)
    return each(line) if "@" in line else [line]


def _body(d: int):
    """The body for d coordinates: the template expanded, compiled with
    this module's globals, its source registered with linecache so that
    tracebacks and inspect.getsource show it, and kept in _BODIES."""
    source = "".join(f"{out}\n" for line in _TEMPLATE.splitlines() for out in _expand(line, d))
    filename = f"<branch_point d={d}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    body = _BODIES[d] = namespace["branch_point"]
    return body


def _rescaled(o: tuple, p: tuple, q: tuple, m_p: float, m_q: float, alpha: float,
              scale: float) -> tuple:
    """branch_point for a triangle whose longest side, scale, is 0 (all three
    points coincide) or outside 2**+-200: solved scaled by 2**-k, exactly,
    and scaled back.  A corner B* is the point given."""
    if scale == 0.0:
        # all three points coincide: nothing to transport anywhere
        return BranchCase.V_SHAPE_AT_SOURCE, o, 0.0, 0.0
    k = math.frexp(scale)[1]
    case, b, cost, v_cost = branch_point(
        *(tuple(math.ldexp(x, -k) for x in v) for v in (o, p, q)), m_p, m_q, alpha)
    b = {BranchCase.V_SHAPE_AT_SOURCE: o, BranchCase.COLLAPSE_TO_P: p,
         BranchCase.COLLAPSE_TO_Q: q}.get(case) or tuple(math.ldexp(x, k) for x in b)
    return case, b, math.ldexp(cost, k), math.ldexp(v_cost, k)
