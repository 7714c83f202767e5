"""Reference formulas that the tests check the solver against.

None of these run in a solve.  `balance_residual` measures the force balance
at a junction, `potential` is the general path potential P(u, t) of the
`optimize_global` docstring, `predicted_gain` is S - T(v) for one
candidate parent, read from the solver's own `_reparent_terms`, and
`branch_point_general` is the junction kernel written with one
map/zip/fold per vector step, for any dimension.
"""
import math
from functools import reduce
from operator import add, itemgetter, mul, sub

from branchflow.bifurcation import (
    _COINCIDENT_REL,
    BifurcationInput,
    BranchCase,
    _mass_terms,
)
from branchflow.errors import DegenerateInputError
from branchflow.network import TransportNetwork
from branchflow.optimize_global import _reparent_terms


def balance_residual(b, inp: BifurcationInput) -> float:
    """Norm of the weighted unit-vector balance at B.

    At an interior optimum the three pulls cancel:
    m_o**a * u(B->O) + m_p**a * u(B->P) + m_q**a * u(B->Q) = 0.
    """
    b = tuple(map(float, b))
    total = [0.0] * len(b)
    for point, mass in ((inp.o, inp.m_o), (inp.p, inp.m_p), (inp.q, inp.m_q)):
        point = tuple(map(float, point))
        n = math.dist(point, b)
        if n == 0.0:
            return math.inf
        w = mass ** inp.alpha
        total = [t + w * (x - y) / n for t, x, y in zip(total, point, b)]
    return math.hypot(*total)


def potential(net: TransportNetwork, u: int, t: float, alpha: float) -> float:
    """P(u, t): the cost released by removing t units of flow along u's root
    path; a negative t adds flow and gives a negative release."""
    m_u = net.edge_mass(u)
    if abs(t) > m_u * (1.0 + 1e-12):
        raise ValueError(f"|t| = {abs(t)} exceeds the flow {m_u} into vertex {u}")
    total = 0.0
    for vid in net.path_to_root(u)[1:]:
        w = net.edge_mass(vid)
        reduced = max(w - t, 0.0)
        total += net.edge_length(vid) * (w ** alpha - reduced ** alpha)
    return total


def predicted_gain(net: TransportNetwork, u: int, v: int, alpha: float) -> float:
    """S - T(v): the exact cost drop of reattaching u below v."""
    if net.is_descendant(v, u):
        raise ValueError(f"vertex {v} lies inside the subtree of {u}")
    s_val, _, ma, c = _reparent_terms(net, u, alpha)
    c_v = c(v)
    if c_v is None:
        raise ValueError(f"vertex {v} is not connected to the root")
    return s_val - (c_v + math.dist(net.point(v), net.point(u)) * ma)


def branch_point_general(o: tuple, p: tuple, q: tuple, m_p: float, m_q: float,
                         alpha: float) -> tuple:
    """bifurcation.branch_point in any dimension, one map/zip/fold per vector
    step: the kernel's construction as it stood before its bodies were
    generated from one template, and the reference each generated body must
    equal bit for bit.  Its rescale re-enters this function, and it keeps
    the isfinite test on B* that the generated bodies leave out."""
    l_op = math.dist(o, p)
    l_oq = math.dist(o, q)
    l_pq = math.dist(p, q)
    scale = max(l_op, l_oq, l_pq)
    k = math.frexp(scale)[1]
    if not -200 < k < 200:  # solve scaled by 2**-k, exactly; a corner B* is the point given
        case, b, cost, v_cost = branch_point_general(
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
