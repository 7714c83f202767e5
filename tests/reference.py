"""Reference formulas that the tests check the solver against.

None of these run in a solve.  `balance_residual` measures the force balance
at a junction, `potential` is the general path potential P(u, t) of the
`optimize_global` docstring, and `predicted_gain` is S - T(v) for one
candidate parent, read from the solver's own `_reparent_terms`.
"""
import math

from branchflow.bifurcation import BifurcationInput
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
