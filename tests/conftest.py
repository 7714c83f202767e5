"""The move recorder: the audit of the solver's moves, kept with the tests.

The solver applies each accepted move's exact local cost change with no
re-check.  The `recorder` fixture checks those moves from outside the
package.  It wraps the names the solver looks up at call time (module
attributes, the `_INITIALIZERS` table and `TransportNetwork.restore_from`),
so a caller that imported a name before the fixture ran keeps the bare
function.
"""
from __future__ import annotations

import pytest

from branchflow import optimize_global, optimize_local
from branchflow.network import TransportNetwork


class MoveRecorder:
    """What the solver did, in order.

    `calls` holds (vertex, accepted) for every improve_vertex call.

    After `start(alpha)`, `events` holds one (stage, vertex, cost before,
    cost after) entry per accepted move, stage "local" (a star rebuild) or
    "reparent" (a rewire), and one (stage, None, cost, cost) entry per
    checkpoint: "init" (the initializer's network), "local_sweep" (after
    each sweep that global_optimize runs), "subdivide", "reparent_pass",
    "rollback" (after restore_from) and "final" (the network `solve`
    returns).  Every cost is a fresh full cost_m_alpha at alpha.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[int, bool]] = []
        self.events: list[tuple[str, int | None, float, float]] = []
        self.alpha: float | None = None
        self.inspect = None

    def start(self, alpha: float, inspect=None) -> None:
        """Record events at alpha from now on, and call inspect(stage, net)
        at every checkpoint; earlier events are dropped."""
        self.alpha, self.inspect, self.events = alpha, inspect, []

    def solve(self, source, targets, alpha: float, inspect=None):
        """global_optimize with events recorded, ending on a "final"
        checkpoint of the returned network."""
        self.start(alpha, inspect)
        net = optimize_global.global_optimize(source, targets, alpha)
        self.checkpoint("final", net)
        return net

    def checkpoint(self, stage: str, net: TransportNetwork) -> None:
        if self.alpha is None:
            return
        cost = net.cost_m_alpha(self.alpha)
        self.events.append((stage, None, cost, cost))
        if self.inspect is not None:
            self.inspect(stage, net)

    def _move(self, stage: str, apply, net: TransportNetwork, u: int, *args):
        """apply(net, u, *args) with a full cost taken on each side; a
        result of False means the move was rejected."""
        before = net.cost_m_alpha(self.alpha) if self.alpha is not None else None
        result = apply(net, u, *args)
        if result is not False and self.alpha is not None:
            self.events.append((stage, u, before, net.cost_m_alpha(self.alpha)))
        return result

    def install(self, monkeypatch) -> None:
        improve = optimize_local.improve_vertex
        rewire = optimize_global.rewire
        sweep = optimize_global.local_sweep

        def improve_vertex(net, u, *args):
            ok = self._move("local", improve, net, u, *args)
            self.calls.append((u, ok))
            return ok

        def rewire_vertex(net, u, new_parent):
            self._move("reparent", rewire, net, u, new_parent)

        def local_sweep(*args, on_sweep=None, **kwargs):
            def checked(net):
                self.checkpoint("local_sweep", net)
                if on_sweep is not None:
                    on_sweep(net)
            return sweep(*args, on_sweep=checked, **kwargs)

        def after(stage, fn, returns_net=False):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.checkpoint(stage, result if returns_net else args[0])
                return result
            return wrapped

        monkeypatch.setattr(optimize_local, "improve_vertex", improve_vertex)
        monkeypatch.setattr(optimize_global, "rewire", rewire_vertex)
        monkeypatch.setattr(optimize_global, "local_sweep", local_sweep)
        monkeypatch.setattr(optimize_global, "subdivide_long_edges",
                            after("subdivide", optimize_global.subdivide_long_edges))
        monkeypatch.setattr(optimize_global, "reparent_pass",
                            after("reparent_pass", optimize_global.reparent_pass))
        monkeypatch.setattr(TransportNetwork, "restore_from",
                            after("rollback", TransportNetwork.restore_from))
        table = optimize_global._INITIALIZERS
        for key, build in list(table.items()):
            monkeypatch.setitem(table, key, after("init", build, returns_net=True))


@pytest.fixture
def recorder(monkeypatch) -> MoveRecorder:
    """A MoveRecorder installed for the length of one test."""
    rec = MoveRecorder()
    rec.install(monkeypatch)
    return rec
