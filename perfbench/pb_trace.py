"""Span tracing installed from outside the package.

A `Tracer` wraps public functions of the branchflow modules at the module
attribute (or class attribute, or dict entry) where each call is looked up,
so `from x import y` bindings are covered.  Every wrapped call records one
span (name, start, end, parent, operation) in flat arrays; self times are
derived from those spans after the run.  Per-edge helpers such as
`TransportNetwork.edge_length` are deliberately not wrapped: they run
millions of times per solve and wrapping them would swamp what is measured.

Wrappers are installed only while an operation runs (`with tracer.op(i):`),
so the benchmark's own correctness checks never show up in the counts.
"""
from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

from branchflow import bifurcation, cli, construct, network, optimize_global, optimize_local, oracle

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # ---------------- wrapping ----------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op_index.append(self._op)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None, on_call=None):
        nid = self._name_id(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            if on_call is not None:
                kwargs = on_call(kwargs)
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _attr(self, owner, attr: str, name: str, **hooks) -> None:
        self._patches.append((owner, attr, getattr(owner, attr),
                              self.wrap(name, getattr(owner, attr), **hooks)))

    def _plan(self) -> None:
        net_cls = network.TransportNetwork
        self._attr(cli, "global_optimize", "optimize_global.global_optimize")
        self._attr(cli, "enumerate_optimal", "oracle.enumerate")
        self._attr(cli, "parse_instance", "instances.parse")
        self._attr(cli, "export_network", "instances.export")
        self._attr(cli, "render_svg", "svg.render")
        self._attr(optimize_global, "local_sweep", "optimize_local.sweep",
                   on_call=self._count_sweeps)
        self._attr(optimize_global, "subdivide_long_edges", "optimize_global.subdivide")
        self._attr(optimize_global, "reparent_pass", "optimize_global.reparent")
        self._attr(optimize_global, "evaluate_reparent", "optimize_global.evaluate_reparent")
        self._attr(optimize_global, "rewire", "optimize_global.rewire")
        self._attr(optimize_local, "improve_vertex", "optimize_local.improve",
                   on_result=lambda r: r and self.count("improve_accepted"))
        for mod in (construct, oracle, bifurcation):
            self._attr(mod, "solve_two_targets", "bifurcation.solve")
        self._attr(oracle, "grid_minimize_f", "oracle.grid")
        for method in ("cost_m_alpha", "copy", "restore_from", "canonicalize"):
            label = {"cost_m_alpha": "cost", "restore_from": "restore"}.get(method, method)
            self._attr(net_cls, method, f"network.{label}")
        # global_optimize picks its initializer from this table at call time
        table = optimize_global._INITIALIZERS
        for key, build in table.items():
            self._patches.append((table, key, build, self.wrap("construct.build", build)))

    def _count_sweeps(self, kwargs: dict) -> dict:
        on_sweep = kwargs.get("on_sweep")

        def counted(net):
            self.count("sweeps")
            if on_sweep is not None:
                on_sweep(net)

        return {**kwargs, "on_sweep": counted}

    def _set_all(self, pick) -> None:
        for owner, key, orig, traced in self._patches:
            value = pick(orig, traced)
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    @contextlib.contextmanager
    def op(self, index: int):
        """Trace one benchmark operation: install the wrappers, record a root
        span for the operation, and uninstall on exit."""
        self._op = index
        self._set_all(lambda orig, traced: traced)
        idx = self._begin(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._finish(idx)
            self._set_all(lambda orig, traced: orig)
            self._op = -1

    # ---------------- analysis ----------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op_index, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds (the
        span's duration minus the time its direct children cover)."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        self_s = np.bincount(a["name"], weights=own, minlength=n_names)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())
