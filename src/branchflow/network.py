"""Transport networks: rooted trees of weighted flow edges.

A network routes mass from a single source vertex (the root) out to target
vertices.  Every non-root vertex has at most one parent, so edges are keyed by
their child vertex: the edge [parent(u), u] carries weight(u) units of mass
toward u.  Vertex ids are stable and never reused.  Transient forest states
(vertices disconnected from the root) are representable; validate_structure
reports them, and optimization steps restore a single tree before returning.
canonicalize takes a single tree and finds its coincident vertex pairs once
per call, by a sweep in order of the first coordinate, then merges them along
the tree's parent links.  Lengths are math.dist on the stored float tuples
and the bounding-box diameter is math.hypot of the spans; both scale
internally, so no length here overflows or underflows.

The transport cost with concavity exponent alpha in (0, 1] is
cost = sum over edges of weight**alpha * length.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .config import mass_tolerance, merge_tolerance
from .errors import InvariantViolation
from .measures import AtomicMeasure, diameter


@dataclass
class BalanceReport:
    """Per-vertex flow residuals against a source/target measure pair.

    residual(v) = inflow(v) - outflow(v) + supply(v) - demand(v); zero
    everywhere when the network transports the source onto the targets.
    Target atoms with no vertex at their position are listed in `missing`.
    """

    residuals: dict[int, float] = field(default_factory=dict)
    missing: list[tuple[tuple[float, ...], float]] = field(default_factory=list)

    def max_abs(self) -> float:
        """Largest absolute residual, missing atoms included; NaN when any
        residual is NaN, so that is_balanced fails."""
        values = [abs(r) for r in self.residuals.values()]
        values += [abs(r) for _, r in self.missing]
        if any(map(math.isnan, values)):
            return math.nan
        return max(values, default=0.0)

    def is_balanced(self, tol: float) -> bool:
        return self.max_abs() <= tol


class TransportNetwork:
    """Vertex points are tuples of floats, stored once; each vertex's
    children are kept as a sorted list of ids.

    Every vertex carries a star stamp drawn from a monotone edit clock.
    add_edge, remove_edge and set_weight restamp both ends of the edge, since
    the edge lies in the star of each; restore_from restamps every vertex.
    So while star_stamp(u) is unchanged, so are u's parent, inflow, children
    and their inflows, and (an id naming one point) the whole star.
    """

    def __init__(self, root_point, source_mass: float):
        root_point = tuple(map(float, root_point))
        self.dimension = len(root_point)
        self.source_mass = float(source_mass)
        self._points: dict[int, tuple[float, ...]] = {}
        self._parent: dict[int, int] = {}
        self._weight: dict[int, float] = {}
        self._children: dict[int, list[int]] = {}
        self._terminal: set[int] = set()
        self._stamp: dict[int, int] = {}
        self._clock = 0
        self._next_id = 0
        self.root = self._new_vertex(root_point, 0)

    # ---------------- structure editing ----------------

    def _new_vertex(self, point: tuple[float, ...], vid: int) -> int:
        self._points[vid] = point
        self._children[vid] = []
        self._clock += 1
        self._stamp[vid] = self._clock
        self._next_id = max(self._next_id, vid + 1)
        return vid

    def add_vertex(self, point, terminal: bool = False,
                   vid: int | None = None) -> int:
        point = tuple(map(float, point))
        if len(point) != self.dimension:
            raise ValueError(f"point must have dimension {self.dimension}")
        if vid is None:
            vid = self._next_id
        else:
            vid = int(vid)
            if vid in self._points:
                raise ValueError(f"vertex id {vid} already exists")
        self._new_vertex(point, vid)
        if terminal:
            self._terminal.add(vid)
        return vid

    def add_edge(self, parent: int, child: int, weight: float) -> None:
        if parent not in self._points or child not in self._points:
            raise KeyError(f"edge {parent}->{child} names an unknown vertex")
        if child == self.root:
            raise InvariantViolation("the root cannot receive an edge", network=self)
        if child in self._parent:
            raise InvariantViolation(f"vertex {child} already has a parent", network=self)
        if self.is_descendant(parent, child):
            raise InvariantViolation(f"edge {parent}->{child} would close a cycle", network=self)
        self._parent[child] = parent
        self._weight[child] = float(weight)
        bisect.insort(self._children[parent], child)
        self._clock = clock = self._clock + 1
        self._stamp[parent] = self._stamp[child] = clock

    def remove_edge(self, child: int) -> None:
        parent = self._parent.pop(child)
        self._weight.pop(child)
        self._children[parent].remove(child)
        self._clock = clock = self._clock + 1
        self._stamp[parent] = self._stamp[child] = clock

    def set_weight(self, child: int, weight: float) -> None:
        parent = self._parent.get(child)
        if parent is None:
            raise KeyError(f"vertex {child} has no parent edge")
        self._weight[child] = float(weight)
        self._clock = clock = self._clock + 1
        self._stamp[parent] = self._stamp[child] = clock

    def remove_vertex(self, vid: int) -> None:
        if vid == self.root:
            raise InvariantViolation("cannot remove the root", network=self)
        if self._children[vid] or vid in self._parent:
            raise InvariantViolation(f"vertex {vid} is not isolated", network=self)
        del self._points[vid]
        del self._children[vid]
        del self._stamp[vid]
        self._terminal.discard(vid)

    # ---------------- queries ----------------

    def has_vertex(self, vid: int) -> bool:
        return vid in self._points

    def vertices(self) -> list[int]:
        return sorted(self._points)

    def point(self, vid: int) -> tuple[float, ...]:
        return self._points[vid]

    def parent(self, vid: int) -> int | None:
        return self._parent.get(vid)

    def children(self, vid: int) -> list[int]:
        return self._children[vid][:]

    def is_terminal(self, vid: int) -> bool:
        return vid in self._terminal

    def star_stamp(self, vid: int) -> int:
        """The clock reading at the last edit of vid's star (or at vid's
        creation); equal readings mean an unchanged star."""
        return self._stamp[vid]

    def terminals(self) -> list[int]:
        return sorted(self._terminal)

    def degree(self, vid: int) -> int:
        return len(self._children[vid]) + (1 if vid in self._parent else 0)

    def edges(self) -> list[tuple[int, int, float]]:
        """(parent, child, weight) triples sorted by child id."""
        return [(self._parent[c], c, self._weight[c]) for c in sorted(self._parent)]

    def n_vertices(self) -> int:
        return len(self._points)

    def n_edges(self) -> int:
        return len(self._parent)

    def edge_length(self, child: int) -> float:
        return math.dist(self._points[self._parent[child]], self._points[child])

    def edge_mass(self, vid: int) -> float:
        """Mass flowing into vid: its parent-edge weight, or the full source
        mass at the root."""
        if vid == self.root:
            return self.source_mass
        return self._weight[vid]

    def is_descendant(self, v: int, u: int) -> bool:
        """True iff v lies in the subtree rooted at u (v == u counts)."""
        cur: int | None = v
        while cur is not None:
            if cur == u:
                return True
            cur = self._parent.get(cur)
        return False

    def path_to_root(self, vid: int) -> list[int]:
        """Vertices from the root down to vid, inclusive."""
        path = [vid]
        cur = vid
        while cur in self._parent:
            cur = self._parent[cur]
            path.append(cur)
        if path[-1] != self.root:
            raise InvariantViolation(f"vertex {vid} is not connected to the root", network=self)
        path.reverse()
        return path

    def subtree(self, vid: int) -> list[int]:
        """All vertices below vid (inclusive), depth first, deterministic."""
        out = []
        stack = [vid]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self._children[v]))
        return out

    def bfs_order(self) -> list[int]:
        """Breadth-first vertex order from the root, children by ascending id."""
        order = [self.root]
        queue = [self.root]
        while queue:
            nxt = []
            for v in queue:
                order += self._children[v]
                nxt += self._children[v]
            queue = nxt
        return order

    def bbox_diameter(self) -> float:
        return diameter(self._points.values())

    def copy(self) -> "TransportNetwork":
        dup = TransportNetwork.__new__(TransportNetwork)
        dup.dimension = self.dimension
        dup.source_mass = self.source_mass
        dup._points = dict(self._points)
        dup._parent = dict(self._parent)
        dup._weight = dict(self._weight)
        dup._children = {v: c[:] for v, c in self._children.items()}
        dup._terminal = set(self._terminal)
        dup._stamp = dict(self._stamp)
        dup._clock = self._clock
        dup._next_id = self._next_id
        dup.root = self.root
        return dup

    def restore_from(self, other: "TransportNetwork") -> None:
        """Overwrite this network's state with a snapshot taken via copy().

        Every vertex gets a stamp newer than any this network or the
        snapshot handed out before: ids freed since the snapshot may come
        back with other points, so no earlier stamp may match."""
        self.dimension = other.dimension
        self.source_mass = other.source_mass
        self._points = dict(other._points)
        self._parent = dict(other._parent)
        self._weight = dict(other._weight)
        self._children = {v: c[:] for v, c in other._children.items()}
        self._terminal = set(other._terminal)
        self._clock = max(self._clock, other._clock) + 1
        self._stamp = dict.fromkeys(self._points, self._clock)
        self._next_id = other._next_id
        self.root = other.root

    # ---------------- cost and balance ----------------

    def cost_m_alpha(self, alpha: float) -> float:
        total = 0.0
        for child in self._parent:
            total += self._weight[child] ** alpha * self.edge_length(child)
        return total

    def check_balance(self, source: AtomicMeasure, targets: AtomicMeasure) -> BalanceReport:
        """Flow residual at every vertex, matching target atoms to vertices
        by exact position.  The source must sit at the root: a source atom
        anywhere else is reported missing."""
        supply = 0.0  # at the root
        demand: dict[int, float] = {}
        pos_index: dict[tuple, int] = {}
        for vid in self.vertices():
            key = self._points[vid]
            if key not in pos_index:
                pos_index[key] = vid
            elif vid in self._terminal and pos_index[key] not in self._terminal:
                pos_index[key] = vid

        report = BalanceReport()
        root_key = self._points[self.root]
        for key, mass in source.atoms():
            if key == root_key:
                supply += mass
            else:
                report.missing.append((key, mass))
        for key, mass in targets.atoms():
            vid = pos_index.get(key)
            if vid is None:
                report.missing.append((key, -mass))
            else:
                demand[vid] = demand.get(vid, 0.0) + mass

        for vid in self.vertices():
            inflow = self._weight.get(vid, 0.0) if vid != self.root else 0.0
            outflow = sum(self._weight[c] for c in self._children[vid])
            res = inflow - outflow + (supply if vid == self.root else 0.0) - demand.get(vid, 0.0)
            report.residuals[vid] = res
        return report

    # ---------------- structural validation ----------------

    def validate_structure(self) -> list[str]:
        problems = []
        for child, parent in self._parent.items():
            if parent not in self._points:
                problems.append(f"edge {parent}->{child} references a missing parent")
            if child not in self._children.get(parent, ()):
                problems.append(f"child index missing entry {parent}->{child}")
        for child, w in self._weight.items():
            if not w > 0:  # NaN fails too
                problems.append(f"edge into {child} has nonpositive weight {w}")
        # cycle scan: walk up from every vertex with a step budget
        n = len(self._points)
        for v in self._points:
            cur = v
            steps = 0
            while cur in self._parent:
                cur = self._parent[cur]
                steps += 1
                if steps > n:
                    problems.append(f"cycle reachable from vertex {v}")
                    break
        for v in self._points:
            if v == self.root or v in self._parent:
                continue
            if v in self._terminal:
                problems.append(f"terminal vertex {v} is disconnected from the root")
            elif self._children[v]:
                problems.append(f"vertex {v} is disconnected from the root")
            else:
                problems.append(f"isolated vertex {v}")
        return problems

    # ---------------- canonical form ----------------

    def canonicalize(self, collapse_passthrough: bool = False) -> None:
        """Normalize a tree in place: drop negligible edges, merge vertices
        within merge_tolerance of the bounding-box diameter, remove isolated
        helpers, optionally splice out exact pass-through vertices.
        Idempotent.

        The coincident pairs are scanned once: nothing here moves a point or
        adds a vertex, so a later scan would find the same pairs minus those
        that lost a vertex."""
        eps_w = mass_tolerance(self.source_mass)
        eps_merge = merge_tolerance(self.bbox_diameter())
        pairs = self._coincident_pairs(eps_merge) if eps_merge > 0 else []

        changed = True
        while changed:
            changed = False
            # 1. prune negligible edges
            for child in sorted(self._parent):
                if self._weight[child] <= eps_w:
                    self.remove_edge(child)
                    changed = True
            # 2. merge coincident vertices
            if self._merge_coincident(pairs):
                changed = True
            # 3. drop isolated non-root, non-terminal vertices
            for vid in self.vertices():
                if vid == self.root or vid in self._terminal:
                    continue
                if vid not in self._parent and not self._children[vid]:
                    self.remove_vertex(vid)
                    changed = True

        if collapse_passthrough:
            again = True
            while again:
                again = False
                for vid in self.vertices():
                    if vid == self.root or vid in self._terminal:
                        continue
                    if vid not in self._parent or len(self._children[vid]) != 1:
                        continue
                    (child,) = self._children[vid]
                    if abs(self._weight[vid] - self._weight[child]) > eps_w:
                        continue
                    parent = self._parent[vid]
                    # exact in reals by the triangle inequality; the check
                    # only skips ulp-level rounding reversals
                    direct = math.dist(self._points[parent], self._points[child])
                    if direct > self.edge_length(vid) + self.edge_length(child):
                        continue
                    w = self._weight[child]
                    self.remove_edge(child)
                    self.remove_edge(vid)
                    self.remove_vertex(vid)
                    self.add_edge(parent, child, w)
                    again = True

    def _merge_coincident(self, pairs: list[tuple[int, int]]) -> bool:
        """Take the first pair of live vertices that can merge, then start
        over from the top of pairs, until none can.

        Parent-child and sibling pairs merge.  An ancestor-descendant pair
        is a folded path: the flow out and back is pure waste, so the lower
        vertex lifts to its coincident ancestor, and the pair, now parent
        and child, merges on the next pass.  Two targets stay distinct, and
        branches that merely cross stay apart."""
        merged_any = False
        i = 0
        while i < len(pairs):
            u, v = pairs[i]
            i += 1
            if u not in self._points or v not in self._points:
                continue
            if u in self._terminal and v in self._terminal:
                continue
            pu, pv = self._parent.get(u), self._parent.get(v)
            if pv == u or pu == v or (pu is not None and pu == pv):
                self._merge_pair(u, v)
            elif self.is_descendant(v, u):
                self._contract_detour(u, v)
            elif self.is_descendant(u, v):
                self._contract_detour(v, u)
            else:
                continue
            merged_any = True
            i = 0
        return merged_any

    def _coincident_pairs(self, eps: float) -> list[tuple[int, int]]:
        """Vertex pairs (u, v), u < v, closer than eps, in ascending (u, v).

        A sweep in order of the first coordinate: a row ends at the first
        vertex whose first coordinate lies eps or more ahead, as no later
        one can be closer than eps."""
        order = sorted(self._points.items(), key=lambda item: item[1][0])
        n = len(order)
        out = []
        for i, (u, pu) in enumerate(order):
            x = pu[0]
            for j in range(i + 1, n):
                v, pv = order[j]
                if pv[0] - x >= eps:
                    break
                if math.dist(pu, pv) < eps:
                    out.append((u, v) if u < v else (v, u))
        out.sort()
        return out

    def _merge_pair(self, u: int, v: int) -> None:
        """Merge two coincident vertices, parent and child or siblings,
        keeping root or terminal identity."""
        def rank(x: int) -> int:
            if x == self.root:
                return 2
            if x in self._terminal:
                return 1
            return 0

        keep, gone = (u, v) if (rank(u), -u) >= (rank(v), -v) else (v, u)
        p_keep = self._parent.get(keep)
        p_gone = self._parent.get(gone)
        if p_gone == keep:
            # gone hangs directly below keep: contract the zero-length edge
            self.remove_edge(gone)
        elif p_keep == gone:
            # keep hangs below gone (never the root): lift keep into gone's place
            w = self._weight[gone]
            self.remove_edge(keep)
            self.remove_edge(gone)
            self.add_edge(p_gone, keep, w)
        else:
            # siblings under one parent: fold the parallel edge weights
            self.set_weight(keep, self._weight[keep] + self._weight[gone])
            self.remove_edge(gone)
        for child in self._children[gone][:]:
            w = self._weight[child]
            self.remove_edge(child)
            self.add_edge(keep, child, w)
        self.remove_vertex(gone)

    def _contract_detour(self, anc: int, desc: int) -> None:
        """Reroute ``desc`` directly under its coincident ancestor ``anc``.

        The flow feeding ``desc`` travelled out along the path
        anc -> ... -> desc and geometrically back to the same point, so it
        can be peeled off every intermediate edge without touching any
        other branch.  Edges drained to zero are removed by the calling
        fixpoint's prune step.
        """
        w = self._weight[desc]
        cur = self._parent[desc]
        while cur != anc:
            self.set_weight(cur, max(self._weight[cur] - w, 0.0))
            cur = self._parent[cur]
        self.remove_edge(desc)
        self.add_edge(anc, desc, w)
