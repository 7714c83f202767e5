"""Problem instances: parsing, synthetic generators, and network JSON.

An instance is one single-atom source plus an atomic target measure and a
concavity exponent alpha.  Instances arrive either as explicit atom lists
(JSON or CSV) or as a generator spec (kind, count, region) expanded with a
seeded PCG64 stream so that synthetic point clouds are reproducible.

Network serialization is a flat JSON document
    {alpha, vertices: [{id, coords}], edges: [{from, to, weight}], cost}
written with sorted keys and fixed separators, so identical networks always
produce identical bytes.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from .config import mass_tolerance
from .errors import InputError, InvariantViolation
from .measures import AtomicMeasure, check_source_targets
from .network import TransportNetwork

GENERATORS = ("uniform-square", "circle", "disk-random", "disk-uniform")

# largest coordinate in a network document: build_subdivision's helpers can
# lie past the instance bound MAX_COORDINATE = 2**1020, up to about 2.01 times
# it, and below 2**1022 every per-axis span is a finite float
MAX_NETWORK_COORDINATE = 2.0 ** 1022

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Instance:
    """One parsed instance: alpha, the single source atom as a float tuple
    and its mass, and the target measure."""

    alpha: float
    source_point: tuple[float, ...]
    source_mass: float
    targets: AtomicMeasure

    def source_measure(self) -> AtomicMeasure:
        return AtomicMeasure([self.source_point], [self.source_mass])


# ---------------- synthetic point generators ----------------

def _rng(seed: int | None):
    # PCG64 is pinned (not default_rng) so documented streams stay stable.
    import numpy as np

    return np.random.Generator(np.random.PCG64(DEFAULT_SEED if seed is None else seed))


def generate_points(kind: str, count: int, region: dict | None,
                    seed: int | None):
    """Expand a generator spec into an (n, d) numpy coordinate array.

    uniform-square: i.i.d. uniform draws from an axis-aligned box
                    {"low": [...], "high": [...]}, default unit square.
    circle:         count points equally spaced on a circle (no randomness),
                    {"center": [...], "radius": r}, default unit circle.
    disk-random:    uniform area draws from a disk via r = R*sqrt(u).
    disk-uniform:   deterministic sunflower layout (golden-angle spiral).
    """
    import numpy as np

    if kind not in GENERATORS:
        raise InputError(f"unknown generator kind {kind!r}; expected one of {GENERATORS}")
    if count < 1:
        raise InputError(f"generator count must be >= 1, got {count}")
    if region is not None and not isinstance(region, dict):
        raise InputError(f"generator region must be an object, got {region!r}")
    region = dict(region or {})

    def coords(key: str, default: float) -> np.ndarray:
        if key not in region:
            return np.array([default, default])
        return np.array(_point(region.pop(key), f"region.{key}"))

    if kind == "uniform-square":
        low = coords("low", 0.0)
        high = coords("high", 1.0)
        if region:
            raise InputError(f"unexpected region keys {sorted(region)} for {kind}")
        if low.shape != high.shape or low.ndim != 1 or low.shape[0] < 2:
            raise InputError("uniform-square region needs matching low/high vectors, d >= 2")
        if not np.all(high > low):
            raise InputError("uniform-square region must satisfy high > low componentwise")
        u = _rng(seed).uniform(size=(count, low.shape[0]))
        return low + u * (high - low)

    center = coords("center", 0.0)
    radius = _number(region.pop("radius", 1.0), "region.radius")
    if region:
        raise InputError(f"unexpected region keys {sorted(region)} for {kind}")
    if center.shape != (2,):
        raise InputError(f"{kind} generator is planar; center must have 2 coordinates")
    if not (np.isfinite(radius) and radius > 0):
        raise InputError(f"{kind} radius must be positive, got {radius}")

    if kind == "circle":
        theta = 2.0 * np.pi * np.arange(count) / count
        return center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)

    if kind == "disk-random":
        gen = _rng(seed)
        r = radius * np.sqrt(gen.uniform(size=count))
        theta = 2.0 * np.pi * gen.uniform(size=count)
        return center + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)

    # disk-uniform: sunflower arrangement, radius scaled so area density is even
    i = np.arange(count, dtype=float)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    r = radius * np.sqrt((i + 0.5) / count)
    theta = golden * i
    return center + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


# ---------------- instance parsing ----------------

def parse_instance(data: bytes | str, fmt: str, alpha: float | None = None,
                   seed: int | None = None) -> Instance:
    """Parse an instance document; `alpha`/`seed` arguments override the file.

    JSON schema: {"alpha": a, "seed": s, "source": {"point": [...], "mass": m},
    and either "targets": [{"point": [...], "mass": m}, ...] or
    "generator": {"kind": k, "count": n, "region": {...}}}.  Generated targets
    share the source mass equally.

    CSV schema: header x,y[,z...],mass; the first data row is the source;
    alpha must be supplied by the caller.
    """
    data = _text(data)
    if fmt == "json":
        inst = _parse_json(data, alpha, seed)
    elif fmt == "csv":
        inst = _parse_csv(data, alpha)
    else:
        raise InputError(f"unknown instance format {fmt!r}; expected json or csv")
    check_source_targets(inst.source_point, inst.source_mass, inst.targets, inst.alpha)
    return inst


def _parse_json(text: str, alpha: float | None, seed: int | None) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")

    if alpha is None:
        if doc.get("alpha") is None:
            raise InputError("alpha missing: set it in the document or pass --alpha")
        alpha = _number(doc["alpha"], "alpha")
    if seed is None:
        seed = doc.get("seed")
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")

    src = doc.get("source")
    if not isinstance(src, dict) or "point" not in src or "mass" not in src:
        raise InputError('source must be an object {"point": [...], "mass": m}')
    source_point = _point(src["point"], "source.point")
    source_mass = _mass(src["mass"], "source.mass")

    has_targets = "targets" in doc
    has_generator = "generator" in doc
    if has_targets == has_generator:
        raise InputError('exactly one of "targets" or "generator" is required')

    if has_targets:
        rows = doc["targets"]
        if not isinstance(rows, list):
            raise InputError("targets must be a list")
        pts, ms = [], []
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or "point" not in row or "mass" not in row:
                raise InputError(f'targets[{i}] must be {{"point": [...], "mass": m}}')
            pts.append(_point(row["point"], f"targets[{i}].point"))
            ms.append(_mass(row["mass"], f"targets[{i}].mass"))
        if len(set(map(len, pts))) > 1:
            raise InputError("target points must share one dimension")
        targets = AtomicMeasure(pts, ms)
    else:
        spec = doc["generator"]
        if not isinstance(spec, dict) or "kind" not in spec or "count" not in spec:
            raise InputError('generator must be {"kind": k, "count": n, "region": {...}}')
        count = spec["count"]
        if not _is_int(count):
            raise InputError(f"generator count must be an integer, got {count!r}")
        pts = generate_points(spec["kind"], count, spec.get("region"), seed)
        targets = AtomicMeasure(pts, [source_mass / count] * count)

    return Instance(float(alpha), source_point, source_mass, targets)


def _parse_csv(text: str, alpha: float | None) -> Instance:
    if alpha is None:
        raise InputError("alpha must be passed explicitly for csv input")
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 3:
        raise InputError("csv needs a header, a source row, and at least one target row")
    header = [c.strip().lower() for c in rows[0]]
    if len(header) < 3 or header[0] != "x" or header[1] != "y" or header[-1] != "mass":
        raise InputError(f"csv header must be x,y[,z...],mass, got {rows[0]}")
    width = len(header)

    def parse_row(row: list[str], lineno: int) -> tuple[tuple[float, ...], float]:
        if len(row) != width:
            raise InputError(f"csv line {lineno}: expected {width} fields, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise InputError(f"csv line {lineno}: {exc}") from None
        return tuple(vals[:-1]), vals[-1]

    source_point, source_mass = parse_row(rows[1], 2)
    pts, ms = [], []
    for i, row in enumerate(rows[2:], start=3):
        p, m = parse_row(row, i)
        pts.append(p)
        ms.append(m)
    targets = AtomicMeasure(pts, ms)
    return Instance(float(alpha), source_point, source_mass, targets)


def _text(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text: {exc}") from None


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _number(val, where: str) -> float:
    """float(val) for a JSON number or numeric string; JSON booleans and
    anything float() cannot take raise InputError."""
    if not isinstance(val, bool):
        try:
            return float(val)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"{where} must be a number, got {val!r}")


def _point(val, where: str) -> tuple[float, ...]:
    if not isinstance(val, list) or len(val) < 2:
        raise InputError(f"{where} must be a coordinate list with d >= 2")
    return tuple(_number(c, f"{where}[{i}]") for i, c in enumerate(val))


def _mass(val, where: str) -> float:
    m = _number(val, where)
    if not (math.isfinite(m) and m > 0):
        raise InputError(f"{where} must be positive and finite, got {m}")
    return m


# ---------------- network JSON ----------------

def export_network(net: TransportNetwork, alpha: float) -> bytes:
    doc = {
        "alpha": alpha,
        "cost": net.cost_m_alpha(alpha),
        "vertices": [
            {"id": v, "coords": net.point(v)}
            for v in net.vertices()
        ],
        "edges": [
            {"from": p, "to": c, "weight": w} for p, c, w in net.edges()
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def import_network(data: bytes | str) -> tuple[TransportNetwork, float]:
    """Rebuild a network from export_network bytes.

    The document is parsed here: integer vertex ids without duplicates,
    numeric coordinates of magnitude at most MAX_NETWORK_COORDINATE (NaN
    fails), weights > 0 and finite, and alpha in (0, 1].  The root must
    carry id 0, as every export from this package does.  Whether the edges
    form one tree is TransportNetwork's to judge: the vertices and edges go
    in through add_vertex and add_edge, and whatever those refuse or
    validate_structure reports (a second dimension, an unknown id, a second
    parent, an edge into the root, a cycle, a vertex the root cannot reach)
    raises InputError.  So does a root outflow that is 0 or overflows, a
    vertex that sends out more than it receives (beyond the mass tolerance
    of the root's outflow), and bytes that are not UTF-8.  Childless
    vertices are marked terminal; the schema does not record flow-through
    target identity.
    """
    data = _text(data)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed network JSON: {exc}") from None
    try:
        alpha = _number(doc["alpha"], "alpha")
        if not 0.0 < alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {alpha}")
        vertices: dict[int, tuple[float, ...]] = {}
        for v in doc["vertices"]:
            vid = v["id"]
            if not _is_int(vid):
                raise InputError(f"vertex id must be an integer, got {vid!r}")
            if vid in vertices:
                raise InputError(f"duplicate vertex id {vid}")
            vertices[vid] = _point(v["coords"], f"vertex {vid} coords")
            if not all(abs(x) <= MAX_NETWORK_COORDINATE for x in vertices[vid]):  # nan fails too
                raise InputError(f"vertex {vid} coords must be finite and at most "
                                 f"{MAX_NETWORK_COORDINATE!r} in magnitude")
        edges = []
        for e in doc["edges"]:
            p, c = e["from"], e["to"]
            if not (_is_int(p) and _is_int(c)):
                raise InputError(f"edge ends must be integer ids, got {p!r} -> {c!r}")
            edges.append((p, c, _mass(e["weight"], f"weight of edge {p}->{c}")))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed network document: {exc}") from None

    if 0 not in vertices:
        raise InputError("network must have the root 0")
    outflow: dict[int, float] = {}
    for p, _, w in edges:
        outflow[p] = outflow.get(p, 0.0) + w
    source_mass = outflow.get(0, 0.0)
    if not 0.0 < source_mass < math.inf:
        raise InputError(f"the root's outflow {source_mass!r} must be positive and finite")
    net = TransportNetwork(vertices.pop(0), source_mass)
    try:
        for vid in sorted(vertices):
            net.add_vertex(vertices[vid], terminal=vid not in outflow, vid=vid)
        for p, c, w in sorted(edges, key=lambda e: e[1]):
            net.add_edge(p, c, w)
    except (KeyError, ValueError, InvariantViolation) as exc:
        raise InputError(f"network is not one tree: {exc.args[0]}") from None
    problems = net.validate_structure()
    if problems:
        raise InputError("network is not one tree: " + "; ".join(problems))

    inflow = {c: w for _, c, w in edges}
    tol = mass_tolerance(source_mass)
    leaky = sorted(v for v, out in outflow.items() if v != 0 and out - inflow[v] > tol)
    if leaky:
        raise InputError(f"vertices {leaky} send out more flow than they receive")
    return net, alpha
