"""Command-line driver: solve, init, oracle, and render subcommands.

Exit codes: 0 on success, 2 on bad input, 3 on an internal invariant
violation (the offending network, when available, is dumped to stderr as
JSON for diagnosis).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import InputError, InvariantViolation
from .instances import export_network, import_network, parse_instance
from .optimize_global import _INITIALIZERS, global_optimize
from .oracle import enumerate_optimal
from .svg import render_svg


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True,
                   help="instance file path, or - for stdin")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="instance format (default json)")
    p.add_argument("--alpha", type=float, default=None,
                   help="cost exponent in (0, 1]; overrides the document")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for generator specs; overrides the document")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-json", default=None, metavar="PATH",
                   help="write the network JSON here (default: stdout)")
    p.add_argument("--out-svg", default=None, metavar="PATH",
                   help="also render the network to SVG")


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Raise InputError, creating nothing, unless path names a file in an
    existing writable directory."""
    target = Path(path)
    if target.is_dir() or not (target.parent.is_dir() and os.access(target.parent, os.W_OK)):
        raise InputError(f"cannot write {path}: not a file in a writable directory")


def _write_output(path: str, blob: bytes) -> None:
    try:
        Path(path).write_bytes(blob)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_instance(args: argparse.Namespace):
    inst = parse_instance(_read_input(args.input), args.format,
                          alpha=args.alpha, seed=args.seed)
    args.alpha = inst.alpha  # keep for diagnostic dumps
    return inst


def _emit(net, alpha: float, args: argparse.Namespace) -> None:
    blob = export_network(net, alpha)
    svg = render_svg(net, alpha) if args.out_svg else None
    if args.out_json:
        _write_output(args.out_json, blob)
    if svg is not None:
        _write_output(args.out_svg, svg)
    if args.out_json or args.out_svg:
        print(f"cost={net.cost_m_alpha(alpha)!r} vertices={net.n_vertices()} "
              f"edges={net.n_edges()}")
    else:
        sys.stdout.buffer.write(blob)


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    net = global_optimize(inst.source_measure(), inst.targets, inst.alpha, args.initializer)
    _emit(net, inst.alpha, args)
    return 0


def _cmd_init(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    build = _INITIALIZERS[args.initializer]
    net = build(inst.source_point, inst.source_mass, inst.targets, inst.alpha)
    _emit(net, inst.alpha, args)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    net, _cost = enumerate_optimal(inst.source_measure(), inst.targets, inst.alpha)
    _emit(net, inst.alpha, args)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    net, alpha = import_network(_read_input(args.input))
    args.alpha = alpha
    svg = render_svg(net, alpha)
    if args.out_svg:
        _write_output(args.out_svg, svg)
    else:
        sys.stdout.buffer.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchflow",
        description="Branched transport networks: solve, initialize, verify, render.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the full optimization pipeline")
    _add_instance_flags(p)
    _add_output_flags(p)
    p.add_argument("--initializer", choices=_INITIALIZERS, default="subdivision")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("init", help="construct an initial network only")
    _add_instance_flags(p)
    _add_output_flags(p)
    p.add_argument("--initializer", choices=_INITIALIZERS, default="subdivision")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("oracle", help="brute-force optimum for N <= 4 targets")
    _add_instance_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", help="render a network JSON file to SVG")
    p.add_argument("--input", required=True,
                   help="network JSON path, or - for stdin")
    p.add_argument("--out-svg", default=None, metavar="PATH",
                   help="SVG output path (default: stdout)")
    p.set_defaults(func=_cmd_render)
    return parser


# built on the first main call, not at import, then reused: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # output paths are checked before any work, so a bad one costs no
        # solve and leaves no partial output behind
        for path in (getattr(args, "out_json", None), args.out_svg):
            if path:
                _check_writable(path)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        net = getattr(exc, "network", None)
        if net is not None:
            alpha = getattr(args, "alpha", None)
            try:
                sys.stderr.buffer.write(export_network(net, alpha if alpha else 1.0))
            except Exception:
                print("(diagnostic dump failed)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
