"""branchflow benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-planar --seed 1 --seconds 36 --trace 0

The run generates its instances from --seed, times each operation (one
instance through `branchflow solve`, and on certify-small also through
`branchflow oracle`) back to back for --seconds, checks every output, and
prints one metric per line followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 wrappers
from pb_trace.py time and count calls into each module and the metrics are
the per-layer ones, normalised per operation.  The end-to-end times are
scaled to a nominal machine speed by a reference timed in a helper
interpreter through the run (pb_speed.py); the unscaled times are printed
too.  The outcome metrics (cost_ratio, oracle_hit_frac) are taken over a
fixed number of leading instances, solved after the timed loop if it did
not reach them, so they repeat exactly for a seed however fast the solver
is.  --ops N runs exactly
N operations instead of running for --seconds, so counts repeat exactly;
the outcome metrics are then taken over those N.
The package is imported from ./src; nothing is installed.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3  # fresh interpreters that repeat set-up, for a median setup_s
PROBE_TIMEOUT_S = 60

SPEED_SAMPLES = 3  # reference timings after the run's own set-up, for their median
SAMPLE_EVERY_S = 0.5  # least time between reference timings in the timed loop

# end-to-end metric -> unit, printed with --trace 0
END_TO_END = {"op_norm_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB", "cost_ratio": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="branchflow benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many operations instead of --seconds")
    p.add_argument("--probe-setup", default=None, metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import branchflow from ./src and the benchmark modules; returns them."""
    sys.path.insert(0, str(ROOT / "src"))
    import branchflow  # noqa: F401
    import pb_checks
    import pb_speed
    import pb_workloads
    return pb_workloads, pb_checks, pb_speed


def setup(workloads, args, directory: Path):
    """Import plus instance generation: everything before the first op."""
    workload = workloads.WORKLOADS[args.workload]
    directory.mkdir(parents=True, exist_ok=True)
    stream = workloads.CaseStream(workload, args.seed, directory)
    stream.get(workload.pool - 1)
    return workload, stream


def probe_setup_times(args, run_dir: Path, ref) -> list[tuple[float, float]]:
    """Repeat import + generation in fresh interpreters, one at a time;
    returns (set-up seconds, reference seconds around it) for each."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe-setup", str(run_dir / f"probe-{k}")]
        before = ref.sample()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=True)
        times.append((float(done.stdout.split()[-1]), 0.5 * (before + ref.sample())))
        shutil.rmtree(run_dir / f"probe-{k}", ignore_errors=True)
    return times


def machine_facts() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} cpu=\"{cpu}\" python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


class Runner:
    def __init__(self, workloads, checks, workload, stream, run_dir: Path):
        self.workloads = workloads
        self.checks = checks
        self.workload = workload
        self.stream = stream
        self.out_dir = run_dir / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.facts: dict[int, dict | None] = {}  # instance -> checked facts, None if failed

    def run(self, case, tracer=None) -> float | None:
        """Run, time and check one operation; returns its latency in seconds,
        or None when it raised.  Every failure is counted and reported on
        stderr; none aborts the run."""
        self.attempted += 1
        self.facts[case.index] = None
        try:
            if tracer is None:
                out = self.workloads.run_op(self.workload, case, self.out_dir)
            else:
                with tracer.op(case.index):
                    out = self.workloads.run_op(self.workload, case, self.out_dir)
        except (Exception, SystemExit) as exc:  # argparse exits on bad argv
            self.failed += 1
            print(f"op {case.index}: raised {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        try:
            problems, facts = self.checks.check_op(case, out)
        except Exception as exc:
            problems, facts = [f"checker raised {exc!r}"], None
        for path in (out.solve_json, out.svg, out.oracle_json):
            if path is not None:
                path.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"op {case.index}: {problem}", file=sys.stderr)
        elif case.index >= 0:
            self.facts[case.index] = facts
        return out.latency_s

    def loop(self, seconds: float, ops: int | None, tracer=None, ref=None):
        """Closed loop: each operation starts when the previous one ends.
        With a speed reference, it is sampled before the first operation,
        after an operation whenever SAMPLE_EVERY_S have passed since the
        last sample, and once more after the loop.  Returns (latencies,
        wall, reference samples)."""
        latencies, samples = [], []
        t0 = last = time.perf_counter()
        if ref:
            samples.append(ref.sample())
        i = 0
        while (i < ops) if ops is not None else (i == 0 or time.perf_counter() - t0 < seconds):
            latency = self.run(self.stream.get(i), tracer)
            if latency is not None:
                latencies.append(latency)
            i += 1
            if ref and time.perf_counter() - last >= SAMPLE_EVERY_S:
                samples.append(ref.sample())
                last = time.perf_counter()
        wall = time.perf_counter() - t0
        if ref:
            samples.append(ref.sample())
        return latencies, wall, samples

    def complete(self, n: int) -> list[dict]:
        """Run, untimed and untraced, whichever of the first n instances the
        timed loop did not reach; returns the facts of those that passed."""
        for i in range(n):
            if i not in self.facts:
                self.run(self.stream.get(i))
        return [self.facts[i] for i in range(n) if self.facts[i] is not None]


def outcome(facts: list[dict], runner: Runner) -> dict:
    """Deterministic outcome metrics of the leading instances."""
    ratios = [f["cost_ratio"] for f in facts]
    hits = [f["oracle_hit"] for f in facts if "oracle_hit" in f]
    out = {"cost_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
           "failed_frac": (runner.failed / max(runner.attempted, 1), "ratio")}
    if hits:
        out["oracle_hit_frac"] = (sum(hits) / len(hits), "ratio")
    return out


def end_to_end(latencies, samples, facts, wall, setups, ref, runner) -> tuple[dict, dict]:
    """`samples` are the loop's reference timings; `setups` holds (set-up
    seconds, reference seconds) pairs."""
    extra = outcome(facts, runner)
    op_mean_s = statistics.fmean(latencies)
    values = {
        "op_norm_ms": 1e3 * ref.scale(op_mean_s, statistics.fmean(samples)),
        "setup_s": statistics.median(ref.scale(s, r) for s, r in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cost_ratio": extra.pop("cost_ratio")[0],
    }
    metrics = {name: (v, END_TO_END[name]) for name, v in values.items()}
    p50 = 1e3 * statistics.median(latencies)
    extra.update(op_mean_ms=(1e3 * op_mean_s, "ms"),
                 setup_raw_s=(statistics.median(s for s, _ in setups), "s"),
                 reference_ms=(1e3 * statistics.fmean(samples), "ms"),
                 wall_s=(wall, "s"), ops=(len(latencies), "count"), op_p50_ms=(p50, "ms"))
    if len(latencies) >= 2:
        p90 = 1e3 * statistics.quantiles(latencies, n=10)[8]
        extra["op_p90_ms"] = (p90, "ms")
        if "oracle_hit_frac" in extra:
            extra["certify_p50_ms"] = (p50, "ms")
            extra["certify_p90_ms"] = (p90, "ms")
    return metrics, extra


# per-layer metric -> (unit, direction); values are per traced operation
LAYER_METRICS = {
    "network.cost_calls": ("count/op", "lower"),
    "network.cost_s": ("s/op", "lower"),
    "network.copy_calls": ("count/op", "lower"),
    "network.copy_s": ("s/op", "lower"),
    "network.restore_calls": ("count/op", "lower"),
    "network.canonicalize_s": ("s/op", "lower"),
    "network.final_vertices": ("count/op", "lower"),
    "optimize_local.sweep_s": ("s/op", "lower"),
    "optimize_local.sweep_self_s": ("s/op", "lower"),
    "optimize_local.sweeps": ("count/op", "lower"),
    "optimize_local.improve_calls": ("count/op", "lower"),
    "optimize_local.improve_s": ("s/op", "lower"),
    "optimize_local.improve_self_s": ("s/op", "lower"),
    "optimize_local.improve_accepted": ("count/op", "lower"),
    "optimize_local.accept_ratio": ("ratio", "higher"),
    "bifurcation.solve_calls": ("count/op", "lower"),
    "bifurcation.solve_s": ("s/op", "lower"),
    "optimize_global.total_s": ("s/op", "lower"),
    "optimize_global.self_s": ("s/op", "lower"),
    "optimize_global.stage_coverage": ("s/s", "higher"),
    "optimize_global.rounds": ("count/op", "lower"),
    "optimize_global.reparent_s": ("s/op", "lower"),
    "optimize_global.reparent_evals": ("count/op", "lower"),
    "optimize_global.rewires": ("count/op", "lower"),
    "optimize_global.reparent_yield": ("ratio", "higher"),
    "optimize_global.subdivide_s": ("s/op", "lower"),
    "construct.build_s": ("s/op", "lower"),
    "instances.parse_s": ("s/op", "lower"),
    "instances.export_s": ("s/op", "lower"),
    "svg.render_s": ("s/op", "lower"),
    "oracle.enumerate_calls": ("count/op", "lower"),
    "oracle.enumerate_s": ("s/op", "lower"),
    "oracle.grid_calls": ("count/op", "lower"),
    "oracle.grid_s": ("s/op", "lower"),
    "oracle.hit_frac": ("ratio", "higher"),
    "trace.overhead_s": ("s/op", "lower"),
}


def per_layer(tracer, spans, latencies, facts, untraced, runner) -> tuple[dict, dict]:
    k = max(len(latencies), 1)

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / k

    def secs(name, key="s"):
        return spans.get(name, {}).get(key, 0.0) / k

    def share(num, den):
        return num / den if den else 0.0

    extra = outcome(facts, runner)
    improve_calls = calls("optimize_local.improve")
    accepted = tracer.counts.get("improve_accepted", 0) / k
    evals = calls("optimize_global.evaluate_reparent")
    rewires = calls("optimize_global.rewire")
    go_total = secs("optimize_global.global_optimize")
    go_self = secs("optimize_global.global_optimize", "self_s")
    vertices = [f["vertices"] for f in facts]
    traced_cal = latencies[:len(untraced)]
    values = {
        "network.cost_calls": calls("network.cost"),
        "network.cost_s": secs("network.cost"),
        "network.copy_calls": calls("network.copy"),
        "network.copy_s": secs("network.copy"),
        "network.restore_calls": calls("network.restore"),
        "network.canonicalize_s": secs("network.canonicalize"),
        "network.final_vertices": share(sum(vertices), len(vertices)),
        "optimize_local.sweep_s": secs("optimize_local.sweep"),
        "optimize_local.sweep_self_s": secs("optimize_local.sweep", "self_s"),
        "optimize_local.sweeps": tracer.counts.get("sweeps", 0) / k,
        "optimize_local.improve_calls": improve_calls,
        "optimize_local.improve_s": secs("optimize_local.improve"),
        "optimize_local.improve_self_s": secs("optimize_local.improve", "self_s"),
        "optimize_local.improve_accepted": accepted,
        "optimize_local.accept_ratio": share(accepted, improve_calls),
        "bifurcation.solve_calls": calls("bifurcation.solve"),
        "bifurcation.solve_s": secs("bifurcation.solve"),
        "optimize_global.total_s": go_total,
        "optimize_global.self_s": go_self,
        "optimize_global.stage_coverage": share(go_total - go_self, go_total),
        "optimize_global.rounds": calls("optimize_local.sweep"),
        "optimize_global.reparent_s": secs("optimize_global.reparent"),
        "optimize_global.reparent_evals": evals,
        "optimize_global.rewires": rewires,
        "optimize_global.reparent_yield": share(rewires, evals),
        "optimize_global.subdivide_s": secs("optimize_global.subdivide"),
        "construct.build_s": secs("construct.build"),
        "instances.parse_s": secs("instances.parse"),
        "instances.export_s": secs("instances.export"),
        "svg.render_s": secs("svg.render"),
        "oracle.enumerate_calls": calls("oracle.enumerate"),
        "oracle.enumerate_s": secs("oracle.enumerate"),
        "oracle.grid_calls": calls("oracle.grid"),
        "oracle.grid_s": secs("oracle.grid"),
        "oracle.hit_frac": extra.pop("oracle_hit_frac", (0.0, "ratio"))[0],
        "trace.overhead_s": share(sum(traced_cal) - sum(untraced), len(untraced)),
    }
    extra["ops"] = (len(latencies), "count")
    return {name: (v, LAYER_METRICS[name][0]) for name, v in values.items()}, extra


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One client, no threads: keep numpy's BLAS from starting worker threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        workloads, checks, speed = import_package()
    except ImportError as exc:
        print(f"error: cannot import branchflow from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.probe_setup:
        setup(workloads, args, Path(args.probe_setup))
        print(repr(time.perf_counter() - _T0))
        return 0

    run_dir = WORK_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, run_dir, ignore_errors=True)
        workload, stream = setup(workloads, args, run_dir / "inst")
        setup_s = time.perf_counter() - _T0
        ref = None if args.trace else stack.enter_context(speed.Reference())
        if ref:
            own = statistics.median(ref.sample() for _ in range(SPEED_SAMPLES))
            setups = [(setup_s, own)] + probe_setup_times(args, run_dir, ref)
        print(f"branchflow benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} ops={args.ops}")
        print(f"machine: {machine_facts()}")
        runner = Runner(workloads, checks, workload, stream, run_dir)
        runner.run(stream.warmup(args.seed))
        n_outcome = workload.quality_ops if args.ops is None else args.ops
        if args.trace:
            import pb_trace
            n_cal = min(workload.calibration_ops, args.ops or workload.calibration_ops)
            untraced = [runner.run(stream.get(i)) for i in range(n_cal)]
            untraced = [t for t in untraced if t is not None]
            tracer = pb_trace.Tracer()
            latencies, wall, _ = runner.loop(args.seconds, args.ops, tracer)
            facts = runner.complete(n_outcome)
            spans = tracer.summary()
            metrics, extra = per_layer(tracer, spans, latencies, facts, untraced, runner)
            WORK_DIR.mkdir(exist_ok=True)
            tracer.save(WORK_DIR / f"trace-{args.workload}.npz")
            print(f"spans: {len(tracer.start)} written to .perfbench/trace-{args.workload}.npz")
            for name, row in sorted(spans.items()):
                print(f"span {name}: calls={row['calls']} s={row['s']:.4f} "
                      f"self_s={row['self_s']:.4f}")
        else:
            latencies, wall, samples = runner.loop(args.seconds, args.ops, ref=ref)
            facts = runner.complete(n_outcome)
            metrics, extra = end_to_end(latencies, samples, facts, wall, setups, ref, runner)

    print(f"ops: attempted={runner.attempted} failed={runner.failed}")
    print_metrics(metrics)
    print_metrics(extra)
    print(json.dumps({
        "correct": runner.failed == 0 and bool(latencies),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
