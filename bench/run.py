"""fkdv benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload {dynamics,analysis,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; fkdv is imported from ./src.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it is the full record (environment, sample
counts, tail percentile, failures), also written to
.bench_work/results/<workload>-seed<N>-trace<T>.json.  See bench/README.md.
"""

import os

# one compute thread: pin the BLAS and OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("dynamics", "analysis", "cli")
SETUP_PROBES = 3

# (name, unit); BENCHMARK.json lists the same names
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("elliptic.from_modulus.calls", "count"),
    ("elliptic.from_modulus.self_ms", "ms"),
    ("elliptic.jacobi_cn.points", "count"),
    ("elliptic.jacobi_cn.self_ms", "ms"),
    ("waves.build_profile.calls", "count"),
    ("waves.build_profile.self_ms", "ms"),
    ("waves.conservation_residuals.self_ms", "ms"),
    ("fourier.analytic_coeffs.self_ms", "ms"),
    ("fourier.dft_coeffs.self_ms", "ms"),
    ("fourier.pf2_check.calls", "count"),
    ("fourier.pf2_check.minors", "count"),
    ("fourier.pf2_check.self_ms", "ms"),
    ("fourier.pf2_check.peak_mb", "MB"),
    ("stability.cn2_norm_derivative.calls", "count"),
    ("stability.cn2_norm_derivative.self_ms", "ms"),
    ("stability.solve_flux_for_wavelength.calls", "count"),
    ("stability.solve_flux_for_wavelength.self_ms", "ms"),
    ("stability.gegenbauer_verdict.self_ms", "ms"),
    ("stability.cn4_norm_derivative.self_ms", "ms"),
    ("stability.errors", "count"),
    ("pde.evolve.steps", "count"),
    ("pde.evolve.self_ms", "ms"),
    ("pde.evolve.us_per_step.N512", "us"),
    ("pde.evolve.us_per_step.N1024", "us"),
    ("pde.evolve.us_per_step.N4096", "us"),
    ("pde.orbital_distance.calls", "count"),
    ("pde.orbital_distance.self_ms", "ms"),
    ("pde.diag_share", "fraction"),
    ("pde.stability_experiment.self_ms", "ms"),
    ("pde.errors", "count"),
    ("pde.momentum_drift_max", "ratio"),
    ("cli.import_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.csv_bytes", "bytes"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_ops_per_s", "1/s"),
)
# layer metrics that derive from a wrapped name other than their own prefix
DERIVED_FROM = {"pde.diag_share": "pde.orbital_distance"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the benchmark itself and by its smoke test
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def setup(args, work_dir):
    """import fkdv from ./src, generate the inputs, run one untimed op."""
    sys.path.insert(0, str(SRC))
    import fkdv
    if not Path(fkdv.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"fkdv was imported from {fkdv.__file__}, not from {SRC}")
    import workloads
    workload = workloads.make(args.workload, args.seed, args.tiny, work_dir, child_env())
    workload.warmup()
    return workload


def probe_setups(args, count):
    """Set up ``count`` times in fresh processes; seconds from spawn to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                proc.communicate(timeout=170)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        samples.append(elapsed)
    return samples


def cpu_seconds():
    """CPU time of this process and its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def host_ticks():
    """(steal, total) ticks of the whole machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


@dataclass
class Pass:
    latencies: list
    cpu_times: list
    round_rates: list
    failures: list
    first_op: int
    next_op: int
    steal_frac: float | None

    @property
    def ops_per_s(self):
        return statistics.median(self.round_rates)


def run_pass(workload, seconds, first_op, tracer=None, inject_failure=False):
    """Whole rounds of ops, run until ``seconds`` have passed."""
    import workloads
    latencies, cpu_times, round_rates, failures = [], [], [], []
    op_id = first_op
    ticks0 = host_ticks()
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        ops = workload.next_round()
        round_start = time.perf_counter()
        for label, fn in ops:
            if tracer is not None:
                tracer.op = op_id
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                fn()
                if inject_failure and op_id == first_op:
                    raise workloads.CheckFailed("injected failure")
            # an op failure is counted and the run goes on
            except Exception as exc:
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            cpu_times.append(cpu_seconds() - c0)
            op_id += 1
        round_rates.append(len(ops) / (time.perf_counter() - round_start))
    ticks1 = host_ticks()
    steal_frac = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal_frac = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    return Pass(latencies, cpu_times, round_rates, failures, first_op, op_id, steal_frac)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer
    it falls back to the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(setup_samples, passes):
    latencies = [x for p in passes for x in p.latencies]
    rates = [r for p in passes for r in p.round_rates]
    failed = sum(len(p.failures) for p in passes)
    tail_value, tail_pct, beyond = tail(latencies)
    n = len(latencies)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s",
                    "samples": len(setup_samples)},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s",
                      "samples": len(rates), "ops": n},
        "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms",
                      "samples": n},
        "op_tail_ms": {"value": 1e3 * tail_value, "unit": "ms", "samples": n,
                       "percentile": tail_pct, "beyond": beyond},
        "ok_frac": {"value": (n - failed) / n, "unit": "fraction", "samples": n,
                    "fail_frac": failed / n},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "samples": 1},
    }


def traced_run(args, workload):
    """Untraced half, then traced half; per-layer metrics from the traced one."""
    import tracing
    plain = run_pass(workload, args.seconds / 2, 0, inject_failure=args.inject_failure)
    tracer = tracing.Tracer()
    absent = workload.start_tracing(tracer)
    traced = run_pass(workload, args.seconds / 2, plain.next_op, tracer)
    count_ops = set(range(traced.first_op, traced.first_op + workload.round_size))
    values = tracing.layer_metrics(tracer.spans, len(traced.latencies),
                                   sum(traced.latencies), count_ops)
    values.update(workload.layer_extras())
    values["trace.ops_per_s_untraced"] = plain.ops_per_s
    values["trace.ops_per_s_traced"] = traced.ops_per_s
    values["trace.overhead_ops_per_s"] = traced.ops_per_s - plain.ops_per_s
    metrics = {}
    for name, unit in PER_LAYER:
        source = DERIVED_FROM.get(name, name)
        reason = next((r for m, r in absent.items() if source.startswith(m + ".")
                       or source == m), None)
        if reason is not None:
            metrics[name] = {"value": None, "unit": unit, "absent": reason}
        elif name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        else:
            metrics[name] = {"value": 0, "unit": unit,
                             "note": "not exercised by this workload"}
    metrics["trace.ops_per_s_traced"]["ops"] = len(traced.latencies)
    metrics["trace.ops_per_s_untraced"]["ops"] = len(plain.latencies)
    return [plain, traced], metrics


def environment():
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = proc.stdout.strip() or None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_commit": commit or "unavailable: not a git checkout",
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def host_record(passes):
    """How much the host held the ops back: steal and CPU time per wall time.

    A slow run with ``cpu_over_wall`` near 1 and little steal was slowed on
    the core (a busy neighbour), not by the scheduler.
    """
    latencies = [x for p in passes for x in p.latencies]
    cpu_times = [x for p in passes for x in p.cpu_times]
    steal = [p.steal_frac for p in passes if p.steal_frac is not None]
    return {
        "steal_frac": max(steal) if steal else None,
        "cpu_over_wall": sum(cpu_times) / sum(latencies),
        "op_cpu_p50_ms": 1e3 * statistics.median(cpu_times),
    }


def report(args, passes, metrics, workload):
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "host": host_record(passes),
        "metrics": metrics,
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        **workload.details(),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {len(failures)}")
    print("  host " + "  ".join(f"{k} {'n/a' if v is None else f'{v:.4g}'}"
                              for k, v in record["host"].items()))
    for key, m in metrics.items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:46s} {value:>12s} {m['unit']:8s} {extra or ''}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = setup(args, work_dir)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        if args.trace:
            passes, metrics = traced_run(args, workload)
        else:
            setup_samples = probe_setups(args, 1 if args.tiny else SETUP_PROBES)
            passes = [run_pass(workload, args.seconds, 0, inject_failure=args.inject_failure)]
            metrics = end_to_end(setup_samples, passes)
        report(args, passes, metrics, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
