#!/usr/bin/env python3
"""emdenlab benchmark: four workloads, untraced end-to-end runs, traced layer runs.

Run from the repository root:

    python3 bench/run.py --workload threshold_search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

--trace 0 times the workload's user-visible calls with nothing patched and
prints the end-to-end metrics, times scaled to a reference speed (see
Speed).  --trace 1 runs every call twice, once with
emdenlab's public functions wrapped (see tracing.py) and once without, in
alternating order, and prints the per-layer metrics.  Every output
is checked in both modes; the last line of standard output is one JSON
object, and the exit code is 1 when a check failed.  A results file with
the environment, the load, the metrics and the deterministic counts is
written to bench/out/results/.
"""

import os

# One BLAS/OpenMP thread per process: the pool already uses every core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import multiprocessing.pool
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 9
MIN_CALLS = 11  # call_tail_ms needs ten samples beyond the percentile it reports

# Reference speed (see Speed): a fixed loop of REF_LOOPS steps, run every
# REF_EVERY_S seconds of a timed run; times are scaled to the loop taking
# REF_NOMINAL_S, its typical time on the 2-vCPU machine of the baseline.
REF_LOOPS = 60_000
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.005

END_TO_END = {
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "oracle_err_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "peak_rss_total_mb": "MB",
}

PER_LAYER = {
    "shooting.shoot_ms": "ms",
    "shooting.integrate_ms": "ms",
    "shooting.series_start_us": "us",
    "shooting.classify_us": "us",
    "shooting.node_eval_ms": "ms",
    "shooting.pool_busy_ratio": "ratio",
    "shooting.pool_peak_rss_mb": "MB",
    "shooting.probes_per_bisection": "count",
    "shooting.probe_ms": "ms",
    "shooting.nodes_per_shot": "count",
    "shooting.inconclusive_ratio": "ratio",
    "shooting.csv_write_ms": "ms",
    "shooting.csv_read_ms": "ms",
    "shooting.self_ms": "ms",
    "ckn.best_constant_ms": "ms",
    "ckn.energy_ms": "ms",
    "ckn.closed_form_us": "us",
    "ckn.refusal_us": "us",
    "ckn.profile_evals": "count",
    "ckn.decades": "count",
    "ckn.self_ms": "ms",
    "closed_forms.bubble_eval_us": "us",
    "closed_forms.bubble_eval_calls": "count",
    "closed_forms.residual_ms": "ms",
    "closed_forms.self_ms": "ms",
    "pohozaev.evaluate_ms": "ms",
    "pohozaev.node_integral_ms": "ms",
    "pohozaev.self_ms": "ms",
    "emden_fowler.to_cylinder_us": "us",
    "emden_fowler.hamiltonian_us": "us",
    "emden_fowler.self_ms": "ms",
    "params.classify_us": "us",
    "params.derive_us": "us",
    "params.self_ms": "ms",
    "cli.classify_ms": "ms",
    "cli.shoot_ms": "ms",
    "cli.pohozaev_ms": "ms",
    "cli.pohozaev_traj_ms": "ms",
    "cli.bubble_ms": "ms",
    "cli.phase_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
}

_perf = time.perf_counter


def import_emdenlab():
    """Import the package from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "emdenlab", "__init__.py")):
        raise SystemExit(f"bench: no emdenlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import emdenlab
    import emdenlab.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.dirname(os.path.abspath(emdenlab.__file__))) != SRC:
        raise SystemExit(f"bench: emdenlab was imported from {emdenlab.__file__}")
    return emdenlab


def make_workload(E, name, seed, tiny):
    from workloads import FINDINGS, WORKLOADS, CliSession

    cls = {**WORKLOADS, **FINDINGS}[name]
    if cls is CliSession:
        out_dir = os.path.join(OUT, f"cli-{os.getpid()}")
        os.makedirs(out_dir, exist_ok=True)
        return cls(E, seed, tiny, out_dir)
    return cls(E, seed, tiny)


class PoolMeter:
    """Peak resident memory of the sweep's pool workers, read before they stop.

    Replaces the ``multiprocessing`` name that emdenlab.shooting looks up with
    one whose Pool records each worker's VmHWM when the pool terminates.
    """

    def __init__(self, shooting):
        self.peaks_mb: list[float] = []
        self.processes: list[int] = []
        meter = self

        class MeasuredPool(multiprocessing.pool.Pool):
            def terminate(self):
                if not getattr(self, "_metered", False):
                    self._metered = True
                    meter.record(self._pool)
                super().terminate()

        shooting.multiprocessing = types.SimpleNamespace(Pool=MeasuredPool)

    def record(self, workers) -> None:
        total = 0.0
        for proc in workers:
            try:
                with open(f"/proc/{proc.pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        self.peaks_mb.append(total)
        self.processes.append(len(workers))

    @property
    def peak_mb(self) -> float:
        return max(self.peaks_mb, default=0.0)


# ------------------------------------------------------------------- timing


class Speed:
    """How fast the machine runs right now, read from a fixed pure-Python loop.

    On a shared virtual machine the same code runs 20-30% slower or faster
    from one stretch of seconds to the next, whatever the benchmark does.
    ``mark`` times the loop; ``scale(t)`` is REF_NOMINAL_S over the median
    loop time of the four marks around t, and a call's time times that
    scale is what it would have taken at the nominal speed.  The loop runs
    between calls, never during one, so nothing the program does is
    slowed by it; work the program leaves running between calls would
    slow the loop and be hidden, which no workload here does.

    Calls that run on several CPUs (the pooled sweep) are scaled by a Speed
    of that many processes: it keeps its own idle pool, and a mark is the
    median of three loops on each of them at once.  ``close`` stops it.
    """

    def __init__(self, processes: int = 1):
        self.marks: list[tuple[float, float]] = []
        self.pool = multiprocessing.Pool(processes) if processes > 1 else None
        self.processes = processes
        if self.pool:  # let every worker start before the first mark
            self.pool.map(reference_loop, range(3 * processes), chunksize=1)

    def mark(self) -> None:
        t0 = _perf()
        if self.pool:
            dt = statistics.median(
                self.pool.map(reference_loop, range(3 * self.processes), chunksize=1)
            )
        else:
            dt = reference_loop()
        self.marks.append((t0, dt))

    def close(self) -> None:
        if self.pool:
            self.pool.terminate()
            self.pool.join()

    def due(self) -> bool:
        return not self.marks or _perf() - self.marks[-1][0] >= REF_EVERY_S

    def scale(self, t: float) -> float:
        k = bisect.bisect_right(self.marks, (t, math.inf))
        near = [dt for _, dt in self.marks[max(0, k - 2):k + 2]]
        return REF_NOMINAL_S / statistics.median(near)


def reference_loop(_=None) -> float:
    """Seconds a fixed pure-Python loop of REF_LOOPS steps takes."""
    t0 = _perf()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return _perf() - t0


def timed_loop(wl, report, seconds, min_calls, max_calls=None, tracer=None, start=0,
               speed=None):
    """Call the workload's operations in turn from ``start``.

    Returns [(index, seconds, start time)] per call.  With ``speed``, the
    reference loop is timed between calls every REF_EVERY_S and once at the
    end.
    """
    samples = []
    t_start = _perf()
    n = 0
    while True:
        i = (start + n) % len(wl)
        if speed and speed.due():
            speed.mark()
        root = tracer.open(f"bench.{wl.label(i)}") if tracer else None
        t0 = _perf()
        try:
            result = wl.call(i)
        except Exception as exc:  # an unexpected exception is a failed operation
            dt = _perf() - t0
            if tracer:
                tracer.close(root, True)
            report.op(False, f"{wl.label(i)} #{i} raised {type(exc).__name__}: {exc}")
        else:
            dt = _perf() - t0
            if tracer:
                tracer.close(root)
            wl.check(i, result, report)
        samples.append((i, dt, t0))
        n += 1
        if max_calls is not None and n >= max_calls:
            break
        if _perf() - t_start >= seconds and n >= min_calls:
            break
    if speed:
        speed.mark()
    return samples


def tail(durations):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(durations)
    if n < MIN_CALLS:
        return math.nan, math.nan
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def setup_seconds(workload, seed, tiny):
    """Times from starting a fresh interpreter until the first op is ready.

    Returns [(seconds, reference loop seconds)] per probe: once ready, the
    probe's interpreter times the reference loop three times and reports
    the median, so each probe is scaled by the speed of its own CPU.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = _perf()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = _perf() - t0
            reference = proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: set-up probe failed with exit code {code}")
        samples.append((elapsed, float(reference)))
    return samples


# ------------------------------------------------------------------ metrics


def timings(wl, samples, setup_samples, scaled):
    """The timed end-to-end metrics, at the reference speed if ``scaled``."""
    durations = [dt * (scaled.scale(t) if scaled else 1.0) for _, dt, t in samples]
    tail_value, tail_pct = tail(durations)
    metrics = {
        "work_per_s": sum(wl.units(i) for i, _, _ in samples) / sum(durations),
        "call_p50_ms": 1e3 * statistics.median(durations),
        "call_tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(
            dt * (REF_NOMINAL_S / reference if scaled else 1.0) for dt, reference in setup_samples
        ),
    }
    return metrics, tail_pct


def end_to_end(wl, samples, report, setup_samples, speed, meter):
    metrics, tail_pct = timings(wl, samples, setup_samples, speed)
    raw, _ = timings(wl, samples, setup_samples, None)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.update(
        oracle_err_ratio=report.oracle_err_ratio,
        peak_rss_mb=peak_mb,
        peak_rss_total_mb=peak_mb + meter.peak_mb,
    )
    notes = {
        "calls": len(samples),
        "call_tail_percentile": tail_pct,
        "unscaled_timings": raw,
        "reference_loop_s": [dt for _, dt in speed.marks],
    }
    return {k: metrics[k] for k in END_TO_END}, notes


def traced_run(wl, report, seconds, meter):
    """Passes over the inputs, each call run untraced and traced in a pair.

    Consecutive pairs swap which run goes first, so the second run's warm
    caches favour neither, and the tracing overhead is the median over the
    pairs of traced over untraced time, minus one.  The first pass's
    tracer gives the per-layer metrics; later passes, made while time is
    left, use fresh tracers and only add pairs.  The pooled sweep cannot
    be traced in its workers: its untraced wall time is taken once, and
    the pairs are serial sweeps, two per pass.
    """
    from tracing import Tracer

    t_start = _perf()
    pooled_s = None
    if wl.pooled:
        pooled_s = timed_loop(wl, report, 0.0, 1, 1)[0][1]
        ops = [lambda tracer: serial_sweep(wl, report, tracer)] * 2
    else:
        ops = [lambda tracer, i=i: traced_call(wl, report, i, tracer) for i in range(len(wl))]
    first = Tracer()
    ratios = []
    passes = 0
    while not passes or _perf() - t_start < seconds:
        tracer = first if not passes else Tracer()
        for op in ops:
            order = (False, True) if len(ratios) % 2 == 0 else (True, False)
            took = {traced: op(tracer if traced else None) for traced in order}
            ratios.append(took[True] / took[False])
        passes += 1
    calls = len(ops)
    metrics, counts = per_layer(wl, first, pooled_s, meter, calls)
    metrics["trace.overhead_ratio"] = statistics.median(ratios) - 1.0
    extra = {"counts": counts, "calls_traced": calls, "overhead_pairs": len(ratios),
             "overhead_pair_quartiles": [r - 1.0 for r in statistics.quantiles(ratios, n=4)],
             "passes": passes}
    return metrics, extra, first


def traced_call(wl, report, i, tracer=None):
    """Operation i, checked, with ``tracer`` installed if given; its wall time."""
    if tracer:
        tracer.install()
    try:
        return timed_loop(wl, report, 0.0, 1, 1, tracer, start=i)[0][1]
    finally:
        if tracer:
            tracer.uninstall()


def serial_sweep(wl, report, tracer=None):
    """One sweep run with processes=1, checked; returns its wall time."""
    if tracer:
        tracer.install()
        root = tracer.open("bench.serial_sweep")
    try:
        t0 = _perf()
        outcomes = wl.call(0, processes=1)
        elapsed = _perf() - t0
    finally:
        if tracer:
            tracer.close(root)
            tracer.uninstall()
    wl.check(0, outcomes, report)
    return elapsed


def per_layer(wl, tracer, pooled_s, meter, calls):
    by_name, by_edge, raised = tracer.summary()
    counts = tracer.counts

    def mean(name, scale):
        n, total, _ = by_name.get(name, (0, 0.0, 0.0))
        return scale * total / n if n else 0.0

    def edge_mean(name, parent, scale):
        n, total = by_edge.get((name, parent), (0, 0.0))
        return scale * total / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    shoot = by_name.get("shooting.shoot", (0, 0.0, 0.0))
    m["shooting.shoot_ms"] = mean("shooting.shoot", 1e3)
    m["shooting.integrate_ms"] = 1e3 * ratio(shoot[2], shoot[0])
    m["shooting.series_start_us"] = mean("shooting.series_start", 1e6)
    m["shooting.classify_us"] = mean("shooting.classify_trajectory", 1e6)
    m["shooting.node_eval_ms"] = edge_mean("shooting.node_eval", "shooting.shoot", 1e3)
    if wl.pooled:
        # shots run in the parent only in the serial sweep; pooled ones are not traced
        m["shooting.pool_busy_ratio"] = shoot[1] / (pooled_s * wl.processes)
        m["shooting.pool_peak_rss_mb"] = meter.peak_mb
    m["shooting.probes_per_bisection"] = ratio(
        counts["shooting.probes"], by_name.get("shooting.threshold_bisect", (0,))[0]
    )
    m["shooting.probe_ms"] = edge_mean("shooting.shoot", "shooting.threshold_bisect", 1e3)
    m["shooting.nodes_per_shot"] = ratio(counts["shooting.nodes"], counts["shooting.shots"])
    m["shooting.inconclusive_ratio"] = ratio(
        counts["shooting.inconclusive"], counts["shooting.shots"]
    )
    m["shooting.csv_write_ms"] = mean("shooting.trajectory_to_csv", 1e3)
    m["shooting.csv_read_ms"] = mean("shooting.trajectory_from_csv", 1e3)
    n_bc, total_bc, _ = by_name.get("ckn.best_constant", (0, 0.0, 0.0))
    n_refused, total_refused = raised.get("ckn.best_constant", (0, 0.0))
    m["ckn.best_constant_ms"] = 1e3 * ratio(total_bc - total_refused, n_bc - n_refused)
    m["ckn.energy_ms"] = mean("ckn.energy", 1e3)
    m["ckn.closed_form_us"] = mean("ckn.bubble_energy_closed_form", 1e6)
    refusals = [v for k, v in raised.items() if k.startswith("ckn.")]
    m["ckn.refusal_us"] = 1e6 * ratio(sum(v[1] for v in refusals), sum(v[0] for v in refusals))
    m["ckn.profile_evals"] = ratio(counts["ckn.profile_evals"], counts["ckn.energy_calls"])
    m["ckn.decades"] = ratio(counts["ckn.decades"], counts["ckn.energy_calls"])
    m["closed_forms.bubble_eval_us"] = edge_mean("closed_forms.bubble_eval", "ckn.energy", 1e6)
    m["closed_forms.bubble_eval_calls"] = ratio(
        by_edge.get(("closed_forms.bubble_eval", "ckn.energy"), (0,))[0],
        counts["ckn.energy_calls"],
    )
    m["closed_forms.residual_ms"] = mean("closed_forms.residual", 1e3)
    m["pohozaev.evaluate_ms"] = mean("pohozaev.evaluate", 1e3)
    m["pohozaev.node_integral_ms"] = mean("pohozaev.weighted_node_integral", 1e3)
    m["emden_fowler.to_cylinder_us"] = mean("emden_fowler.to_cylinder", 1e6)
    m["emden_fowler.hamiltonian_us"] = mean("emden_fowler.hamiltonian", 1e6)
    m["params.classify_us"] = mean("params.classify", 1e6)
    m["params.derive_us"] = mean("params.derive", 1e6)
    if wl.name == "cli_session":
        for step in set(wl.STEPS):
            m[f"cli.{step}_ms"] = mean(f"bench.{step}", 1e3)
        m["cli.bytes_written"] = wl.bytes_written / len(wl.sessions)

    layer_self = {}
    root_total = root_self = 0.0
    for name, (_, total, self_s) in by_name.items():
        layer = name.split(".", 1)[0]
        if layer == "bench":
            root_total += total
            root_self += self_s
        else:
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    for layer, self_s in layer_self.items():
        m[f"{layer}.self_ms"] = 1e3 * self_s / calls
    m["trace.layer_share"] = ratio(root_total - root_self, root_total)

    deterministic = {k: int(v) for k, v in sorted(counts.items())}
    deterministic.update({f"spans.{k}": v[0] for k, v in sorted(by_name.items())})
    if wl.name == "cli_session":
        deterministic["cli.bytes_written"] = wl.bytes_written
    return m, deterministic


# -------------------------------------------------------------- environment


def environment(wl, meter):
    import numpy
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), ""
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "pool_processes": getattr(wl, "processes", None),
        "pool_sizes_seen": sorted(set(meter.processes)),
        "load": "closed loop in one benchmark process; the next call starts when the last returns",
    }


# --------------------------------------------------------------------- main


def run_one(args):
    tiny = args.tiny
    if not os.path.isfile(os.path.join(SRC, "emdenlab", "__init__.py")):
        raise SystemExit(f"bench: no emdenlab sources under {SRC}")
    # set-up is an end-to-end metric; traced runs skip its probes
    setup_samples = [] if args.trace else setup_seconds(args.workload, args.seed, tiny)
    E = import_emdenlab()
    from workloads import Report

    wl = make_workload(E, args.workload, args.seed, tiny)
    meter = PoolMeter(E.shooting)
    if wl.pooled and wl.processes > len(os.sched_getaffinity(0)):
        raise SystemExit("bench: pool larger than the CPUs this process may use")
    report = Report()
    result = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": tiny, "unit_of_work": wl.unit,
              "setup_samples_s": setup_samples}
    try:
        wl.warm_up()
        if args.trace:
            metrics, extra, tracer = traced_run(wl, report, args.seconds, meter)
            write_spans(tracer, f"{wl.name}-seed{args.seed}-spans.csv")
            units = PER_LAYER
        else:
            speed = Speed(wl.processes if wl.pooled else 1)
            try:
                # at least one full pass, so the oracle errors cover every input
                samples = timed_loop(wl, report, args.seconds, max(MIN_CALLS, len(wl)),
                                     speed=speed)
            finally:
                speed.close()
            metrics, extra = end_to_end(wl, samples, report, setup_samples, speed, meter)
            units = END_TO_END
        result.update(extra)
    finally:
        wl.close()

    correct = report.failed == 0
    result.update(
        environment=environment(wl, meter),
        correct=correct,
        attempted=report.attempted,
        failed=report.failed,
        failed_ops_ratio=report.failed / max(report.attempted, 1),
        worst_error_ratios=report.worst,
        anchor_error_ratios=report.anchor_worst,
        failures=report.failures,
        metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
    )
    write_result(result, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    print_table(result)
    line = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0 if correct else 1


def write_result(result, name):
    path = os.path.join(OUT, "results")
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, name), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_spans(tracer, name):
    path = os.path.join(OUT, "results")
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, name), "w") as fh:
        fh.write("name,start_s,end_s,parent,raised\n")
        for span_name, start, end, parent, raised in tracer.spans():
            fh.write(f"{span_name},{start!r},{end!r},{parent},{int(raised)}\n")


def print_table(result):
    print(f"{result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"unit of work: {result['unit_of_work']}")
    for name, entry in result["metrics"].items():
        extra = ""
        if name == "call_tail_ms":
            extra = f"  (p{result['call_tail_percentile']:.1f} of {result['calls']} calls)"
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}{extra}")
    print(f"  {'failed_ops_ratio':34s} {result['failed_ops_ratio']:14.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args):
    """Every workload, findings included, in its own interpreter; one table."""
    from workloads import FINDINGS, WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [*WORKLOADS, *FINDINGS]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or proc.returncode not in (0, 1):
            combined["correct"] = False
            continue
        line = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, entry in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    from workloads import FINDINGS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, *FINDINGS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        E = import_emdenlab()
        wl = make_workload(E, args.workload, args.seed, args.tiny)
        try:
            wl.warm_up()
        finally:
            wl.close()
        print("ready", flush=True)
        print(statistics.median(reference_loop() for _ in range(3)), flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
