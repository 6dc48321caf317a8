#!/usr/bin/env python3
"""gpdext benchmark: one closed-loop, single-client, single-process workload
per run.

    python3 perfbench/run.py --workload oracle_batch --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout; it imports gpdext from ``src/`` there.
Set-up (import, spec parsing, instance building) is repeated and its median
reported, scaled like the item latencies.  The timed loop then repeats
whole passes over the workload's pool, each in a fresh seeded order, until
``--seconds`` have elapsed and at least the workload's ``min_items`` items
have run, checking every verdict.  Where a workload's first pass fills a
lazy cache, that pass runs untimed first.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the run spends half of ``--seconds`` untraced,
then traces one set-up and one pass and reports the per-layer metrics and
the tracing overhead.  Every run also writes a full record (machine, raw and
scaled latencies, failures, spans) to ``perfbench/out/``.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify_fixtures", "oracle_batch", "cyclo_ladder", "algebra_ladder")
IMPORT_REPEATS = 7
# The build is repeated at least BUILD_REPEATS times and until the builds
# have taken BUILD_MIN_S, at most BUILD_MAX_REPEATS times.
BUILD_REPEATS = 3
BUILD_MIN_S = 2.0
BUILD_MAX_REPEATS = 9
# Mean time of reference_work, between items, on the machine the bounds
# were set on (see SpeedProbe).
REFERENCE_S = 0.0018
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0
# Probe samples taken on each side of a set-up step.  Single samples jump
# between a slow and a fast mode; the median of several does not.
SETUP_PROBE_SAMPLES = 5
# The child times the import in wall and in CPU time, then samples its own
# speed with the probe.
IMPORT_PROBE = (
    "import time; t, c = time.perf_counter(), time.process_time(); "
    "import gpdext.cli, gpdext.randgen; "
    "dt, dc = time.perf_counter() - t, time.process_time() - c; "
    f"import run; print(dt, dc, *(run.reference_seconds() for _ in range({SETUP_PROBE_SAMPLES})))"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# machine speed

def reference_work() -> int:
    """Fixed interpreter work, about 2 ms: Fraction arithmetic and dict
    updates, the operations gpdext spends most of its time in."""
    acc: dict[int, int] = {}
    x = Fraction(1, 3)
    for i in range(300):
        x = (x * 3 + Fraction(i, 7)) % 5
        acc[i % 37] = acc.get(i % 37, 0) + x.numerator
    return len(acc)


def reference_seconds() -> float:
    """Time one reference_work call.  An untimed call first makes the timed
    one measure the machine, not the cache state the last item left behind;
    the cyclic collector is paused, so that the heap gpdext leaves live
    cannot slow the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        t = time.perf_counter()
        reference_work()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine's speed during a run.

    The shared machine this benchmark was tuned on changes speed by up to 2x
    within a second, for any code (a fixed loop shows it too), which no
    amount of repetition averages out of a 12-second run.  The probe times
    ``reference_work`` between items, at most every PROBE_EVERY_S, and
    ``scale`` turns a wall time into the time on a machine that runs the
    probe in REFERENCE_S, using the probe samples within PROBE_WINDOW_S of
    the interval.  Probe time is never counted in an item.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self):
        self.times.append(time.perf_counter())
        self.samples.append(reference_seconds())
        self._due = time.perf_counter() + PROBE_EVERY_S

    def burst(self) -> list[float]:
        """SETUP_PROBE_SAMPLES samples in a row; returns them."""
        for _ in range(SETUP_PROBE_SAMPLES):
            self.sample()
        return self.samples[-SETUP_PROBE_SAMPLES:]

    def tick(self):
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return REFERENCE_S / statistics.fmean(near)


# ---------------------------------------------------------------------------
# set-up and the timed loop

def import_seconds(probe: SpeedProbe) -> tuple[float, float]:
    """Import time of gpdext (numpy included) in a fresh interpreter: the
    wall time, and the CPU time scaled by the median of the probe samples
    taken here just before and just after it and of those the child takes
    right after its import.  CPU time, because the wall time of an import
    also holds waits off the CPU (one of 0.17 s in 40 imports of 0.19 s),
    which come and go with the machine's other load."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    before = probe.burst()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    wall, cpu, *child = map(float, out.stdout.split())
    near = before + child + probe.burst()
    return wall, cpu * REFERENCE_S / statistics.median(near)


def set_up(workload, seed: int, probe: SpeedProbe):
    """Time the import IMPORT_REPEATS times and the build as often as the
    constants above say, each scaled to the reference machine like the item
    latencies; return the sum of the scaled medians, the repeats and the
    pool from the last build.  A set-up step is scaled by the median of
    SETUP_PROBE_SAMPLES probe samples on each side of it, not by the mean
    within a window."""
    imports = [import_seconds(probe) for _ in range(IMPORT_REPEATS)]
    builds = []
    while len(builds) < BUILD_REPEATS or (
        sum(r for r, _ in builds) < BUILD_MIN_S and len(builds) < BUILD_MAX_REPEATS
    ):
        before = probe.burst()
        t = time.perf_counter()
        pool = workload.setup(seed, ROOT)
        end = time.perf_counter()
        near = before + probe.burst()
        builds.append((end - t, (end - t) * REFERENCE_S / statistics.median(near)))
    setup_s = statistics.median(s for _, s in imports) + statistics.median(s for _, s in builds)
    repeats = {
        "import_s": [r for r, _ in imports],
        "import_cpu_scaled_s": [s for _, s in imports],
        "build_s": [r for r, _ in builds],
        "build_scaled_s": [s for _, s in builds],
    }
    return setup_s, repeats, pool


def new_run() -> dict:
    return {"starts": [], "latencies": [], "failures": [], "passes": 0}


def run_pass(items, r: int, run: dict, probe: SpeedProbe, on_item=None):
    """Run every item once, recording start, latency and wrong verdicts.
    `on_item(i, item)` may stand in for ``item.run()`` (the tracer's does)."""
    for i, item in enumerate(items):
        probe.tick()
        t = time.perf_counter()
        try:
            why = on_item(i, item) if on_item else item.run()
        except Exception as e:  # a crash is a wrong verdict, recorded and counted
            why = f"{type(e).__name__}: {e}"
        run["latencies"].append(time.perf_counter() - t)
        run["starts"].append(t)
        if why is not None:
            run["failures"].append({"item": item.label, "pass": r, "reason": why})
    run["passes"] += 1


def timed_loop(pool, seconds: float, min_items: int, warm_up: bool, probe: SpeedProbe, order):
    """An optional untimed warm-up pass (pass 0, verdicts still checked),
    then whole passes until `seconds` have elapsed and `min_items` have run.
    Each timed pass runs the pool in a fresh order drawn from `order` (a
    random.Random): the machine's speed drifts, and items that always ran
    side by side would all see the same moment of it.  Returns (warm-up,
    timed run)."""
    warmup, run = new_run(), new_run()
    if warm_up:
        run_pass(pool(0), 0, warmup, probe)
    start = time.perf_counter()
    while (
        run["passes"] == 0
        or time.perf_counter() - start < seconds
        or len(run["latencies"]) < min_items
    ):
        r = warmup["passes"] + run["passes"]
        items = list(pool(r))
        order.shuffle(items)
        run_pass(items, r, run, probe)
    return warmup, run


def scaled_latencies(run: dict, probe: SpeedProbe) -> list[float]:
    return [dt * probe.scale(t, t + dt) for t, dt in zip(run["starts"], run["latencies"])]


def end_to_end(setup_s: float, lat: list[float], q: int) -> tuple[dict, int]:
    """The end-to-end metrics from scaled latencies, and how many items lie
    beyond the tail percentile `q` (interpolated between order statistics)."""
    tail = statistics.quantiles(lat, n=100, method="inclusive")[q - 1]
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, sum(x > tail for x in lat)


# ---------------------------------------------------------------------------
# the traced run

def trace_run(workload, seed: int, seconds: float, pool, probe: SpeedProbe, workloads_module):
    """Half of `seconds` untraced, then one traced set-up and pass.  Returns
    the per-layer metrics, why some could not be measured, both runs and
    the record."""
    from tracing import Tracer, per_layer_metrics

    warmup, untraced = timed_loop(pool, seconds / 2, 0, workload.warm_up, probe, random.Random(seed))
    traced = new_run()
    per_item = []

    with Tracer(extra_modules=[workloads_module]) as tracer:

        def snapshot(i, item):
            tracer.item = i
            before = tracer.self_times()
            why = item.run()
            after = tracer.self_times()
            per_item.append((item.size, {n: t - before.get(n, 0.0) for n, t in after.items()}))
            return why

        first = int(workload.warm_up)  # the first timed pass
        run_pass(workload.setup(seed, ROOT)(first), first, traced, probe, snapshot)

    untraced_ips = len(untraced["latencies"]) / sum(scaled_latencies(untraced, probe))
    traced_ips = len(traced["latencies"]) / sum(scaled_latencies(traced, probe))
    overhead = {
        "trace.overhead_ratio": (untraced_ips / traced_ips, "ratio"),
        "trace.items_per_s": (traced_ips, "1/s"),
        "trace.untraced_items_per_s": (untraced_ips, "1/s"),
    }
    time_scale = probe.scale(traced["starts"][0], traced["starts"][-1] + traced["latencies"][-1])
    metrics, why_not = per_layer_metrics(tracer, per_item, workload.size_axis, time_scale, overhead)
    record = {"warmup": warmup, "untraced": untraced, "traced": traced, "trace": tracer.to_doc()}
    return metrics, why_not, [warmup, untraced, traced], record


# ---------------------------------------------------------------------------
# reporting

def machine_info() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def summary_line(m: dict) -> str:
    blas = m["blas"].get("blas", {})
    return (
        f"machine: python {m['python']}, numpy {m['numpy']}, "
        f"blas {blas.get('name', '?')} {blas.get('version', '')}, "
        f"threads pinned to 1, nproc {m['nproc']}, cpu {m['cpu'] or '?'}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gpdext" / "__init__.py").is_file():
        print(f"error: no gpdext package under {SRC}; run from a gpdext checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    machine = machine_info()
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(summary_line(machine))
    probe = SpeedProbe()
    setup_s, setup_repeats, pool = set_up(workload, args.seed, probe)
    record = {
        "workload": {
            k: getattr(workload, k)
            for k in ("name", "why", "item", "layers", "size_axis", "tail_percentile", "min_items")
        },
        "args": vars(args),
        "machine": machine,
        "setup_repeats": setup_repeats,
    }

    if args.trace == 0:
        warmup, run = timed_loop(
            pool, args.seconds, workload.min_items, workload.warm_up, probe, random.Random(args.seed)
        )
        lat = scaled_latencies(run, probe)
        metrics, beyond = end_to_end(setup_s, lat, workload.tail_percentile)
        runs = [warmup, run]
        failed = sum(len(r["failures"]) for r in runs)
        attempted = sum(len(r["latencies"]) for r in runs)
        print(f"{'failed_ratio':<40} {failed / attempted:>14.6g} ({failed} of {attempted} items)")
        notes = {
            "latency_tail_s": f"p{workload.tail_percentile:g}, {beyond} of {len(lat)} items beyond",
            "items_per_s": f"{run['passes']} timed passes" + (" after a warm-up pass" if warmup["passes"] else ""),
        }
        record.update(warmup=warmup, run=run, scaled_latencies=lat, failed_ratio=failed / attempted)
        why_not = {}
    else:
        metrics, why_not, runs, traced = trace_run(
            workload, args.seed, args.seconds, pool, probe, workloads
        )
        notes = {name: f"not measured: {reason}" for name, reason in why_not.items()}
        record.update(traced)
    mean_probe = statistics.fmean(probe.samples)
    print(
        f"speed probe: {len(probe.samples)} samples, mean {mean_probe * 1e3:.3f} ms; "
        f"times below are scaled to a {REFERENCE_S * 1e3:.3f} ms probe"
    )
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {value:>14.6g} {unit}{note}")

    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"WRONG VERDICT: {f['item']} (pass {f['pass']}): {f['reason']}")
    result = {
        "correct": not failures,
        "attempted": sum(len(r["latencies"]) for r in runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        result=result,
        not_measured=why_not,
        speed_probe={"reference_s": REFERENCE_S, "times": probe.times, "samples": probe.samples},
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
