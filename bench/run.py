"""Benchmark for gramquad: seeded workloads, checked outputs, one JSON result.

Run from the repository root:

    python3 bench/run.py --workload small-rules --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

It measures the library in ``src/`` of the same checkout, and exits 2
without a result when that source tree is missing. The last line printed
is the result object ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. See README.md next to this file for every metric.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from itertools import cycle
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads: each workload is one caller on one
# core. On a shared 2-vCPU host a second thread left cli-100k no faster and
# its run-to-run spread no narrower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_CHILDREN = 15
SETUP_PER_GAP = 3
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import gramquad, gramquad.cli
gramquad.compute_rule(11)
print(repr(time.perf_counter() - start))
"""
MIN_OPS = 5
MIN_PAIRS = 3
TAIL_PERCENTILES = (99, 90)
MIN_BEYOND_TAIL = 10
MAX_ERRORS_SHOWN = 5


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(names) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _blas_threads():
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine(seed):
    meminfo = _read("/proc/meminfo") or ""
    total_kb = next((line.split()[1] for line in meminfo.splitlines()
                     if line.startswith("MemTotal:")), None)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(f"{index}/size")
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": int(total_kb) // 1024 if total_kb else None,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


class SetupTimer:
    """Times fresh interpreters from import to the first compute_rule(11).

    The samples are taken a few at a time between timed ops, so they spread
    over the whole run rather than over one stretch of host speed.
    """

    def __init__(self):
        self.samples = []
        self._child()  # the first child also writes the bytecode caches

    def _child(self):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(done.stdout.strip())

    def take(self, count=SETUP_CHILDREN):
        while count > 0 and len(self.samples) < SETUP_CHILDREN:
            self.samples.append(self._child())
            count -= 1

    def median(self):
        self.take()
        return statistics.median(self.samples)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: MAX_ERRORS_SHOWN - len(self.errors)])


def run_op(workload, case, tracer, tally, around=None):
    """Run one op timed inside `around` (default: an "op" span), then check it untimed.

    Returns the op's seconds and its per-stage seconds.
    """
    start = perf_counter()
    try:
        with around or tracer.region("op"):
            result, stages = workload.run(case, tracer)
    except Exception as exc:  # a failing op is counted, not fatal
        tally.record([f"P={case['p']}: {type(exc).__name__}: {exc}"])
        return perf_counter() - start, {}
    elapsed = perf_counter() - start
    with tracer.paused():
        try:
            errors = workload.check(case, result)
        except Exception as exc:  # an unreadable output is a failed op
            errors = [f"P={case['p']}: check raised {type(exc).__name__}: {exc}"]
    tally.record(errors)
    return elapsed, stages


class Loop:
    """Durations, per-stage seconds, P values and file bytes of one kind of op."""

    def __init__(self):
        self.durations, self.stages, self.points = [], defaultdict(list), []
        self.bytes_written = self.bytes_read = 0

    def add(self, workload, case, elapsed, stages):
        self.durations.append(elapsed)
        self.points.append(case["p"])
        for stage, value in stages.items():
            self.stages[stage].append(value)
        written, read = workload.io_bytes(case)
        self.bytes_written += written
        self.bytes_read += read


def timed_loop(workload, cases, seconds, tally, tracer=None, between_ops=lambda: None):
    """Closed loop, one caller: start the next op until `seconds` of op time is spent.

    `between_ops` runs before each op, outside its timed region.

    Without a tracer, at least MIN_OPS ops run, so a slow op still gets a
    median of several. With a tracer, untraced and traced ops alternate, the
    wrappers installed for each traced op alone, so both medians come from
    the same stretch of time; at least MIN_PAIRS of each run.
    Returns the untraced and the traced Loop.
    """
    plain, traced = Loop(), Loop()
    busy = 0.0

    def done():
        if tracer is None:
            return busy >= seconds and len(plain.durations) >= MIN_OPS
        pairs = len(traced.durations)
        return busy >= seconds and pairs >= MIN_PAIRS and pairs == len(plain.durations)

    while not done():
        between_ops()
        case = next(cases)
        if tracer is not None and len(traced.durations) < len(plain.durations):
            tracer.op_id = len(traced.durations)
            tracer.install()
            try:
                elapsed, stages = run_op(workload, case, tracer, tally)
            finally:
                tracer.uninstall()
            traced.add(workload, case, elapsed, stages)
        else:
            elapsed, stages = run_op(workload, case, spans.NullTracer(), tally)
            plain.add(workload, case, elapsed, stages)
        busy += elapsed
    return plain, traced


class PeakMemory:
    """The tracemalloc peak of the block it wraps, in MB."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc_info):
        self.mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()


def peak_pass(workload, case, tally):
    """One untimed op under tracemalloc, its check outside; also warms the process up."""
    peak = PeakMemory()
    run_op(workload, case, spans.NullTracer(), tally, around=peak)
    return peak.mb


def tail(durations):
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    if len(durations) < 2:
        return None
    cuts = statistics.quantiles(durations, n=100)
    for percentile in TAIL_PERCENTILES:
        beyond = sum(d > cuts[percentile - 1] for d in durations)
        if beyond >= MIN_BEYOND_TAIL:
            return {"percentile": percentile, "value": cuts[percentile - 1],
                    "samples": len(durations), "beyond": beyond}
    return None


def repeat_share(points):
    seen, repeats = set(), 0
    for p in points:
        repeats += p in seen
        seen.add(p)
    return repeats / len(points)


def run_workload(workload, seed, seconds, trace):
    began = perf_counter()
    rng = np.random.default_rng(seed)
    tally = Tally()
    report = {"workload": workload.name, "why": workload.why, "seed": seed, "trace": trace}
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT / "work") as workdir:
        points_file = os.path.join(workdir, "points.txt")
        with open(points_file, "w", encoding="utf-8") as handle:
            handle.write("".join(f"{p}\n" for p in workload.draw_points(rng)))
        with open(points_file, encoding="utf-8") as handle:
            points = [int(line) for line in handle]
        # The largest P sets the peak; it is kept out of the timed ops.
        peak_p = max(points)
        cases = (workload.prepare(p, rng, workdir) for p in cycle([p for p in points if p != peak_p]))
        peak_mb = peak_pass(workload, workload.prepare(peak_p, rng, workdir), tally)
        if trace:
            tracer = spans.Tracer()
            plain, loop = timed_loop(workload, cases, seconds, tally, tracer)
            report["unpatched_names"] = tracer.missing
        else:
            setup = SetupTimer()
            loop, _ = timed_loop(workload, cases, seconds, tally,
                                 between_ops=lambda: setup.take(SETUP_PER_GAP))

    durations = loop.durations
    op_s_p50 = statistics.median(durations)
    report.update({
        "ops": len(durations),
        "peak_p": peak_p,
        "p_range": [min(loop.points), max(loop.points)],
        "repeat_share": repeat_share(loop.points),
        "op_s_tail": tail(durations),
        "error_rate": tally.failed / tally.attempted,
        "stage_s_p50": {f"{s}_s": statistics.median(v) for s, v in loop.stages.items()},
        "errors": tally.errors,
    })
    if trace:
        plain_p50 = statistics.median(plain.durations)
        metrics = spans.layer_metrics(tracer, len(durations), loop.bytes_written,
                                      loop.bytes_read, op_s_p50 / plain_p50)
        report["untraced_ops"] = len(plain.durations)
        report["untraced_op_s_p50"] = plain_p50
        report["traced_op_s_p50"] = op_s_p50
        report["compute_rule_split_s"] = tracer.compute_rule_split(len(durations))
        tracer.write(OUT / f"spans-{workload.name}.csv")
    else:
        metrics = {
            "op_s_p50": (op_s_p50, "s"),
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "peak_traced_mb": (peak_mb, "MB"),
            "setup_s": (setup.median(), "s"),
        }
        report["setup_s_samples"] = setup.samples
    report["wall_s"] = perf_counter() - began
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return report, tally


def print_report(report):
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['ops']} timed ops, P in {report['p_range']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':<34} {report['error_rate']:.6g} ratio")
    for name, value in report["stage_s_p50"].items():
        print(f"  {name:<34} {value:.6g} s")
    tail_ = report["op_s_tail"]
    if tail_:
        print(f"  {'op_s_tail':<34} {tail_['value']:.6g} s "
              f"(p{tail_['percentile']} of {tail_['samples']}, {tail_['beyond']} beyond)")
    print(f"  {'repeat_share':<34} {report['repeat_share']:.4f} ratio")
    if "compute_rule_split_s" in report:
        split = ", ".join(f"{k} {v:.4g}" for k, v in report["compute_rule_split_s"].items())
        print(f"  compute_rule per op = {split} s")
    for error in report["errors"]:
        print(f"  FAILED {error}")


def main(argv=None):
    if not (SRC / "gramquad" / "__init__.py").is_file():
        print(f"error: no gramquad source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gramquad
    import workloads

    if not Path(gramquad.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gramquad from {gramquad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.WORKLOADS)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    info = machine(args.seed)
    print(f"machine: {json.dumps(info)}")
    OUT.mkdir(exist_ok=True)
    results = []
    for name in names:
        report, tally = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, args.trace)
        report["machine"] = info
        print_report(report)
        with open(OUT / f"result-{name}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        results.append((report, tally))
    if len(results) == 1:
        metrics = results[0][0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r, _ in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(t.failed == 0 for _, t in results),
        "attempted": sum(t.attempted for _, t in results),
        "failed": sum(t.failed for _, t in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
