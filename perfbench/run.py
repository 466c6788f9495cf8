"""The restartk benchmark: generated configs through ``restartk.cli.run``.

    python3 perfbench/run.py --workload {analytic,paths} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  One process drives the CLI in-process as
a closed loop with one client and ``--threads 1``.  Every output is checked
against the independent oracle (oracle.py, verify.py) and hashed.

A run works through a fixed number of whole rounds of the workload's
templates: --seconds / ROUND_SECONDS[workload], where ROUND_SECONDS is what
one round's two passes took when the benchmark was defined (2-core x86-64
host).  The sample, and so the mix of tasks behind every metric and the
rank of the tail, is then the same for every version of the program; a
faster program ends sooner.

Every time is measured on the wall clock and then scaled to one host
speed: before each config (and each set-up probe) the runner times the
fixed reference work of reference.py, and the config's wall time is
multiplied by reference.REFERENCE_SECONDS over the median of the
2*GAUGE_WINDOW+1 reference times around it.  The host this was written on
changes speed by up to 1.6x between minutes, and unscaled runs of the same
configs moved with it.

--trace 0 runs every config twice, in order.  A config's time is the faster
of its two scaled runs.  It reports the end-to-end metrics: set-up time (the
median of SETUP_PROBES fresh interpreters importing the CLI and generating
the workload, spread evenly through the two passes), output rows per
second, per-config median and tail time, and peak RSS.

--trace 1 runs every config once untraced, then runs a fixed prefix of them
again under tracing.Tracer and reports the per-layer metrics of that
prefix, so counts repeat exactly for a given seed, plus the tracing
overhead against the untraced run of the same configs.  On ``analytic``
the known-defect configs are traced with the prefix: they are the only
density-nu (nested quadrature) configs.

Every run also runs the known-defect configs of defects.py once, after the
warm-up and before any timing.  Each value they still get wrong is printed,
and ``defects.open`` counts the configs that fail; they do not count into
``correct`` or ``failed``.

A config fails on a wrong exit code, a missing output, a value outside its
oracle, or a rerun (the second pass, and one config at --threads 2 on
``paths``) that is not byte-identical.  The last line of standard output is the result as
JSON; lines before it print each metric by name and unit, the failure
fraction, the machine and versions.  Results are also appended to
.perfbench_work/results.jsonl, and the traced run's spans written to
.perfbench_work/trace_<workload>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# seconds of two passes over one round of templates when the benchmark was defined
ROUND_SECONDS = {"analytic": 4.4, "paths": 3.0}
SETUP_PROBES = 8
GAUGE_WINDOW = 3
# configs traced with --trace 1: whole rounds of the templates
TRACED = {"analytic": 13, "paths": 6}
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "values_per_s": "1/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
}


class Gauge:
    """Reference times taken before every timed call, to scale wall times
    to the host speed at which reference.work() takes REFERENCE_SECONDS."""

    def __init__(self):
        self.times = []

    def tick(self):
        """Time the reference work once; returns the index of that time."""
        import reference

        start = time.perf_counter()
        reference.work()
        self.times.append(time.perf_counter() - start)
        return len(self.times) - 1

    def scaled(self, timing):
        """Scale a (wall seconds, tick index) pair by the reference times around it."""
        import reference

        seconds, k = timing
        around = self.times[max(0, k - GAUGE_WINDOW) : k + GAUGE_WINDOW + 1]
        return seconds * reference.REFERENCE_SECONDS / statistics.median(around)


@dataclass
class Record:
    """One config: its runs as (wall seconds, tick index), output rows and
    digest, and its failures."""

    case: object
    timings: list
    rows: int
    digest: str
    errors: list = field(default_factory=list)


class Runner:
    """Runs a list of cases (ids 0..n-1) from config files written to ``workdir``."""

    def __init__(self, cases, workdir, gauge=None):
        import restartk.cli  # noqa: F401  (loaded before any timing)
        import workloads

        self.cases = cases
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.out_dir)
        self.config_paths = workloads.write_configs(cases, workdir)
        self.gauge = gauge or Gauge()

    def run(self, case, threads=1):
        """Run one config through the CLI: ((wall seconds, tick index), exit
        code, output bytes or None)."""
        import restartk.cli

        out = os.path.join(self.out_dir, case.config["output"]["path"])
        k = self.gauge.tick()
        start = time.perf_counter()
        code = restartk.cli.run(self.config_paths[case.id], threads=threads, out_dir=self.out_dir)
        timing = (time.perf_counter() - start, k)
        data = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        return timing, code, data

    def timed(self, case, check=True):
        """Run and hash one config, checking it against the oracle when asked."""
        import verify

        timing, code, data = self.run(case)
        digest = hashlib.sha256(data).hexdigest() if data is not None else ""
        fmt = case.config["output"]["format"]
        rows = verify.count_rows(data, fmt) if data is not None and code in (0, 4) else 0
        errors = verify.check(case.config, code, data) if check else []
        return Record(case, [timing], rows, digest, errors)

    def repeat(self, rec):
        """Run ``rec``'s config again; a different output marks ``rec`` failed."""
        again = self.timed(rec.case, check=False)
        if again.digest != rec.digest:
            rec.errors.append("rerun output is not byte-identical")
        return again

    def two_passes(self, between, calls):
        """Run every config, then repeat it.  ``between`` is called ``calls``
        times, evenly spaced through the two passes."""
        n = len(self.cases)
        at = {-(-i * 2 * n // calls) for i in range(calls)}
        records = []
        for j in range(2 * n):
            if j in at:
                between()
            if j < n:
                records.append(self.timed(self.cases[j]))
            else:
                rec = records[j - n]
                rec.timings += self.repeat(rec).timings
        return records

    def seconds(self, rec):
        """A config's time: the faster of its scaled runs."""
        return min(self.gauge.scaled(t) for t in rec.timings)

    def threads_check(self, records):
        """The first moments config at --threads 2 must match its --threads 1 output."""
        for rec in records:
            if rec.case.task == "moments":
                _, code, data = self.run(rec.case, threads=2)
                if data is None or hashlib.sha256(data).hexdigest() != rec.digest:
                    rec.errors.append("--threads 2 output differs from --threads 1")
                return


def setup_probe(gauge, workload, seed, rounds, workdir):
    """(wall seconds, tick index) of one fresh interpreter doing the CLI's set-up."""
    target = os.path.join(workdir, "probe")
    os.makedirs(target)
    k = gauge.tick()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(rounds), target],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    seconds = time.perf_counter() - start
    shutil.rmtree(target)
    return seconds, k


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def throughput(records, seconds, task=None, count=lambda r: r.rows):
    chosen = [r for r in records if task is None or r.case.task == task]
    busy = sum(seconds(r) for r in chosen)
    return sum(count(r) for r in chosen) / busy if busy else 0.0


def side_metrics(records, seconds):
    """Metrics that apply to some workloads only, printed for information."""
    return {
        "paths_per_s": throughput(records, seconds, "moments", lambda r: r.case.config["task"]["n_paths"]),
        "log_rows_per_s": throughput(records, seconds, "simulate"),
        "failed_frac": sum(1 for r in records if r.errors) / len(records),
    }


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in sorted((SRC / "restartk").glob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "os": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "src_lines": src_lines,
    }


def rounds(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def measure(args, workdir):
    import defects
    import workloads

    n = rounds(args.workload, args.seconds)
    runner = Runner(workloads.generate(args.workload, args.seed, n), workdir)
    known = Runner(defects.cases(), os.path.join(workdir, "defects"), runner.gauge)
    # warm-up: first-call costs are paid once per process, not per config
    runner.run(runner.cases[0])
    open_defects = [known.timed(case) for case in known.cases]
    if args.trace:
        return measure_traced(args, runner, known, open_defects)
    setups = []
    records = runner.two_passes(
        lambda: setups.append(setup_probe(runner.gauge, args.workload, args.seed, n, workdir)), SETUP_PROBES
    )
    runner.threads_check(records)
    times = [runner.seconds(r) for r in records]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(runner.gauge.scaled(t) for t in setups),
        "values_per_s": throughput(records, runner.seconds),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END_UNITS)
    notes = {
        "setup_s": f"median of {len(setups)}",
        "task_tail_s": f"p{tail_pct:.1f} of {len(times)} configs",
    }
    info = side_metrics(records, runner.seconds)
    info["defects.open"] = _open(open_defects)
    info["reference_s"] = statistics.median(runner.gauge.times)
    return records, open_defects, metrics, units, notes, info


def measure_traced(args, runner, known, open_defects):
    import tracing

    records = [runner.timed(case) for case in runner.cases]
    prefix = [(runner, rec) for rec in records[: TRACED[args.workload]]]
    # the nested layer runs only in the known-defect configs
    if args.workload == "analytic":
        prefix += [(known, rec) for rec in open_defects]
    tracer = tracing.Tracer()
    traced = []
    with tracer:
        for owner, rec in prefix:
            tracer.config_id = f"{rec.case.template}:{rec.case.id}"
            traced.append(owner.repeat(rec))
            tracer.end_config(traced[-1].rows)
    metrics = tracer.metrics()
    busy = sum(runner.seconds(r) for r in traced) / sum(runner.seconds(r) for _, r in prefix)
    metrics["trace.overhead_frac"] = busy - 1.0
    metrics.update(side_metrics(records, runner.seconds))
    metrics["defects.open"] = _open(open_defects)
    tracer.write_spans(WORK / f"trace_{args.workload}.jsonl.gz")
    units = {name: _per_layer_unit(name) for name in metrics}
    notes = {"trace.overhead_frac": f"over {len(prefix)} configs"}
    return records, open_defects, metrics, units, notes, {"reference_s": statistics.median(runner.gauge.times)}


def _open(records):
    return sum(1 for r in records if r.errors)


def _per_layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("ratio", "_frac", "_per_call")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "restartk" / "__init__.py").is_file():
        print(f"no restartk sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import restartk

    if Path(restartk.__file__).resolve().parent != SRC / "restartk":
        print(f"imported restartk from {restartk.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        records, open_defects, metrics, units, notes, info = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r.errors)
    env = environment()
    print(f"restartk benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {units[name]}{note}")
    for name, value in info.items():
        print(f"info {name} = {value:.6g}")
    for rec in records:
        for err in rec.errors:
            print(f"FAIL config {rec.case.id} ({rec.case.template}): {err}")
    for rec in open_defects:
        for err in rec.errors:
            print(f"KNOWN DEFECT {rec.case.template}: {err}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"args": vars(args), "environment": env, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
