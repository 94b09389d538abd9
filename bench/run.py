"""Cold-job benchmark of the cartanflat verifier.

    python3 bench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Workloads are ``scan``, ``develop`` and ``build`` (see bench/workloads.py),
or ``all``, which interleaves the three round-robin so that host drift hits
each alike.  Every job runs cold in its own worker, forked from this
process after it has imported cartanflat and numpy and before it has run a
job; only the call into the job is timed, and one worker runs at a time.
Each verdict is checked against its known answer.

A run repeats cycles until ``--seconds`` is spent.  With ``--trace 0`` a
cycle is one pass over the workload's jobs, with a slice of the reference
loop timed in a cold worker before each job and after the last, then one
set-up pass over the jobs' minimum-size twins, and the run prints the
end-to-end metrics.  With ``--trace 1`` a cycle is one untraced and one
traced pass, after one traced census pass that also counts the operation
nodes handed to the compiler; the run prints the per-layer metrics (see
bench/spans.py) and writes the spans of its first timed traced pass to
bench/out/spans_<workload>.jsonl.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, holding the metrics that
BENCHMARK.json lists.

The benchmark runs the package from ``src/`` next to this directory and
exits with status 1, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKDIR = HERE / ".work"
SPANS_DIR = HERE / "out"
#: Says why each workload exists and names the metrics that go into the JSON
#: result line; the table prints all of them.
BENCHMARK_FILE = HERE.parent / "BENCHMARK.json"

#: One thread per worker, and string hashing fixed so that dict and set
#: order, and with them the exact counts, repeat from run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

MIN_CYCLES = 2
#: A probe job's later cold times may not beat its first by more than this
#: share, or by twice the spread of its cold times if that is wider.  The
#: first pass's probe runs before any other run of that job, so caches that
#: outlive a worker would show here; on a noisy 2-CPU host the first cold run
#: alone has read down to 0.7x of the later ones, hence the wide margin.
ISOLATION_SLACK = 0.4
TAIL_BEYOND = 10


def _pin_environment(argv: list[str]):
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *argv], {**os.environ, **PINNED_ENV})


def _import_package():
    sys.path.insert(0, str(SOURCE))
    try:
        import cartanflat
    except ImportError as exc:
        raise SystemExit(f"error: cartanflat is not importable from {SOURCE}: {exc}") from exc
    found = Path(cartanflat.__file__).resolve().parent
    if found != SOURCE / "cartanflat":
        raise SystemExit(f"error: imported cartanflat from {found}, not from {SOURCE}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest sample with at least TAIL_BEYOND samples above it (the
    minimum when there are too few), its percentile rank, and how many
    samples lie above it."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    rank = round(100 * k / (len(ordered) - 1)) if len(ordered) > 1 else 0
    return ordered[k], rank, len(ordered) - 1 - k


def spread(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else 0.0


# ---------------------------------------------------------------------------
# one workload's samples within a run
# ---------------------------------------------------------------------------


class WorkloadSamples:
    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.trace = trace
        self.spans_file = SPANS_DIR / f"spans_{name}.jsonl"
        self.jobs = workloads.jobs(name, seed, WORKDIR)
        self.small_jobs = workloads.jobs(name, seed, WORKDIR, small=True)
        self.probe = next(job for job in self.jobs if job.name == workloads.PROBES[name])
        self.passes: list[float] = []
        self.rels: list[float] = []
        self.setups: list[float] = []
        self.rss_kb: list[int] = []
        self.probe_rels: list[float] = []
        self.warm_times: list[float] = []
        self.traced_passes: list[float] = []
        self.traced_layers: list[dict] = []
        self.census: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []  # jobs that raised or gave a wrong verdict
        self.check_failures: list[str] = []  # the benchmark's own self-checks

    @property
    def complete(self) -> bool:
        """Whether every metric has enough samples."""
        if self.trace:
            return bool(self.passes) and bool(self.traced_layers)
        return len(self.passes) >= MIN_CYCLES and bool(self.setups)

    # -- running ------------------------------------------------------------

    def _run(self, job, make_tracer=None) -> dict | None:
        self.attempted += 1
        result = coldrun.in_worker(coldrun.timed_job(job, make_tracer))
        if not result["ok"]:
            self.failures.append(f"{job.name} raised:\n{result['error']}")
            return None
        if result["wrong"] is not None:
            self.failures.append(f"{job.name}: {result['wrong']}")
        return result

    def _pass(self, jobs, make_tracer=None) -> list[dict] | None:
        results = [self._run(job, make_tracer) for job in jobs]
        return None if any(r is None for r in results) else results

    def warm_probe(self):
        result = coldrun.in_worker(coldrun.warm_pair(self.probe))
        if result["ok"]:
            self.warm_times = result["seconds"]
        else:
            self.check_failures.append(f"{self.probe.name} (warm pair) raised:\n{result['error']}")

    def _slice(self) -> float:
        return coldrun.in_worker(reference.timed_slice)["seconds"]

    def cycle(self):
        if self.trace:
            self._trace_cycle()
            return
        slices = [self._slice()]
        results = []
        for job in self.jobs:
            results.append(self._run(job))
            slices.append(self._slice())
        if all(r is not None for r in results):
            seconds = [r["seconds"] for r in results]
            self.passes.append(sum(seconds))
            self.rels.append(sum(seconds) / sum(slices))
            self.rss_kb.append(max(r["rss_kb"] for r in results))
            k = self.jobs.index(self.probe)
            self.probe_rels.append(seconds[k] / (0.5 * (slices[k] + slices[k + 1])))
        setup = self._pass(self.small_jobs)
        if setup is not None:
            self.setups.append(sum(r["seconds"] for r in setup))

    def _trace_cycle(self):
        if self.census is None:
            results = self._pass(self.jobs, lambda: spans.Tracer(census=True).install())
            if results is None:
                return
            self.census = _sum_traces(results)
        results = self._pass(self.jobs)
        if results is not None:
            self.passes.append(sum(r["seconds"] for r in results))
        spans_file = None if self.traced_layers else str(self.spans_file)
        results = self._pass(self.jobs, lambda: spans.Tracer(spans_file=spans_file).install())
        if results is None:
            return
        self.traced_passes.append(sum(r["seconds"] for r in results))
        summed = _sum_traces(results)
        self.traced_layers.append(summed)
        for key in ("calls", "counts"):
            if summed[key] != {k: v for k, v in self.census[key].items() if k in summed[key]}:
                self.check_failures.append(f"traced {key} differ between passes")

    # -- results ------------------------------------------------------------

    def isolation(self) -> dict:
        """The probe job's later cold times over its first, against its warm
        repeat; cold times are divided by the reference slices around them."""
        cold = statistics.median(self.probe_rels[1:]) / self.probe_rels[0]
        warm = self.warm_times[1] / self.warm_times[0] if self.warm_times else 1.0
        slack = max(ISOLATION_SLACK, 2.0 * spread(self.probe_rels))
        return {"probe": self.probe.name, "cold_repeat": cold, "warm_repeat": warm,
                "slack": slack, "ok": cold >= 1.0 - slack}

    def end_to_end(self) -> dict:
        tail_value, tail_rank, above = tail(self.passes)
        failed = len(self.failures)
        return {
            "pass_s": (statistics.median(self.passes), "s", f"median of {len(self.passes)} passes"),
            "pass_tail_s": (
                tail_value, "s", f"p{tail_rank} of {len(self.passes)} passes, {above} above it"
            ),
            "pass_rel": (
                statistics.median(self.rels),
                "ratio",
                f"pass time over the reference slices around its jobs, median of {len(self.rels)}",
            ),
            "setup_s": (statistics.median(self.setups), "s", f"median of {len(self.setups)} set-ups"),
            "rss_mb": (
                statistics.median(self.rss_kb) / 1024.0,
                "MiB",
                f"largest job peak-RSS growth; per pass {sorted(set(self.rss_kb))} KiB",
            ),
            "fail_share": (failed / self.attempted, "share", f"{failed} of {self.attempted} jobs"),
        }

    def per_layer(self) -> dict:
        out = {}
        census = spans.layer_metrics(**self.census)
        timed = [spans.layer_metrics(**layers) for layers in self.traced_layers]
        for metric, kind, _ in spans.LAYER_METRICS:
            unit = {"self": "s", "calls": "count", "count": "count", "ratio": "ratio"}[kind]
            if kind == "self":
                value = statistics.median(t[metric] for t in timed)
                note = f"self time per pass, median of {len(timed)} traced passes"
            else:
                value = census[metric]
                note = "per pass, exact"
            out[metric] = (value, unit, note)
        traced = statistics.median(self.traced_passes)
        untraced = statistics.median(self.passes)
        root = statistics.median(t["self_s"].get(spans.ROOT, 0.0) for t in self.traced_layers)
        out["trace.overhead"] = (
            traced / untraced, "ratio", f"traced over untraced pass_s ({traced:.4f} s / {untraced:.4f} s)"
        )
        out["trace.attributed_share"] = (
            1.0 - root / traced, "ratio", "share of traced pass time inside a layer span"
        )
        return out


def _sum_traces(results: list[dict]) -> dict:
    summed = {"self_s": {}, "calls": {}, "counts": {}}
    for result in results:
        for key, table in summed.items():
            for name, value in result["trace"][key].items():
                table[name] = table.get(name, 0) + value
    return summed


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def measure(args) -> tuple[list[WorkloadSamples], bool]:
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    WORKDIR.mkdir(exist_ok=True)
    samples = [WorkloadSamples(n, args.seed, bool(args.trace)) for n in names]
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        for s in samples:
            s.spans_file.unlink(missing_ok=True)
    gc.collect()
    gc.freeze()  # workers then leave the imported objects' pages shared
    start = time.perf_counter()
    cycle_times = []
    while True:
        began = time.perf_counter()
        for s in samples:
            s.cycle()
        cycle_times.append(time.perf_counter() - began)
        if any(s.failures or s.check_failures for s in samples):
            break  # report what went wrong rather than time it
        elapsed = time.perf_counter() - start
        if len(cycle_times) >= MIN_CYCLES and elapsed + statistics.mean(cycle_times) > args.seconds:
            break
    if not args.trace:
        for s in samples:
            s.warm_probe()
    return samples, all(s.complete for s in samples)


def report(args, samples: list[WorkloadSamples], complete: bool) -> dict:
    single = args.workload != "all"
    listing = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in listing["workloads"]}
    wanted = [entry["name"] for entry in listing["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    correct = complete
    for s in samples:
        print(f"workload {s.name} (seed {args.seed}): {why[s.name]}")
        for failure in s.failures + s.check_failures:
            print(f"  FAILED {failure}")
        correct = correct and not (s.failures or s.check_failures)
        if not complete:
            continue
        table = s.per_layer() if args.trace else s.end_to_end()
        if args.trace:
            print(f"  spans of one traced pass: {s.spans_file.relative_to(HERE.parent)}")
        else:
            iso = s.isolation()
            correct = correct and iso["ok"]
            print(
                f"  isolation: {iso['probe']} cold repeat {iso['cold_repeat']:.3f}x, "
                f"warm repeat {iso['warm_repeat']:.3f}x of its first time; "
                + ("ok" if iso["ok"] else "FAILED")
                + f" (a cold repeat may not run faster than {1 - iso['slack']:.3f}x)"
            )
        for metric, (value, unit, note) in table.items():
            print(f"  {metric:40} {value:>14.6g} {unit:6} {note}")
        missing = set(wanted) - set(table)
        if missing:
            raise SystemExit(f"error: {BENCHMARK_FILE.name} lists metrics the run does not make: {sorted(missing)}")
        for metric in wanted:
            value, unit, _ = table[metric]
            metrics[metric if single else f"{s.name}.{metric}"] = {"value": value, "unit": unit}
    return {
        "correct": bool(correct),
        "attempted": sum(s.attempted for s in samples),
        "failed": sum(len(s.failures) for s in samples),
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        samples, complete = measure(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    result = report(args, samples, complete)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    _pin_environment(sys.argv)
    _import_package()
    import coldrun
    import reference
    import spans
    import workloads

    sys.exit(main(sys.argv[1:]))
