"""Run one job cold, in a worker forked from the benchmark's parent.

The parent has imported cartanflat and numpy and never run a job, so every
worker starts with empty module-level caches and no compiled code.  Only
the call into the job is timed.  One worker runs at a time.  Workers are
forked rather than spawned so that each starts from the same imported
state without importing again; the parent starts no threads (BLAS is
pinned to one), which keeps the fork safe.

The worker sends its result back through a pipe as JSON and exits with
``os._exit``; the parent reads until end of file and then reaps the worker,
so no worker outlives the call that started it.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from typing import Callable

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _resident_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_KB


def _peak_resident_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _measure(task: Callable[[], dict]) -> dict:
    try:
        return {"ok": True, **task()}
    except BaseException:  # the worker reports every failure, then exits
        return {"ok": False, "error": traceback.format_exc(limit=8)}


def in_worker(task: Callable[[], dict]) -> dict:
    """Run ``task`` in a fresh forked worker and return its JSON-able dict,
    with ``ok`` False and the traceback under ``error`` if it raised."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # worker
        os.close(read_end)
        status = 0
        try:
            data = json.dumps(_measure(task)).encode()
            with os.fdopen(write_end, "wb") as out:
                out.write(data)
        except BaseException:
            status = 1
        os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as source:
        data = source.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"ok": False, "error": f"worker ended with status {status} and no result"}
    return json.loads(data)


def timed_job(job, make_tracer=None) -> Callable[[], dict]:
    """A worker task that times one call of ``job`` and checks its verdict.

    ``make_tracer``, when given, is called inside the worker before the
    clock starts; the tracer it returns wraps the call and reports its
    spans and counters after the verdict.
    """

    def task() -> dict:
        tracer = None if make_tracer is None else make_tracer()
        call = job.call if tracer is None else tracer.wrap_job(job.call)
        rss_before = _resident_kb()
        start = time.perf_counter()
        raw = call()
        seconds = time.perf_counter() - start
        rss_growth_kb = _peak_resident_kb() - rss_before
        out = {"seconds": seconds, "rss_kb": rss_growth_kb, "wrong": job.verdict(raw)}
        if tracer is not None:
            out["trace"] = tracer.report(job.name)
        return out

    return task


def warm_pair(job) -> Callable[[], dict]:
    """A worker task that times the same job twice in one process, so the
    second call sees whatever the first left in the program's caches."""

    def task() -> dict:
        times = []
        for _ in range(2):
            start = time.perf_counter()
            job.call()
            times.append(time.perf_counter() - start)
        return {"seconds": times}

    return task
