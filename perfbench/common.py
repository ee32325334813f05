"""Small helpers shared by ``run.py`` and the program entry point ``program.py``."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "BLAS_ENV_VARS",
    "blas_facts",
    "host_probe_ms",
    "peak_rss_mb",
    "child_pids",
    "percentile",
    "emit",
    "histogram_delta",
    "histogram_quantile",
    "counter_delta",
    "unit_of",
]

#: Environment variables that set BLAS threading; recorded, never set.
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_facts() -> dict:
    """BLAS build, the thread count OpenBLAS runs with here, and the interpreter."""
    facts: dict = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "blas_build": None,
        "blas_config": None,
        "blas_threads": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas_build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted(
            {line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line}
        )
    for path in libraries:
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(library, f"{prefix}_get_config{suffix}", None)
                if threads is None:
                    continue
                threads.restype = ctypes.c_int
                facts["blas_threads"] = int(threads())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    facts["blas_config"] = config().decode("utf-8", "replace").strip()
                return facts
    return facts


def host_probe_ms(rounds: int = 15) -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs right now."""
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        timings.append((time.perf_counter() - start) * 1000.0)
    return float(np.median(timings))


def peak_rss_mb(pids) -> float:
    """Summed peak resident memory (``VmHWM``) of the given live processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process."""
    children: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children.extend(int(x) for x in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(children))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN for no values."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def emit(payload: dict) -> None:
    """Write one JSON line to standard output and flush it."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def _entries(snapshot: dict, section: str, name: str):
    return [entry for entry in snapshot.get(section, ()) if entry["name"] == name]


def counter_delta(before: dict, after: dict, name: str, **labels) -> float:
    """Growth of a counter (summed over all label sets matching ``labels``)."""

    def total(snapshot):
        return sum(
            entry["value"]
            for entry in _entries(snapshot, "counters", name)
            if all(entry["labels"].get(key) == str(value) for key, value in labels.items())
        )

    return float(total(after) - total(before))


def histogram_delta(before: dict, after: dict, name: str) -> tuple[list, list, float, int]:
    """Bucket bounds, bucket counts, sum and count a histogram gained between snapshots."""
    bounds: list = []
    counts: list = []
    total, count = 0.0, 0
    for sign, snapshot in ((-1, before), (1, after)):
        for entry in _entries(snapshot, "histograms", name):
            if not bounds:
                bounds = list(entry["le"])
                counts = [0] * (len(bounds) + 1)
            for index, value in enumerate(entry["counts"]):
                counts[index] += sign * value
            total += sign * entry["sum"]
            count += sign * entry["count"]
    return bounds, counts, total, count


def histogram_quantile(bounds: list, counts: list, q: float) -> float:
    """Quantile ``q`` in [0, 1] of a fixed-bucket histogram, interpolated in its bucket."""
    n = sum(counts)
    if n <= 0:
        return 0.0
    rank = q * n
    seen = 0
    lower = 0.0
    for index, value in enumerate(counts):
        upper = bounds[index] if index < len(bounds) else (bounds[-1] * 2 if bounds else 0.0)
        if value and seen + value >= rank:
            return lower + (upper - lower) * (rank - seen) / value
        seen += value
        lower = upper
    return lower


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if ".trace_overhead_pct." in name:
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share", "occupancy")):
        return "ratio"
    return "count"
