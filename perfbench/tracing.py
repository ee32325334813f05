"""In-memory span recorder wrapped around the program's public layer calls.

The traced run installs wrappers from this file around the calls listed in
``LAYER_CALLS`` before the program builds anything, so worker processes
forked later inherit them.  Each wrapper records one span — name, start,
end, parent, process, thread — into a per-process list; nothing is written
until the process flushes the list (:func:`flush`).  Worker processes flush
after every task, because a pool worker is never given an exit hook.

Times come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable across the processes of one host.
"""

from __future__ import annotations

import copy as _copy
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path

__all__ = ["install", "flush", "load_spans", "self_times", "under"]

_SPANS: list[tuple] = []
_LOCAL = threading.local()
_NEXT_ID = [0]
_ID_LOCK = threading.Lock()
_STATE: dict = {"dir": None}


def _reset_after_fork() -> None:
    _SPANS.clear()
    _LOCAL.__dict__.clear()


def _new_id() -> int:
    with _ID_LOCK:
        _NEXT_ID[0] += 1
        return _NEXT_ID[0]


def _record(name: str, fn, args, kwargs, tag=None):
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    span_id = _new_id()
    parent = stack[-1] if stack else 0
    stack.append(span_id)
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        end = time.perf_counter()
        stack.pop()
        _SPANS.append(
            (name, start, end, span_id, parent, os.getpid(), threading.get_ident(), tag)
        )


def _wrap(fn, name: str, tagger=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tag = tagger(args, kwargs) if tagger is not None else None
        return _record(name, fn, args, kwargs, tag)

    return traced


def _first_kind(args, kwargs):
    requests = args[1] if len(args) > 1 else kwargs.get("requests", ())
    if not isinstance(requests, (list, tuple)):
        return ["unknown", 0]  # an iterator: reading it here would consume it
    kind = getattr(requests[0], "kind", "unknown") if requests else "none"
    return [kind, len(requests)]


def _n_predictions(args, kwargs):
    predictions = args[2] if len(args) > 2 else kwargs.get("predictions")
    return len(predictions) if predictions is not None else 0


class _TracedCopy:
    """Stands in for the ``copy`` module inside the program's modules.

    Only ``deepcopy`` of a model is timed (as ``nn.clone``); every other
    attribute is the real ``copy`` module's.
    """

    def __init__(self, module_class) -> None:
        self._module_class = module_class

    def deepcopy(self, obj, memo=None):
        if isinstance(obj, self._module_class):
            return _record("nn.clone", _copy.deepcopy, (obj, memo), {})
        return _copy.deepcopy(obj, memo)

    def __getattr__(self, name):
        return getattr(_copy, name)


def _worker_task_wrapper(fn):
    """Time one worker-process adaptation and flush that worker's spans.

    The wrapper keeps the wrapped function's module and name, so the pool
    still pickles it by reference and the forked worker resolves it to this
    wrapper.
    """

    @functools.wraps(fn)
    def traced(target_id, inputs, seed, *rest):
        try:
            return _record("runtime.worker_task", fn, (target_id, inputs, seed, *rest), {},
                           [str(target_id), int(seed)])
        finally:
            flush()

    return traced


def _pool_submit_wrapper(fn):
    """Record, in the parent, when each worker task was queued and when its result arrived."""

    @functools.wraps(fn)
    def traced(self, target_id, inputs, seed, *rest, **kwargs):
        start = time.perf_counter()
        future = fn(self, target_id, inputs, seed, *rest, **kwargs)
        tag = [str(target_id), int(seed)]
        pid, tid = os.getpid(), threading.get_ident()

        def arrived(_future):
            _SPANS.append(
                ("runtime.pool_task", start, time.perf_counter(), _new_id(), 0, pid, tid, tag)
            )

        future.add_done_callback(arrived)
        return future

    return traced


#: (module, attribute path, span name, tagger) for every traced call.
LAYER_CALLS = (
    ("repro.net.server", "decode_line", "net.decode", None),
    ("repro.serve.protocol", "Envelope.to_json", "net.encode", None),
    ("repro.serve.gateway", "Gateway.submit_many", "serve.submit_many", _first_kind),
    ("repro.serve.gateway", "run_model_group", "nn.forward", None),
    ("repro.streaming.service", "StreamingAdaptationService.ingest", "stream.ingest", None),
    ("repro.runtime.snapshots", "SnapshotStore.save", "snapshot.save", None),
    ("repro.runtime.snapshots", "SnapshotStore.load", "snapshot.load", None),
    ("repro.engine.strategy", "TasfarStrategy.adapt", "engine.adapt", None),
    ("repro.engine.finetune", "FineTuneEngine.run", "engine.finetune", None),
    ("repro.core.pseudo_label", "PseudoLabelGenerator.pseudo_label", "core.pseudo_label",
     _n_predictions),
    ("repro.core.estimator", "LabelDistributionEstimator.estimate", "core.density", None),
    ("repro.uncertainty.mc_dropout", "MCDropoutPredictor.predict", "uncertainty.mc_dropout",
     None),
)

#: Modules whose ``copy.deepcopy`` of a model is timed as ``nn.clone``.
CLONE_SITES = (
    "repro.runtime.service",
    "repro.runtime.workers",
    "repro.streaming.service",
    "repro.core.adapter",
)


def install(trace_dir: str) -> None:
    """Wrap every layer call; spans go to ``trace_dir`` when flushed."""
    _STATE["dir"] = str(trace_dir)
    Path(trace_dir).mkdir(parents=True, exist_ok=True)
    os.register_at_fork(after_in_child=_reset_after_fork)
    for module_name, path, name, tagger in LAYER_CALLS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attr, _wrap(getattr(owner, attr), name, tagger))
    from repro.nn.module import Module

    proxy = _TracedCopy(Module)
    for module_name in CLONE_SITES:
        importlib.import_module(module_name).copy = proxy
    workers = importlib.import_module("repro.runtime.workers")
    workers._worker_adapt = _worker_task_wrapper(workers._worker_adapt)
    pool = workers.AdaptationWorkerPool
    pool.submit = _pool_submit_wrapper(pool.submit)


def flush() -> None:
    """Append this process's recorded spans to its own file and forget them."""
    directory = _STATE["dir"]
    if directory is None or not _SPANS:
        return
    count = len(_SPANS)  # spans appended meanwhile by other threads stay for the next flush
    spans = _SPANS[:count]
    del _SPANS[:count]
    with open(Path(directory) / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Analysis (runs in the benchmark process)
# ----------------------------------------------------------------------
def load_spans(trace_dir: str) -> list[dict]:
    """Every span flushed by any process under ``trace_dir``."""
    keys = ("name", "start", "end", "id", "parent", "pid", "tid", "tag")
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(dict(zip(keys, json.loads(line))) for line in handle if line.strip())
    return spans


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Self time of each span: its duration minus the part its children cover.

    Children of a span run on its thread and nest inside it, so the part
    they cover is the sum of their durations.
    """
    covered: dict[tuple[int, int], float] = {}
    for span in spans:
        if span["parent"]:
            key = (span["pid"], span["parent"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    return {
        (span["pid"], span["id"]): span["end"] - span["start"]
        - covered.get((span["pid"], span["id"]), 0.0)
        for span in spans
    }


def under(spans: list[dict], ancestor: str) -> set[tuple[int, int]]:
    """Keys of the spans that have a span named ``ancestor`` above them."""
    by_key = {(span["pid"], span["id"]): span for span in spans}
    found = set()
    for key, span in by_key.items():
        parent = span["parent"]
        while parent:
            above = by_key.get((span["pid"], parent))
            if above is None:
                break
            if above["name"] == ancestor:
                found.add(key)
                break
            parent = above["parent"]
    return found
