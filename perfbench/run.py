"""Repository benchmark: one seeded workload per command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload onboard_pdr --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``onboard_pdr`` — closed loop: waves of PDR users adapted through
  ``AdaptationService.adapt_many(executor="process", jobs=2)``.
* ``serve_housing`` — open loop over TCP against a ``repro serve --listen``
  server (housing, 2 shards, 1 process worker each): Poisson bursts of
  predicts on one connection, new-user adapts at a fixed rate on the other.
* ``stream_taxi`` — closed loop: ticks of ``Gateway.submit_many`` with one
  ``StreamRequest`` per taxi user, an LRU smaller than the users and a
  snapshot directory, so every touch spills one model and resumes another.

``--trace 0`` sets the program up several times (reporting the median set-up
time), runs the timed phase untraced and reports the end-to-end metrics.
``--trace 1`` runs the workload once untraced and once with the span
wrappers of ``tracing.py`` installed, and reports the per-layer metrics
from the traced run plus the tracing overhead between the two.

The last line of standard output is the result object; the line before it
carries the host facts (CPU count, BLAS build and threads, versions, host
probe) and every workload-specific figure by its own name.  BLAS threading
is left as the program ships it: this script sets no thread variables.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Program launches per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Seed kept out of all tuning, for confirming a later claim on fresh inputs.
CONFIRM_SEED = 9173
#: Seconds any single launch may take to become ready.
READY_TIMEOUT = 150.0

#: serve_housing load: predict bursts per second (1..8 predicts of 8 rows each,
#: a quarter of the later ones exact repeats), adapts per second, pool size.
SERVE_BURSTS_PER_S = 100.0
SERVE_MAX_BURST = 8
SERVE_DUP_SHARE = 0.25
SERVE_ADAPTS_PER_S = 4.0
SERVE_POOL = 48
#: Rows per new-user adapt (16 per step): about 40 ms of adaptation.
SERVE_ADAPT_STEPS = 16
#: Seconds to wait, after the last scheduled send, for outstanding replies.
SERVE_DRAIN_S = 30.0


#: The server under test; the cache and admission bounds are set so that no
#: request of the workload is evicted to the source model or shed.
SERVER_ARGS = [
    "serve", "--listen", "127.0.0.1:0", "--task", "housing", "--scale", "small",
    "--seed", "0", "--shards", "2", "--shard-workers", "1",
    "--executor", "process", "--max-cached", "4096", "--max-pending", "100000",
]


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------
class Launch:
    """One program process, with its launch time and the moment it was ready."""

    def __init__(self, argv: list[str], env: dict, *, ready_on_stderr: bool) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if ready_on_stderr else None,
            text=True,
        )
        self.port: int | None = None
        self.ready_s = self._await_ready(ready_on_stderr)

    def _await_ready(self, on_stderr: bool) -> float:
        stream = self.process.stderr if on_stderr else self.process.stdout
        timer = threading.Timer(READY_TIMEOUT, self.process.kill)
        timer.start()
        try:
            for line in stream:
                if on_stderr and "listening on" in line:
                    self.port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
                    break
                if not on_stderr and line.startswith("{") and json.loads(line).get("event") == "ready":
                    break
            else:
                raise RuntimeError(f"program exited before it was ready: {self.process.args}")
        finally:
            timer.cancel()
        ready = time.perf_counter() - self.started
        if on_stderr:
            # Keep the pipe drained so the server never blocks on a full stderr.
            threading.Thread(target=self.process.stderr.read, daemon=True).start()
        return ready

    def send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def result(self, timeout: float) -> dict:
        """The program's ``result`` line (the closed-loop modes)."""
        timer = threading.Timer(timeout, self.process.kill)
        timer.start()
        try:
            for line in self.process.stdout:
                if line.startswith("{"):
                    payload = json.loads(line)
                    if payload.get("event") == "result":
                        return payload
            raise RuntimeError("program ended without a result")
        finally:
            timer.cancel()
            self.finish(timeout=30.0)

    def stop(self) -> None:
        """End a set-up-only launch: ``stop`` on stdin, SIGTERM for the server."""
        if self.port is not None:
            self.process.send_signal(signal.SIGTERM)
        else:
            self.send("stop")
        self.finish(timeout=60.0)

    def finish(self, timeout: float) -> None:
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def launch_series(argv, env, *, ready_on_stderr: bool, setups: int) -> tuple[Launch, list[float]]:
    """Launch the program ``setups`` times; keep the last one running."""
    times = []
    for index in range(setups):
        launch = Launch(argv, env, ready_on_stderr=ready_on_stderr)
        times.append(launch.ready_s)
        if index < setups - 1:
            launch.stop()
    return launch, times


# ----------------------------------------------------------------------
# Closed-loop workloads
# ----------------------------------------------------------------------
def run_closed_loop(mode: str, ctx: dict, trace_dir: str | None, setups: int) -> dict:
    argv = [sys.executable, str(HERE / "program.py"), mode,
            "--seed", str(ctx["seed"]), "--seconds", str(ctx["seconds"]),
            "--work-dir", str(ctx["work"] / ("traced" if trace_dir else "untraced"))]
    if trace_dir:
        argv += ["--trace-dir", trace_dir]
    launch, setup_times = launch_series(argv, ctx["env"], ready_on_stderr=False, setups=setups)
    launch.send("go")
    result = launch.result(timeout=150.0)
    result["setup_times"] = setup_times
    return result


# ----------------------------------------------------------------------
# serve_housing: open-loop TCP client
# ----------------------------------------------------------------------
def _line(request) -> bytes:
    from repro.serve import encode_request

    return (json.dumps(encode_request(request)) + "\n").encode("utf-8")


class _Connection:
    """One TCP connection: envelopes come back in request order."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    async def ask(self, payload: bytes, n: int = 1) -> list[dict]:
        self.writer.write(payload)
        await self.writer.drain()
        return [json.loads(await self.reader.readline()) for _ in range(n)]


def _burst_bytes(lines: list[bytes]) -> bytes:
    # A blank line opens a burst and the next one submits it as one
    # Gateway.submit_many call (see repro.net.server burst framing).
    return b"\n" + b"".join(lines) + b"\n"


async def _serve_session(port: int, ctx: dict) -> dict:
    import numpy as np

    from repro.experiments import get_bundle
    from repro.serve import AdaptRequest, MetricsRequest, PredictRequest
    from workloads import BUNDLE_SEED, housing_users, predict_schedule

    seed, seconds = ctx["seed"], float(ctx["seconds"])
    bundle = get_bundle("housing", "small", BUNDLE_SEED)
    pool = housing_users(bundle, seed, "pool-", SERVE_POOL, 12)
    n_new = int(SERVE_ADAPTS_PER_S * seconds) + 1
    newcomers = housing_users(bundle, seed, "new-", n_new, SERVE_ADAPT_STEPS)
    schedule = predict_schedule(seed, seconds, SERVE_BURSTS_PER_S, SERVE_POOL,
                                SERVE_MAX_BURST, SERVE_DUP_SHARE)
    burst_lines = [
        _burst_bytes([
            _line(PredictRequest(pool[user].target_id, pool[user].inputs[row : row + 8]))
            for user, row, _dup in entries
        ])
        for _offset, entries in schedule
    ]
    adapt_lines = [_line(AdaptRequest(user.target_id, user.inputs)) for user in newcomers]
    metrics_line = _line(MetricsRequest())

    pr, pw = await asyncio.open_connection("127.0.0.1", port)
    ar, aw = await asyncio.open_connection("127.0.0.1", port)
    predicts, control = _Connection(pr, pw), _Connection(ar, aw)
    report: dict = {"attempted": 0, "failed": 0, "problems": []}

    def check(envelope: dict, what: str) -> bool:
        report["attempted"] += 1
        if not envelope.get("ok"):
            report["failed"] += 1
            if len(report["problems"]) < 5:
                report["problems"].append(f"{what}: {envelope.get('error')}")
            return False
        return True

    # Untimed warm-up: adapt the predict pool, then measure quality on held-out rows.
    warmup_adapt_s = []
    for user in pool:
        start = time.perf_counter()
        [envelope] = await control.ask(_line(AdaptRequest(user.target_id, user.inputs)))
        warmup_adapt_s.append(time.perf_counter() - start)
        check(envelope, "warm-up adapt")
    ratios = []
    for user in pool:
        adapted, source = await predicts.ask(
            _burst_bytes([_line(PredictRequest(user.target_id, user.held_inputs)),
                          _line(PredictRequest(f"unadapted-{seed}", user.held_inputs))]),
            n=2,
        )
        if check(adapted, "quality predict") and check(source, "quality predict"):
            ratios.append(
                float(np.mean(np.abs(np.asarray(adapted["payload"]["prediction"]) - user.held_targets)))
                / float(np.mean(np.abs(np.asarray(source["payload"]["prediction"]) - user.held_targets)))
            )
    warmup_failed = report["failed"]
    report.update(attempted=0, failed=0)
    [before] = await control.ask(metrics_line)

    # Timed, open loop: every request goes out at its scheduled time.
    predict_lat: list[float] = []
    predict_sent: list[float] = []
    late: list[float] = []
    adapt_lat: list[float] = []
    adapt_windows: list[tuple[float, float]] = []
    burst_rtt: list[float] = []
    t0 = time.perf_counter() + 0.05
    pending_predicts: deque = deque()
    pending_adapts: deque = deque()
    received: list[tuple[float, tuple[int, int], bytes]] = []
    sent_at: dict = {}

    async def send_predicts():
        for index, (offset, entries) in enumerate(schedule):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            late.append(now - due)
            sent_at[index] = now
            for position in range(len(entries)):
                pending_predicts.append((index, position))
            pw.write(burst_lines[index])
        await pw.drain()

    async def read_predicts(total: int):
        # Only timestamps are taken while the load runs; envelopes are
        # parsed and checked after the timed phase, off the client's hot path.
        for _ in range(total):
            line = await pr.readline()
            received.append((time.perf_counter(), pending_predicts.popleft(), line))

    async def send_adapts():
        for index in range(n_new):
            due = t0 + index / SERVE_ADAPTS_PER_S
            if due >= t0 + seconds:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            late.append(now - due)
            pending_adapts.append(index)
            aw.write(adapt_lines[index])
        await aw.drain()

    async def read_adapts(total: int):
        for _ in range(total):
            line = await ar.readline()
            arrived = time.perf_counter()
            index = pending_adapts.popleft()
            due = t0 + index / SERVE_ADAPTS_PER_S
            adapt_lat.append(arrived - due)
            adapt_windows.append((due, arrived))
            envelope = json.loads(line)
            if check(envelope, "adapt") and envelope["payload"]["report"]["n_samples"] != len(
                newcomers[index].inputs
            ):
                report["failed"] += 1
                report["problems"].append(f"adapt {index}: wrong sample count")

    n_predicts = sum(len(entries) for _offset, entries in schedule)
    n_adapts = sum(1 for index in range(n_new) if index / SERVE_ADAPTS_PER_S < seconds)
    readers = asyncio.gather(read_predicts(n_predicts), read_adapts(n_adapts))
    await asyncio.gather(send_predicts(), send_adapts())
    try:
        await asyncio.wait_for(readers, timeout=SERVE_DRAIN_S)
    except asyncio.TimeoutError:
        report["problems"].append("replies still outstanding after the drain timeout")
    t1 = time.perf_counter()
    [after] = await control.ask(metrics_line)
    pw.close()
    aw.close()

    answers: dict[int, list] = {}
    for arrived, (index, position), line in received:
        offset, entries = schedule[index]
        predict_lat.append(arrived - (t0 + offset))
        predict_sent.append(t0 + offset)
        envelope = json.loads(line)
        prediction = None
        if check(envelope, "predict"):
            payload = envelope["payload"]
            prediction = payload["prediction"]
            duplicate = entries[position][2]
            if payload["model"] != "adapted" or payload["n_rows"] != 8 or not np.all(
                np.isfinite(prediction)
            ):
                report["failed"] += 1
                report["problems"].append(f"predict {index}: bad payload")
            elif duplicate >= 0 and answers[index][duplicate] != prediction:
                report["failed"] += 1
                report["problems"].append(f"predict {index}: duplicate differs")
        answers.setdefault(index, []).append(prediction)
        if position == len(entries) - 1:
            burst_rtt.append(arrived - sent_at[index])
            answers.pop(index, None)
    missing = n_predicts + n_adapts - report["attempted"]
    report["attempted"] += missing
    report["failed"] += missing

    # Predicts sent while some adapt was in flight.
    merged: list[list[float]] = []
    for start, end in sorted(adapt_windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [start for start, _end in merged]
    behind = []
    for sent in predict_sent:
        at = bisect.bisect_right(starts, sent) - 1
        behind.append(at >= 0 and sent < merged[at][1])
    return {
        "t0": t0,
        "t1": t1,
        "predict_lat_s": predict_lat,
        "predict_behind_adapt": behind,
        "adapt_lat_s": adapt_lat,
        "late_s": late,
        "burst_rtt_s": burst_rtt,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "problems": report["problems"],
        "warmup_failed": warmup_failed,
        "warmup_adapt_s": warmup_adapt_s,
        "quality_ratio": float(np.mean(ratios)) if ratios else float("nan"),
        "metrics_before": before["payload"]["metrics"],
        "metrics_after": after["payload"]["metrics"],
    }


def run_serve(ctx: dict, trace_dir: str | None, setups: int) -> dict:
    from common import child_pids, peak_rss_mb

    if trace_dir:
        argv = [sys.executable, str(HERE / "program.py"), "serve", "--trace-dir", trace_dir,
                "--", *SERVER_ARGS]
    else:
        argv = [sys.executable, "-m", "repro.cli", *SERVER_ARGS]
    launch, setup_times = launch_series(argv, ctx["env"], ready_on_stderr=True, setups=setups)
    try:
        result = asyncio.run(_serve_session(launch.port, ctx))
        result["peak_rss_mb"] = peak_rss_mb([launch.process.pid, *child_pids(launch.process.pid)])
    finally:
        launch.stop()
    if launch.process.returncode != 0:
        result["problems"].append(f"server exited with {launch.process.returncode}")
        result["failed"] += 1
    result["setup_times"] = setup_times
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(workload: str, result: dict) -> tuple[dict, dict]:
    """``(metrics, named)``: the contract metrics and the same figures by their own names."""
    from common import percentile

    duration = result["t1"] - result["t0"]
    if workload == "onboard_pdr":
        waves = result["waves_s"]
        rate = result["targets"] / duration
        p50, tail, adapt_p50 = (_ms(percentile(waves, 50)), _ms(percentile(waves, 90)),
                                _ms(percentile(waves, 50)))
        named = {"adapt_per_s": rate, "wave_p50_ms": p50, "wave_p90_ms": tail,
                 "waves": len(waves), "targets": result["targets"]}
    elif workload == "serve_housing":
        lat = result["predict_lat_s"]
        rate = (len(lat) - result["failed"]) / duration
        p50, tail = _ms(percentile(lat, 50)), _ms(percentile(lat, 99))
        adapt_p50 = _ms(percentile(result["adapt_lat_s"], 50))
        named = {"predict_p50_ms": p50, "predict_p99_ms": tail, "adapt_p50_ms": adapt_p50,
                 "predicts": len(lat), "adapts": len(result["adapt_lat_s"])}
    else:
        ticks = result["ticks_s"]
        rate = result["events"] / duration
        tail_q = 99 if len(ticks) >= 1000 else 90
        p50, tail = _ms(percentile(ticks, 50)), _ms(percentile(ticks, tail_q))
        adapt_p50 = _ms(percentile(result["adapt_events_s"], 50))
        named = {"events_per_s": rate, "tick_p50_ms": p50, f"tick_p{tail_q}_ms": tail,
                 "budget_readapt_p50_ms": adapt_p50, "ticks": len(ticks),
                 "budget_readapts": len(result["adapt_events_s"])}
    setup = percentile(result["setup_times"], 50)
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "quality_ratio": (result["quality_ratio"], "ratio"),
        "rate_per_s": (rate, "1/s"),
        "p50_ms": (p50, "ms"),
        "tail_ms": (tail, "ms"),
        "adapt_p50_ms": (adapt_p50, "ms"),
    }
    attempted = max(1, result["attempted"])
    named.update(setup_s=setup, setup_runs_s=result["setup_times"],
                 peak_rss_mb=result["peak_rss_mb"], quality_ratio=result["quality_ratio"],
                 fail_ratio=result["failed"] / attempted)
    return metrics, named


def _window(spans: list[dict], result: dict) -> list[dict]:
    return [s for s in spans if result["t0"] <= s["start"] <= result["t1"]]


def _durations_ms(spans: list[dict], name: str) -> list[float]:
    return [_ms(s["end"] - s["start"]) for s in spans if s["name"] == name]


def _ipc_ms(spans: list[dict]) -> list[float]:
    """Ship plus return legs of each worker task, as the parent saw it.

    Ship: from the later of the task's submission and its worker finishing
    the previous task, to the task starting in the worker.  Return: from
    the task ending in the worker to its result arriving in the parent.
    """
    worker = {tuple(s["tag"]): s for s in spans if s["name"] == "runtime.worker_task"}
    previous_end: dict[tuple, float] = {}
    by_pid: dict[int, list[dict]] = {}
    for span in worker.values():
        by_pid.setdefault(span["pid"], []).append(span)
    for tasks in by_pid.values():
        tasks.sort(key=lambda s: s["start"])
        for before, after in zip(tasks, tasks[1:]):
            previous_end[tuple(after["tag"])] = before["end"]
    legs = []
    for span in spans:
        if span["name"] != "runtime.pool_task":
            continue
        task = worker.get(tuple(span["tag"]))
        if task is None:
            continue
        ready = max(span["start"], previous_end.get(tuple(span["tag"]), span["start"]))
        legs.append(_ms(max(0.0, task["start"] - ready) + span["end"] - task["end"]))
    return legs


def per_layer(workload: str, traced: dict, untraced: dict, spans: list[dict],
              probe_ms: float) -> dict:
    """Per-layer figures of the traced run, plus the tracing overhead."""
    from common import counter_delta, histogram_delta, histogram_quantile, percentile
    from tracing import self_times, under

    window = _window(spans, traced)
    before, after = traced["metrics_before"], traced["metrics_after"]
    selfs = self_times(spans)
    in_adapt = under(spans, "engine.adapt")

    submit = [s for s in window if s["name"] == "serve.submit_many"]
    request_kind = "predict" if workload == "serve_housing" else "stream"
    handle = [_ms(s["end"] - s["start"]) for s in submit if s["tag"][0] == request_kind]
    n_envelopes = len([s for s in window if s["name"] == "net.encode"])
    codec = sum(_durations_ms(window, "net.decode")) + sum(_durations_ms(window, "net.encode"))
    transport = 0.0
    if workload == "serve_housing" and handle:
        transport = _ms(_mean(traced["burst_rtt_s"])) - _mean(handle)
    bounds, counts, _sum, _count = histogram_delta(before, after, "serve.queue_wait_seconds")
    _b, _c, occupancy_sum, occupancy_n = histogram_delta(before, after, "batch.tile_occupancy")
    hits = counter_delta(before, after, "service.cache.hits")
    misses = counter_delta(before, after, "service.cache.misses")
    runs = counter_delta(before, after, "engine.runs")
    mc = [s for s in window if s["name"] == "uncertainty.mc_dropout"]
    pseudo = [s for s in window if s["name"] == "core.pseudo_label"]

    if workload == "onboard_pdr":
        first = _ms(traced["first_wave_s"] - percentile(traced["waves_s"], 50))
    else:
        first = _ms(traced["warmup_adapt_s"][0] - percentile(traced["warmup_adapt_s"][1:], 50))
    layers = {
        "net.codec_ms": codec / n_envelopes if n_envelopes else 0.0,
        "net.transport_ms": transport,
        "serve.queue_wait_p99_ms": _ms(histogram_quantile(bounds, counts, 0.99)),
        "serve.handle_ms": _mean(handle),
        "serve.tile_occupancy": occupancy_sum / occupancy_n if occupancy_n else 0.0,
        "serve.dedup_hits": counter_delta(before, after, "batch.dedup_hits"),
        "runtime.worker_compute_ms": _mean(_durations_ms(window, "runtime.worker_task")),
        "runtime.ipc_ms": _mean(_ipc_ms(window)),
        "runtime.first_task_ms": first,
        "runtime.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.snapshot_save_ms": _mean(_durations_ms(window, "snapshot.save")),
        "runtime.snapshot_load_ms": _mean(_durations_ms(window, "snapshot.load")),
        "snapshots.spilled": counter_delta(before, after, "snapshots.spilled"),
        "snapshots.resumed": counter_delta(before, after, "snapshots.resumed"),
        "streaming.ingest_self_ms": _mean(
            _ms(selfs[(s["pid"], s["id"])]) for s in window if s["name"] == "stream.ingest"
        ),
        "streaming.readapts": counter_delta(before, after, "stream.actions", action="warm_adapt")
        + counter_delta(before, after, "stream.actions", action="cold_adapt"),
        "stream.drift.detections": counter_delta(before, after, "stream.drift.detections"),
        "engine.finetune_ms": _mean(_durations_ms(window, "engine.finetune")),
        "engine.epochs": counter_delta(before, after, "engine.epochs") / runs if runs else 0.0,
        "core.pseudo_label_ms": _mean(_durations_ms(pseudo, "core.pseudo_label")),
        "core.density_ms": _mean(_durations_ms(window, "core.density")),
        "core.uncertain_samples": _mean(s["tag"] for s in pseudo),
        "uncertainty.mc_dropout_adapt_ms": _mean(
            _ms(s["end"] - s["start"]) for s in mc if (s["pid"], s["id"]) in in_adapt
        ),
        "uncertainty.mc_dropout_probe_ms": _mean(
            _ms(s["end"] - s["start"]) for s in mc if (s["pid"], s["id"]) not in in_adapt
        ),
        "nn.clone_ms": _mean(_durations_ms(window, "nn.clone")),
        "nn.forward_ms": _mean(_durations_ms(window, "nn.forward")),
        "bench.gen_late_p99_ms": _ms(percentile(traced["late_s"], 99)),
        "bench.host_probe_ms": probe_ms,
    }
    if workload == "serve_housing":
        behind = traced["predict_behind_adapt"]
        clear = [lat for lat, flag in zip(traced["predict_lat_s"], behind) if not flag]
        layers["serve.behind_adapt_share"] = sum(behind) / len(behind) if behind else 0.0
        layers["serve.predict_p99_clear_ms"] = _ms(percentile(clear, 99)) if clear else 0.0
    else:
        layers["serve.behind_adapt_share"] = 0.0
        layers["serve.predict_p99_clear_ms"] = 0.0
    traced_e2e, _ = end_to_end(workload, traced)
    untraced_e2e, _ = end_to_end(workload, untraced)
    for name, sign in (("rate_per_s", -1.0), ("p50_ms", 1.0), ("tail_ms", 1.0),
                       ("adapt_p50_ms", 1.0)):
        # Positive when the traced pass did worse than the untraced one.
        base = untraced_e2e[name][0]
        layers[f"obs.trace_overhead_pct.{name}"] = (
            sign * 100.0 * (traced_e2e[name][0] - base) / base
        )
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = ("onboard_pdr", "serve_housing", "stream_taxi")


def run_workload(workload: str, ctx: dict, trace_dir: str | None, setups: int) -> dict:
    if workload == "serve_housing":
        return run_serve(ctx, trace_dir, setups)
    return run_closed_loop(workload, ctx, trace_dir, setups)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from common import blas_facts, emit, host_probe_ms, percentile, unit_of

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    work = root / ".perfbench" / f"run-{os.getpid()}"
    ctx = {"seed": args.seed, "seconds": args.seconds, "env": env, "work": work}
    probes = [host_probe_ms()]
    try:
        if args.trace:
            # Two passes of half the run each, untraced then traced, so a
            # traced run costs about what an untraced one does.
            half = dict(ctx, seconds=max(5, args.seconds // 2))
            untraced = run_workload(args.workload, half, None, 1)
            trace_dir = str(work / "trace")
            traced = run_workload(args.workload, half, trace_dir, 1)
            from tracing import load_spans

            probes.append(host_probe_ms())
            layers = per_layer(args.workload, traced, untraced, load_spans(trace_dir),
                               percentile(probes, 50))
            metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
            result = traced
            _, named = end_to_end(args.workload, traced)
        else:
            result = run_workload(args.workload, ctx, None, SETUPS)
            probes.append(host_probe_ms())
            metrics, named = end_to_end(args.workload, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench").rmdir()
        except OSError:
            pass

    problems = list(result.get("problems", []))
    if result.get("identity_mismatches"):
        problems.append(f"pooled != serial adaptation for {result['identity_mismatches']}")
    if result.get("warmup_failed"):
        problems.append(f"{result['warmup_failed']} warm-up operations failed")
    after = result["metrics_after"]
    from common import counter_delta

    spilled = counter_delta({}, after, "snapshots.spilled")
    resumed = counter_delta({}, after, "snapshots.resumed")
    corrupt = counter_delta({}, after, "snapshots.corrupt")
    if resumed + corrupt > spilled:
        problems.append(f"snapshots: resumed {resumed} + corrupt {corrupt} > spilled {spilled}")
    if args.workload == "stream_taxi" and not spilled:
        problems.append("stream_taxi spilled no snapshots")
    finite = all(value == value and abs(value) != float("inf") for value, _ in metrics.values())
    if not finite:
        problems.append("a metric is not a finite number")
    correct = not problems and result["failed"] == 0

    host = dict(blas_facts(), program_blas=result.get("blas"), host_probe_ms=probes,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                confirm_seed=CONFIRM_SEED)
    emit({"workload": args.workload, "host": host, "figures": named, "problems": problems[:20],
          "snapshots": {"spilled": spilled, "resumed": resumed, "corrupt": corrupt}})
    emit({
        "correct": correct,
        "attempted": int(max(1, result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
