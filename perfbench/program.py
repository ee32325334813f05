"""The program side of the benchmark: one process per set-up.

Run by ``perfbench/run.py``, never by hand::

    python3 perfbench/program.py onboard_pdr --seed 7 --seconds 12 [--trace-dir D]
    python3 perfbench/program.py stream_taxi --seed 7 --seconds 12 --work-dir W [--trace-dir D]
    python3 perfbench/program.py serve --trace-dir D -- <repro serve arguments>

The closed-loop modes build the program in this process, print
``{"event": "ready"}`` and wait for one line on stdin: ``stop`` ends the
process (a set-up-only launch), ``go`` generates the seeded inputs, runs
the untimed warm-up and the timed phase, and prints ``{"event": "result",
...}``.  ``serve`` installs the tracing wrappers and then runs the
repository's own ``repro serve`` command line in this process.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Worker processes adapting the PDR fleet.
PDR_JOBS = 2
#: PDR users adapted before the timed phase (one per worker: pays the lazy pool start).
PDR_WARMUP = PDR_JOBS
#: PDR users whose held-out rows give ``quality_ratio``; every run adapts them.
PDR_QUALITY = 20
#: PDR users re-adapted serially in-process after the timed phase and compared bit for bit.
PDR_IDENTITY = 2
#: Users streaming in ``stream_taxi``, and the LRU capacity of each of its two shards.
TAXI_USERS = 16
TAXI_CACHE = 3
#: Stream rows a taxi user sends per tick, and labelled rows held back per tick.
TAXI_ROWS = 16
TAXI_HELD = 4
#: Untimed ticks before the timed phase; the last eight give ``quality_ratio``.
TAXI_WARMUP = 24


def _wait_for_go() -> bool:
    from common import emit

    emit({"event": "ready"})
    command = sys.stdin.readline().strip()
    return command == "go"


def _mae_ratio(adapted, source, targets) -> float:
    import numpy as np

    adapted_mae = float(np.mean(np.abs(adapted - targets)))
    source_mae = float(np.mean(np.abs(source - targets)))
    return adapted_mae / source_mae


def run_onboard_pdr(args) -> int:
    import numpy as np

    from common import blas_facts, emit, peak_rss_mb
    from repro.core import TasfarConfig
    from repro.experiments import get_bundle
    from repro.nn.serialization import parameter_bytes
    from repro.nn.trainer import predict_batched
    from repro.runtime import AdaptationService
    from workloads import BUNDLE_SEED, pdr_fleet

    bundle = get_bundle("pdr", "small", BUNDLE_SEED)

    def new_service() -> AdaptationService:
        return AdaptationService(
            bundle.source_model,
            bundle.calibration,
            config=TasfarConfig(seed=BUNDLE_SEED),
            max_cached_models=100_000,
            base_seed=BUNDLE_SEED,
        )

    service = new_service()
    pool = service.use_process_workers(PDR_JOBS)
    try:
        if not _wait_for_go():
            return 0
        fleet = pdr_fleet(bundle, args.seed, 600)
        start = time.perf_counter()
        service.adapt_many(
            {u.target_id: u.inputs for u in fleet[:PDR_WARMUP]}, jobs=PDR_JOBS, executor="process"
        )
        first_wave_s = time.perf_counter() - start
        metrics_before = service.metrics.snapshot()

        waves: list[float] = []
        gaps: list[float] = []
        failed = 0
        problems: list[str] = []
        adapted = PDR_WARMUP
        t0 = end = time.perf_counter()
        deadline = t0 + args.seconds
        while adapted + PDR_JOBS <= len(fleet) and (
            time.perf_counter() < deadline or adapted < PDR_QUALITY
        ):
            wave = fleet[adapted : adapted + PDR_JOBS]
            start = time.perf_counter()
            gaps.append(start - end)
            try:
                service.adapt_many(
                    {u.target_id: u.inputs for u in wave}, jobs=PDR_JOBS, executor="process"
                )
            except Exception as exc:  # counted, reported, and the loop goes on
                failed += len(wave)
                problems.append(f"wave at {adapted}: {exc!r}")
            end = time.perf_counter()
            waves.append(end - start)
            adapted += len(wave)
        t1 = time.perf_counter()
        metrics_after = service.metrics.snapshot()
        rss = peak_rss_mb([os.getpid(), *pool.worker_pids()])

        ratios = []
        for user in fleet[:PDR_QUALITY]:
            ratios.append(
                _mae_ratio(
                    service.predict(user.target_id, user.held_inputs, strict=True),
                    predict_batched(bundle.source_model, user.held_inputs),
                    user.held_targets,
                )
            )
        reference = new_service()
        mismatches = []
        for user in fleet[PDR_WARMUP : PDR_WARMUP + PDR_IDENTITY]:
            serial = reference.adapt(user.target_id, user.inputs)
            pooled = service.report_for(user.target_id)
            same_losses = serial.losses == pooled.losses
            same_bytes = parameter_bytes(reference.model_for(user.target_id)) == parameter_bytes(
                service.model_for(user.target_id)
            )
            if not (same_losses and same_bytes):
                mismatches.append(user.target_id)
        facts = blas_facts()
    finally:
        service.close()
    emit(
        {
            "event": "result",
            "t0": t0,
            "t1": t1,
            "targets": adapted - PDR_WARMUP,
            "attempted": adapted - PDR_WARMUP,
            "failed": failed,
            "problems": problems,
            "waves_s": waves,
            "late_s": gaps,
            "first_wave_s": first_wave_s,
            "quality_ratio": float(np.mean(ratios)),
            "identity_mismatches": mismatches,
            "peak_rss_mb": rss,
            "metrics_before": metrics_before,
            "metrics_after": metrics_after,
            "blas": facts,
        }
    )
    return 0


def run_stream_taxi(args) -> int:
    import numpy as np

    from common import blas_facts, emit, peak_rss_mb
    from repro.experiments import get_bundle
    from repro.nn.trainer import predict_batched
    from repro.serve import Gateway, StreamRequest
    from workloads import BUNDLE_SEED, taxi_streams

    bundle = get_bundle("taxi", "small", BUNDLE_SEED)
    gateway = Gateway.from_task(
        "taxi",
        scale="small",
        seed=BUNDLE_SEED,
        n_shards=2,
        shard_workers=1,
        executor="thread",
        max_cached_models=TAXI_CACHE,
        snapshot_dir=str(Path(args.work_dir) / "snapshots"),
    )
    try:
        if not _wait_for_go():
            return 0
        # Enough input for 40 ms ticks (ticks take 50 ms or more on a 2-core
        # host); a faster host ends the timed phase when the streams run out.
        n_ticks = TAXI_WARMUP + 25 * int(args.seconds) + 100
        ids, seen, held_inputs, held_targets = taxi_streams(
            bundle, args.seed, TAXI_USERS, n_ticks, TAXI_ROWS, TAXI_HELD
        )
        attempted = failed = 0

        def requests(index: int) -> list:
            return [StreamRequest(uid, seen[user][index]) for user, uid in enumerate(ids)]

        def adapt_durations(envelopes, actions, triggers) -> list[float]:
            events = [envelope.payload["event"] for envelope in envelopes if envelope.ok]
            return [
                event["duration_seconds"]
                for event in events
                if event["action"] in actions and event["trigger"] in triggers
            ]

        def count(envelopes) -> None:
            nonlocal attempted, failed
            attempted += len(envelopes)
            failed += sum(1 for envelope in envelopes if not envelope.ok)

        warmup_adapts: list[float] = []
        for index in range(TAXI_WARMUP):
            envelopes = gateway.submit_many(requests(index))
            count(envelopes)
            warmup_adapts.extend(
                adapt_durations(envelopes, ("cold_adapt", "warm_adapt"), ("warmup", "budget", "drift"))
            )
        ratios = []
        for user, uid in enumerate(ids):
            rows = np.concatenate(held_inputs[user][TAXI_WARMUP - 8 : TAXI_WARMUP])
            targets = np.concatenate(held_targets[user][TAXI_WARMUP - 8 : TAXI_WARMUP])
            ratios.append(
                _mae_ratio(
                    gateway.predict(uid, rows),
                    predict_batched(bundle.source_model, rows),
                    targets,
                )
            )
        failed_warmup = failed
        attempted = failed = 0
        metrics_before = gateway.metrics_snapshot()
        ticks: list[float] = []
        gaps: list[float] = []
        adapt_events: list[float] = []
        events = 0
        index = TAXI_WARMUP
        t0 = end = time.perf_counter()
        deadline = t0 + args.seconds
        while index < n_ticks and time.perf_counter() < deadline:
            burst = requests(index)
            start = time.perf_counter()
            envelopes = gateway.submit_many(burst)
            end_of_tick = time.perf_counter()
            ticks.append(end_of_tick - start)
            gaps.append(start - end)
            end = end_of_tick
            count(envelopes)
            events += sum(e.payload["event"]["n_events"] for e in envelopes if e.ok)
            # Budget-triggered warm re-adaptations all train on the same 128
            # buffered rows; drift-triggered ones train on 16-128, and a median
            # over that mix moves with the mix, not with the code.
            adapt_events.extend(adapt_durations(envelopes, ("warm_adapt",), ("budget",)))
            index += 1
        t1 = time.perf_counter()
        metrics_after = gateway.metrics_snapshot()
        rss = peak_rss_mb([os.getpid()])
        facts = blas_facts()
    finally:
        gateway.close()
    emit(
        {
            "event": "result",
            "t0": t0,
            "t1": t1,
            "ticks_s": ticks,
            "late_s": gaps,
            "warmup_adapt_s": warmup_adapts,
            "events": events,
            "adapt_events_s": adapt_events,
            "attempted": attempted,
            "failed": failed,
            "warmup_failed": failed_warmup,
            "quality_ratio": float(np.mean(ratios)),
            "peak_rss_mb": rss,
            "metrics_before": metrics_before,
            "metrics_after": metrics_after,
            "blas": facts,
        }
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    passthrough: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, passthrough = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("onboard_pdr", "stream_taxi", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--work-dir", default=None)
    args = parser.parse_args(argv)
    if args.trace_dir:
        import tracing

        tracing.install(args.trace_dir)
    try:
        if args.mode == "onboard_pdr":
            return run_onboard_pdr(args)
        if args.mode == "stream_taxi":
            return run_stream_taxi(args)
        from repro.cli import main as serve

        return serve(passthrough)
    finally:
        if args.trace_dir:
            import tracing

            tracing.flush()


if __name__ == "__main__":
    sys.exit(main())
