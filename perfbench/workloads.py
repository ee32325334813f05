"""Seeded input generation for the three benchmark workloads.

Every input the program receives is drawn here from the workload seed, with
the repository's own generators (``make_drift_stream`` over the scenarios of
a task bundle).  The bundles themselves — source data, trained source model,
calibration — are the program's fixed deployment and always use seed 0.

Each generated stream batch is split into rows the program sees and a few
labelled rows it never sees (``held``), on which ``quality_ratio`` compares
the adapted model with the source model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.data import make_drift_stream

__all__ = [
    "BUNDLE_SEED",
    "DRIFT_MIX",
    "User",
    "pdr_fleet",
    "housing_users",
    "taxi_streams",
    "predict_schedule",
]

#: Seed of the task bundles (source model and calibration) every workload serves.
BUNDLE_SEED = 0
#: Drift kinds the users are drawn from.
DRIFT_MIX = ("sudden", "recurring", "gradual")


@dataclass
class User:
    """One target: rows the program adapts on, plus labelled held-out rows."""

    target_id: str
    inputs: np.ndarray
    held_inputs: np.ndarray
    held_targets: np.ndarray


def _split_user(target_id, stream, seen_rows: int) -> User:
    seen = [batch.inputs[:seen_rows] for batch in stream.batches]
    held = [batch.inputs[seen_rows:] for batch in stream.batches]
    held_targets = [batch.targets[seen_rows:] for batch in stream.batches]
    return User(
        target_id,
        np.concatenate(seen),
        np.concatenate(held),
        np.concatenate(held_targets),
    )


def _users(scenarios, prefix: str, count: int, rng, n_steps: int, rows: int, held: int):
    users = []
    for index in range(count):
        # Scenarios and drift kinds rotate, so every fleet has the same mix
        # and seeds differ only in the rows drawn.
        scenario = scenarios[index % len(scenarios)]
        kind = DRIFT_MIX[index % len(DRIFT_MIX)]
        stream = make_drift_stream(
            scenario,
            kind,
            n_steps=n_steps,
            batch_size=rows + held,
            seed=int(rng.integers(2**31)),
        )
        users.append(_split_user(f"{prefix}{index:04d}", stream, rows))
    return users


def pdr_fleet(bundle, seed: int, count: int) -> list[User]:
    """``count`` PDR users over the bundle's scenarios: 64 rows to adapt, 16 held out."""
    rng = np.random.default_rng([seed, 1])
    return _users(bundle.task.scenarios, f"pdr-{seed}-", count, rng, 4, 16, 4)


def housing_users(bundle, seed: int, prefix: str, count: int, n_steps: int) -> list[User]:
    """Housing users with ``16 * n_steps`` rows to adapt on and ``4 * n_steps`` held out."""
    rng = np.random.default_rng([seed, 2, zlib.crc32(prefix.encode("utf-8")), n_steps])
    return _users(bundle.task.scenarios, f"{prefix}{seed}-", count, rng, n_steps, 16, 4)


def taxi_streams(bundle, seed: int, n_users: int, n_ticks: int, rows: int, held: int):
    """Per-user stream batches for ``n_ticks`` ticks.

    A user's stream is a chain of 48-step drift segments, each a fresh
    seeded ``make_drift_stream`` of one drift kind, so every stretch of a
    run sees sudden, recurring and gradual drift whatever its length.
    Returns ``(ids, seen, held_inputs, held_targets)`` where ``seen[u][t]``
    is user ``u``'s batch at tick ``t``.
    """
    scenarios = bundle.task.scenarios
    segment = 48
    ids, seen, held_inputs, held_targets = [], [], [], []
    for user in range(n_users):
        # One generator per user: a user's first ticks do not depend on n_ticks.
        rng = np.random.default_rng([seed, 3, user])
        batches = []
        while len(batches) < n_ticks:
            segment_index = len(batches) // segment
            scenario = scenarios[(user + segment_index) % len(scenarios)]
            kind = DRIFT_MIX[(user + segment_index) % len(DRIFT_MIX)]
            stream = make_drift_stream(
                scenario, kind, n_steps=segment, batch_size=rows + held,
                seed=int(rng.integers(2**31)),
            )
            batches.extend(stream.batches)
        batches = batches[:n_ticks]
        ids.append(f"taxi-{seed}-{user:02d}")
        seen.append([batch.inputs[:rows] for batch in batches])
        held_inputs.append([batch.inputs[rows:] for batch in batches])
        held_targets.append([batch.targets[rows:] for batch in batches])
    return ids, seen, held_inputs, held_targets


def predict_schedule(seed: int, seconds: float, bursts_per_s: float, n_users: int,
                     max_burst: int, dup_share: float):
    """Open-loop predict bursts with Poisson arrivals, 1..max_burst predicts each.

    The run holds exactly ``round(bursts_per_s * seconds)`` bursts at
    uniformly drawn times (a Poisson process given its count), and burst
    sizes cycle through 1..max_burst in shuffled order, so every seed offers
    the same load and differs only in when it arrives and what it asks.
    Returns a list of ``(offset_seconds, [(user_index, row_start, duplicate_of), ...])``;
    ``duplicate_of`` is the position of an earlier predict in the same burst
    that this one repeats exactly, or -1.
    """
    rng = np.random.default_rng([seed, 4])
    n_bursts = int(round(bursts_per_s * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, size=n_bursts))
    sizes = rng.permutation(np.resize(np.arange(1, max_burst + 1), n_bursts))
    bursts = []
    for offset, size in zip(offsets, sizes):
        entries = []
        for position in range(int(size)):
            if position and rng.random() < dup_share:
                original = int(rng.integers(position))
                entries.append(entries[original][:2] + (original,))
            else:
                entries.append((int(rng.integers(n_users)), int(rng.integers(0, 64)), -1))
        bursts.append((float(offset), entries))
    return bursts
