"""Timed execution of perf scenarios and the ``BENCH_perf.json`` shape.

The harness runs each scenario ``repeats`` times, keeps the fastest
wall-clock repeat (event counts are deterministic, wall time is not),
and reports simulator throughput three ways:

* ``events_per_s`` — scheduled simulator callbacks per wall second,
  the engine-level headline;
* ``sim_ns_per_s`` — simulated nanoseconds per wall second;
* ``ops_per_s`` — application-level operations per wall second.

For cancellation-heavy scenarios (``failover_availability``'s RPC
watchdogs and lease timers), ``events_scheduled`` and ``events_fired``
diverge by exactly the artifact's ``events_cancelled`` count; quote
``fired_per_s`` as the headline there, since cancelled callbacks are
bookkeeping, not dispatched work.

Event counts come from :data:`repro.sim.engine.TRACKED_SIMULATORS`:
every simulator a scenario builds registers itself while a bench is
running, so multi-cluster scenarios (e.g. the fuzz lane's many rounds)
are fully accounted.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.common.atomic import atomic_write_json
from repro.common.errors import ConfigError
from repro.perf.scenarios import SCENARIOS, ScenarioFn
from repro.sim import engine as engine_mod

#: Default artifact path, relative to the repo root / current directory.
DEFAULT_ARTIFACT = "BENCH_perf.json"


@contextmanager
def _tracked_simulators() -> Iterator[List[Any]]:
    """Collect every Simulator constructed inside the block."""
    prev = engine_mod.TRACKED_SIMULATORS
    sims: List[Any] = []
    engine_mod.TRACKED_SIMULATORS = sims
    try:
        yield sims
    finally:
        engine_mod.TRACKED_SIMULATORS = prev


@dataclass
class ScenarioTiming:
    """Best-repeat measurement of one scenario.

    ``events_scheduled`` and ``events_fired`` legitimately diverge in
    cancellation-heavy scenarios (failover watchdogs, lease timers):
    every cancelled callback was scheduled but never fires.
    ``events_cancelled`` makes that gap explicit in the artifact, and
    :attr:`fired_per_s` — not :attr:`events_per_s` — is the headline
    throughput number to quote for those scenarios, since it only
    counts callbacks that did real work.
    """

    name: str
    wall_s: float
    events_scheduled: int
    events_fired: int
    sim_ns: float
    ops: float
    events_cancelled: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        return self.events_scheduled / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def fired_per_s(self) -> float:
        return self.events_fired / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def sim_ns_per_s(self) -> float:
        return self.sim_ns / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "wall_s": round(self.wall_s, 6),
            "events_scheduled": self.events_scheduled,
            "events_fired": self.events_fired,
            "events_cancelled": self.events_cancelled,
            "events_per_s": round(self.events_per_s, 1),
            "fired_per_s": round(self.fired_per_s, 1),
            "sim_ns": self.sim_ns,
            "sim_ns_per_s": round(self.sim_ns_per_s, 1),
            "ops": self.ops,
            "ops_per_s": round(self.ops_per_s, 1),
        }
        out.update(self.extras)
        return out

    #: to_json_dict keys that are derived or core (everything else in a
    #: journaled payload is an ``extras`` counter).
    _CORE_KEYS = frozenset(
        {
            "wall_s",
            "events_scheduled",
            "events_fired",
            "events_cancelled",
            "events_per_s",
            "fired_per_s",
            "sim_ns",
            "sim_ns_per_s",
            "ops",
            "ops_per_s",
        }
    )

    @classmethod
    def from_json_dict(cls, name: str, data: Dict[str, Any]) -> "ScenarioTiming":
        """Rebuild a timing from its journaled ``to_json_dict`` payload
        (derived ``*_per_s`` rates recompute from the raw fields)."""
        return cls(
            name=name,
            wall_s=float(data["wall_s"]),
            events_scheduled=int(data["events_scheduled"]),
            events_fired=int(data["events_fired"]),
            sim_ns=float(data["sim_ns"]),
            ops=float(data["ops"]),
            events_cancelled=int(data.get("events_cancelled", 0)),
            extras={
                k: v for k, v in data.items() if k not in cls._CORE_KEYS
            },
        )


def run_scenario(
    name: str,
    fn: Optional[ScenarioFn] = None,
    scale: float = 1.0,
    repeats: int = 2,
) -> ScenarioTiming:
    """Run one scenario ``repeats`` times; keep the fastest repeat."""
    if fn is None:
        try:
            fn = SCENARIOS[name]
        except KeyError:
            raise ConfigError(
                f"unknown perf scenario {name!r}; "
                f"registered: {', '.join(SCENARIOS)}"
            ) from None
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    best: Optional[ScenarioTiming] = None
    for _ in range(repeats):
        with _tracked_simulators() as sims:
            t0 = time.perf_counter()
            counters = dict(fn(scale))
            wall = time.perf_counter() - t0
        scheduled = sum(s.events_scheduled for s in sims)
        fired = sum(s.events_fired for s in sims)
        cancelled = sum(s.events_cancelled for s in sims)
        sim_ns = float(counters.pop("sim_ns", 0.0))
        ops = float(counters.pop("ops", 0.0))
        timing = ScenarioTiming(
            name=name,
            wall_s=wall,
            events_scheduled=scheduled,
            events_fired=fired,
            sim_ns=sim_ns,
            ops=ops,
            events_cancelled=cancelled,
            extras=counters,
        )
        if best is None or timing.wall_s < best.wall_s:
            best = timing
    assert best is not None
    return best


@dataclass
class BenchResult:
    """One full perf-suite run: per-scenario timings plus provenance."""

    scenarios: Dict[str, ScenarioTiming]
    scale: float
    repeats: int
    elapsed_s: float
    reference: Optional[Dict[str, Any]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "suite": "repro-perf",
            "version": 1,
            "scale": self.scale,
            "repeats": self.repeats,
            # The scheduler that produced the numbers: "kernel" is the
            # compiled heap core; older files say "calendar".
            "engine": "kernel",
            "elapsed_s": round(self.elapsed_s, 3),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "scenarios": {
                name: timing.to_json_dict()
                for name, timing in self.scenarios.items()
            },
        }
        if self.reference is not None:
            out["reference"] = self.reference
        return out

    def write_json(self, path: str) -> None:
        atomic_write_json(path, self.to_json_dict())


def _speedups(
    scenarios: Dict[str, ScenarioTiming], reference: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-scenario throughput ratios vs a reference BENCH dict."""
    ref_rows = reference.get("scenarios", {})
    speedups: Dict[str, Any] = {}
    for name, timing in scenarios.items():
        row = ref_rows.get(name)
        if not row:
            continue
        entry: Dict[str, float] = {}
        ref_events = row.get("events_per_s") or 0.0
        if ref_events > 0:
            entry["events_per_s"] = round(timing.events_per_s / ref_events, 3)
        ref_sim = row.get("sim_ns_per_s") or 0.0
        if ref_sim > 0:
            entry["sim_ns_per_s"] = round(timing.sim_ns_per_s / ref_sim, 3)
        if entry:
            speedups[name] = entry
    return speedups


def _scenario_key(name: str, scale: float, repeats: int) -> str:
    """Journal key for one scenario measurement configuration."""
    import hashlib

    canon = repr(("repro-perf", 1, name, scale, repeats))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_suite(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    repeats: int = 2,
    reference_path: Optional[str] = None,
    journal: Optional[Any] = None,
) -> BenchResult:
    """Run the (selected) scenarios and assemble a :class:`BenchResult`.

    ``reference_path`` names a previously written BENCH JSON (e.g. the
    committed pre-optimization reference); when given, the result embeds
    per-scenario speedup ratios against it.

    ``journal`` is a :class:`repro.experiments.context.CampaignContext`
    (typically a campaign directory's context): each scenario's timing
    is recorded as it lands, and already-journaled scenarios are served
    back instead of re-measured — so a killed suite resumes from the
    unfinished scenarios, exactly like an experiment campaign.  Wall
    times are of course only as fresh as the attempt that measured
    them; delete the journal to force re-measurement.
    """
    chosen = list(names) if names else list(SCENARIOS)
    start = time.perf_counter()
    timings: Dict[str, ScenarioTiming] = {}
    for name in chosen:
        key = None
        if journal is not None:
            key = _scenario_key(name, scale, repeats)
            cached = journal.get(key)
            if cached is not None:
                timings[name] = ScenarioTiming.from_json_dict(name, cached)
                continue
        timings[name] = run_scenario(name, scale=scale, repeats=repeats)
        if journal is not None and key is not None:
            journal.record(key, timings[name].to_json_dict(), stage=name)
    elapsed = time.perf_counter() - start
    reference = None
    if reference_path:
        with open(reference_path) as fh:
            ref = json.load(fh)
        reference = {
            "path": reference_path,
            "engine": ref.get("engine", "unknown"),
            "speedup": _speedups(timings, ref),
        }
    return BenchResult(
        scenarios=timings,
        scale=scale,
        repeats=repeats,
        elapsed_s=elapsed,
        reference=reference,
    )
