"""Availability workloads: the sharded service under shard crashes.

Closed-loop readers, writers, and small read-modify-write transactions
drive :class:`~repro.objstore.sharded.ShardedKV` while a
:class:`~repro.objstore.failover.FailoverManager` executes a
crash/recover cycle plan (one shard down at a time, round-robin).  The
workload meters two things the contention-only suites cannot:

* **availability** — reads and writes keep completing *while a primary
  is down*, served by the promoted backups (``reads_during_outage`` /
  ``writes_during_outage``), and transactions keep committing around
  forced ``abort_crash`` aborts;
* **atomicity across promotions** — every consumed read still passes
  the ground-truth torn-read audit, so ``undetected_violations`` and
  ``torn_reads_observed`` must stay zero for every detecting protocol
  even when reads cross a crash boundary onto a backup replica or a
  freshly re-synced shard.

Two experiments register with the framework:

* ``failover_availability`` — reads/writes under SABRes across a
  growing number of crash/recovery cycles on a 4-shard deployment;
  shows reads continuing (via promoted backups) while a primary is
  down.
* ``failover_atomicity`` — every detecting mechanism through >= 3
  crash/recovery cycles at 4 shards: zero undetected violations, zero
  transaction-side torn reads, byte-identical under parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.experiments import ExperimentSpec, Variant, register
from repro.faults import FaultInjector, FaultSchedule
from repro.harness.report import scaled_duration
from repro.objstore.failover import FailoverManager, FailurePlan
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager, TxnStats
from repro.sim.stats import Samples
from repro.workloads.generators import UniformPicker, ZipfianPicker

#: Fault kinds a mix config can schedule (beyond the crash cycles).
MIX_FAULT_KINDS = ("none", "gray", "straggler", "partition")


@dataclass
class FailoverMixConfig:
    """One failover run: a mixed read/write/txn load plus a cycle plan.

    The crash schedule is expressed as *fractions* of ``duration_ns``
    (``first_crash_frac``, ``downtime_frac``, ``uptime_frac``) so the
    same config scales with ``--scale`` sweeps without the plan falling
    off the end of the run."""

    mechanism: str = "sabre"
    n_shards: int = 4
    n_clients: int = 0  # 0 = one client node per shard
    readers_per_client: int = 2
    writers_per_client: int = 1
    txn_sessions_per_client: int = 1
    txn_size: int = 3
    writes_per_txn: int = 1
    replication: int = 2
    object_size: int = 512
    n_objects: int = 64
    duration_ns: float = 200_000.0
    warmup_ns: float = 10_000.0
    cycles: int = 3
    first_crash_frac: float = 0.15
    downtime_frac: float = 0.12
    uptime_frac: float = 0.10
    write_pause_ns: float = 150.0
    fallback_after_ns: float = 0.0
    seed: int = 1
    version_bits: int = 16
    vnodes: int = 64
    #: Key popularity: ``uniform`` or ``zipfian`` (the alias-table
    #: generator; hot keys make fault windows hurt more).
    distribution: str = "uniform"
    zipf_theta: float = 0.99
    #: Fault lane beyond crash cycles: ``none``, ``gray``,
    #: ``straggler``, or ``partition`` windows round-robining over the
    #: shards, expressed as fractions of ``duration_ns`` like the crash
    #: schedule.
    fault_kind: str = "none"
    fault_windows: int = 0
    fault_first_frac: float = 0.2
    fault_width_frac: float = 0.15
    fault_gap_frac: float = 0.05
    gray_multiplier: float = 8.0
    partition_drop: bool = True
    partition_latency_mult: float = 1.0
    partition_bw_mult: float = 1.0
    #: Clock skew applied to every *client* node's lease view (shards
    #: stay synchronous): clients observe crashes late and their RPC
    #: watchdogs stretch accordingly.
    clock_skew_ns: float = 0.0
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)

    def validate(self) -> None:
        if self.readers_per_client < 1:
            raise ConfigError("need at least one reader per client")
        if self.writers_per_client < 0 or self.txn_sessions_per_client < 0:
            raise ConfigError("process counts cannot be negative")
        if self.cycles < 0:
            raise ConfigError(f"cycles cannot be negative: {self.cycles}")
        if self.replication < 2 and self.cycles > 0:
            raise ConfigError(
                "failover runs need replication >= 2 (a crashed singleton "
                "has nothing to promote)"
            )
        if not 0 < self.first_crash_frac < 1:
            raise ConfigError("first_crash_frac must be in (0, 1)")
        if self.downtime_frac <= 0 or self.uptime_frac < 0:
            raise ConfigError(
                "downtime_frac must be positive, uptime_frac non-negative"
            )
        if self.warmup_ns < 0 or self.warmup_ns >= self.duration_ns:
            raise ConfigError("warmup must end before the run does")
        if not 1 <= self.txn_size <= self.n_objects:
            raise ConfigError("txn_size must be in [1, n_objects]")
        if not 0 <= self.writes_per_txn <= self.txn_size:
            raise ConfigError("writes_per_txn must be in [0, txn_size]")
        if self.plan().end_ns() > self.duration_ns:
            raise ConfigError(
                "crash/recover plan extends past the run; shrink cycles or "
                "the schedule fractions"
            )
        if self.distribution not in ("uniform", "zipfian"):
            raise ConfigError(
                f"unknown distribution {self.distribution!r}"
            )
        if self.fault_kind not in MIX_FAULT_KINDS:
            raise ConfigError(
                f"unknown fault_kind {self.fault_kind!r}; pick from "
                f"{MIX_FAULT_KINDS}"
            )
        if self.fault_windows < 0:
            raise ConfigError(
                f"fault_windows cannot be negative: {self.fault_windows}"
            )
        if self.clock_skew_ns < 0:
            raise ConfigError(
                f"clock_skew_ns cannot be negative: {self.clock_skew_ns}"
            )
        if self.fault_schedule().end_ns() > self.duration_ns:
            raise ConfigError(
                "fault schedule extends past the run; shrink fault_windows "
                "or the window fractions"
            )
        self.to_sharded().validate()

    def to_sharded(self) -> ShardedConfig:
        return ShardedConfig(
            n_shards=self.n_shards,
            n_clients=self.n_clients,
            replication=self.replication,
            mechanism=self.mechanism,
            object_size=self.object_size,
            n_objects=self.n_objects,
            version_bits=self.version_bits,
            vnodes=self.vnodes,
            seed=self.seed,
            fallback_after_ns=self.fallback_after_ns,
            costs=self.costs,
        )

    def plan(self) -> FailurePlan:
        return FailurePlan.cycles(
            range(self.n_shards),
            first_crash_ns=self.first_crash_frac * self.duration_ns,
            downtime_ns=self.downtime_frac * self.duration_ns,
            uptime_ns=self.uptime_frac * self.duration_ns,
            count=self.cycles,
        )

    def fault_schedule(self, n_nodes: int = 0) -> FaultSchedule:
        """The gray/straggler/partition windows (fractions of
        ``duration_ns``, like :meth:`plan`) plus — when ``n_nodes`` is
        known — the client clock-skew map.  Shard node ids are
        ``0..n_shards-1``; partition windows isolate one shard at a
        time (every ingress link dropped)."""
        schedule = FaultSchedule()
        if self.fault_kind != "none" and self.fault_windows > 0:
            first = self.fault_first_frac * self.duration_ns
            width = self.fault_width_frac * self.duration_ns
            gap = self.fault_gap_frac * self.duration_ns
            shards = range(self.n_shards)
            if self.fault_kind == "partition":
                schedule = FaultSchedule.partition_cycles(
                    [(None, shard) for shard in shards],
                    first_ns=first,
                    width_ns=width,
                    gap_ns=gap,
                    count=self.fault_windows,
                    drop=self.partition_drop,
                    latency_mult=self.partition_latency_mult,
                    bw_mult=self.partition_bw_mult,
                )
            else:
                schedule = FaultSchedule.gray_cycles(
                    list(shards),
                    first_ns=first,
                    width_ns=width,
                    gap_ns=gap,
                    count=self.fault_windows,
                    multiplier=self.gray_multiplier,
                    kind=self.fault_kind,
                )
        if self.clock_skew_ns > 0 and n_nodes > self.n_shards:
            skews = {
                node: self.clock_skew_ns
                for node in range(self.n_shards, n_nodes)
            }
            schedule = schedule.merged(FaultSchedule((), skews))
        return schedule


@dataclass
class FailoverResult:
    config: FailoverMixConfig
    read_latency: Samples
    reads_completed: int
    reads_during_outage: int
    writes_completed: int
    writes_during_outage: int
    commits: int
    crash_aborts: int
    lock_aborts: int
    validation_aborts: int
    retries: int
    write_retries: int
    busy_rejects: int
    fenced_rejects: int
    crash_redirects: int
    undetected_violations: int
    torn_reads_observed: int
    crashes: int
    recoveries: int
    promotions: int
    failed_rpcs: int
    failed_transfers: int
    resynced_objects: int
    shard_rows: List[Dict[str, float]]
    txn_rows: List[Dict[str, int]]
    #: Gray/straggler/partition lane counters (all zero when the
    #: config schedules no fault windows).
    fault_windows: int
    reads_during_fault: int
    writes_during_fault: int
    watchdog_rearms: int
    partition_refusals: int

    @property
    def outage_read_share(self) -> float:
        """Share of completed reads served while a shard was down —
        the availability headline (0 when the plan has no cycles)."""
        if self.reads_completed <= 0:
            return math.nan
        return self.reads_during_outage / self.reads_completed

    @property
    def fault_read_share(self) -> float:
        """Share of completed reads served while a gray/straggler/
        partition window was open — the degraded-mode availability
        headline."""
        if self.reads_completed <= 0:
            return math.nan
        return self.reads_during_fault / self.reads_completed


def run_failover_mix(cfg: FailoverMixConfig) -> FailoverResult:
    """Build the service + txn layer + fault injector and run the
    closed-loop mix to ``duration_ns``."""
    cfg.validate()
    kv = ShardedKV(cfg.to_sharded())
    manager = TxnManager(kv)
    injector = FailoverManager(kv, cfg.plan())
    faults = FaultInjector(
        kv.cluster, cfg.fault_schedule(len(kv.cluster.nodes)), kv=kv
    )
    sim = kv.cluster.sim
    t_end = cfg.duration_ns

    read_latency = Samples("failover_read_ns")
    window = {
        "reads": 0,
        "outage_reads": 0,
        "fault_reads": 0,
        "writes": 0,
        "outage_writes": 0,
        "fault_writes": 0,
        "commits": 0,
        "crash_aborts": 0,
        "lock_aborts": 0,
        "validation_aborts": 0,
    }

    def in_window() -> bool:
        return cfg.warmup_ns <= sim.now <= t_end

    def picker(client: int, role: str, thread: int):
        if cfg.distribution == "zipfian":
            return ZipfianPicker(
                range(cfg.n_objects),
                cfg.seed,
                theta=cfg.zipf_theta,
                label=(role, client, thread),
            )
        return UniformPicker(
            range(cfg.n_objects), cfg.seed, label=(role, client, thread)
        )

    def reader_proc(session, client: int, thread: int):
        pick = picker(client, "reader", thread)
        while sim.now < t_end:
            key = kv.key_name(pick.pick())
            t0 = sim.now
            ok = yield from session.lookup(key, t_end)
            if ok and in_window():
                read_latency.add(sim.now - t0)
                window["reads"] += 1
                if injector.any_down():
                    window["outage_reads"] += 1
                if faults.any_active():
                    window["fault_reads"] += 1

    def writer_proc(client: int, thread: int):
        pick = picker(client, "writer", thread)
        while sim.now < t_end:
            key = kv.key_name(pick.pick())
            ack = yield kv.put(client, key, t_end)
            if ack is not None and in_window():
                window["writes"] += 1
                if injector.any_down():
                    window["outage_writes"] += 1
                if faults.any_active():
                    window["fault_writes"] += 1
            yield sim.timeout(cfg.write_pause_ns)

    def txn_proc(session, client: int, thread: int):
        pick = picker(client, "txn", thread)
        while sim.now < t_end:
            chosen: List[int] = []
            while len(chosen) < cfg.txn_size:
                idx = pick.pick()
                if idx not in chosen:
                    chosen.append(idx)
            keys = [kv.key_name(idx) for idx in chosen]
            outcome = yield from session.run(
                keys, keys[: cfg.writes_per_txn], t_end
            )
            if in_window():
                window["commits"] += int(outcome.committed)
                window["crash_aborts"] += outcome.crash_aborts
                window["lock_aborts"] += outcome.lock_aborts
                window["validation_aborts"] += outcome.validation_aborts

    for client in range(kv.cfg.clients):
        for thread in range(cfg.readers_per_client):
            sim.process(reader_proc(kv.reader_session(client), client, thread))
        for thread in range(cfg.writers_per_client):
            sim.process(writer_proc(client, thread))
        for thread in range(cfg.txn_sessions_per_client):
            sim.process(txn_proc(manager.session(client), client, thread))

    sim.run()

    reader_stats = kv.all_reader_stats()
    write_stats = kv.write_stats
    merged: TxnStats = manager.merged_stats()
    fo = injector.stats
    return FailoverResult(
        config=cfg,
        read_latency=read_latency,
        reads_completed=window["reads"],
        reads_during_outage=window["outage_reads"],
        writes_completed=window["writes"],
        writes_during_outage=window["outage_writes"],
        commits=window["commits"],
        crash_aborts=window["crash_aborts"],
        lock_aborts=window["lock_aborts"],
        validation_aborts=window["validation_aborts"],
        retries=sum(s.retries for s in reader_stats),
        write_retries=sum(ws.write_retries for ws in write_stats),
        busy_rejects=sum(ws.busy_rejects for ws in write_stats),
        fenced_rejects=sum(ws.fenced_rejects for ws in write_stats),
        crash_redirects=sum(ws.crash_redirects for ws in write_stats),
        undetected_violations=sum(
            s.undetected_violations for s in reader_stats
        ),
        torn_reads_observed=merged.torn_reads_observed,
        crashes=fo.crashes,
        recoveries=fo.recoveries,
        promotions=fo.promotions,
        failed_rpcs=fo.failed_rpcs,
        failed_transfers=fo.failed_transfers,
        resynced_objects=fo.resynced_objects,
        shard_rows=kv.shard_load(),
        txn_rows=manager.txn_rows(),
        fault_windows=(
            faults.stats.gray_windows
            + faults.stats.straggler_windows
            + faults.stats.partition_windows
        ),
        reads_during_fault=window["fault_reads"],
        writes_during_fault=window["fault_writes"],
        watchdog_rearms=sum(
            e.watchdog_rearms for e in kv.all_endpoints()
        ),
        partition_refusals=kv.cluster.fabric.partition_refusals,
    )


# ----------------------------------------------------------------------
# registered experiments
# ----------------------------------------------------------------------

#: Mechanisms whose consumed reads must never be torn (the
#: ``remote_read`` baseline is excluded by design: it tears).
DETECTING_VARIANTS = (
    ("sabre", "sabre"),
    ("percl", "percl_versions"),
    ("checksum", "checksum"),
    ("drtm", "drtm_lock"),
)

AVAILABILITY_HEADERS = (
    "cycles",
    "reads",
    "reads_during_outage",
    "outage_read_share",
    "writes",
    "writes_during_outage",
    "commits",
    "crash_aborts",
    "crash_redirects",
    "promotions",
    "recoveries",
    "undetected_violations",
)

ATOMICITY_HEADERS = (
    "cycles",
    *(f"{label}_violations" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_torn_reads" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_reads" for label, _ in DETECTING_VARIANTS),
)


def _cfg_from_params(p, scale: float) -> FailoverMixConfig:
    return FailoverMixConfig(
        mechanism=p["mechanism"],
        n_shards=p["n_shards"],
        readers_per_client=p["readers_per_client"],
        writers_per_client=p["writers_per_client"],
        txn_sessions_per_client=p["txn_sessions_per_client"],
        replication=p["replication"],
        object_size=p["object_size"],
        n_objects=p["n_objects"],
        duration_ns=scaled_duration(p["duration_ns"], scale),
        warmup_ns=p["warmup_ns"],
        cycles=p["cycles"],
        seed=p["seed"],
    )


def _availability_point(ctx) -> Dict[str, float]:
    result = run_failover_mix(_cfg_from_params(ctx.params, ctx.scale))
    return {
        "reads": result.reads_completed,
        "reads_during_outage": result.reads_during_outage,
        "outage_read_share": result.outage_read_share,
        "writes": result.writes_completed,
        "writes_during_outage": result.writes_during_outage,
        "commits": result.commits,
        "crash_aborts": result.crash_aborts,
        "crash_redirects": result.crash_redirects,
        "promotions": result.promotions,
        "recoveries": result.recoveries,
        "undetected_violations": result.undetected_violations,
    }


FAILOVER_AVAILABILITY_SPEC = register(
    ExperimentSpec(
        name="failover_availability",
        description=(
            "Reads keep flowing through promoted backups while primaries "
            "crash and recover"
        ),
        axes={"cycles": (0, 1, 3)},
        defaults={
            "mechanism": "sabre",
            "n_shards": 4,
            "readers_per_client": 2,
            "writers_per_client": 1,
            "txn_sessions_per_client": 1,
            "replication": 2,
            "object_size": 512,
            "n_objects": 64,
            "duration_ns": 200_000.0,
            "warmup_ns": 10_000.0,
            "seed": 29,
        },
        headers=AVAILABILITY_HEADERS,
        point_fn=_availability_point,
    )
)


def _atomicity_point(ctx) -> Dict[str, float]:
    result = run_failover_mix(_cfg_from_params(ctx.params, ctx.scale))
    v = ctx.variant
    return {
        f"{v}_violations": result.undetected_violations,
        f"{v}_torn_reads": result.torn_reads_observed,
        f"{v}_reads": result.reads_completed,
        f"{v}_crash_aborts": result.crash_aborts,
        f"{v}_promotions": result.promotions,
    }


FAULT_HEADERS = (
    "fault_windows",
    "reads",
    "reads_during_fault",
    "fault_read_share",
    "writes",
    "writes_during_fault",
    "commits",
    "watchdog_rearms",
    "partition_refusals",
    "crash_redirects",
    "undetected_violations",
)

#: Defaults shared by the fault-injection specs: the flagship 4-shard
#: deployment under the zipfian (alias-table) mix, no crash cycles —
#: the faults are the event under study.
_FAULT_SPEC_DEFAULTS = {
    "mechanism": "sabre",
    "n_shards": 4,
    "readers_per_client": 2,
    "writers_per_client": 1,
    "txn_sessions_per_client": 1,
    "replication": 2,
    "object_size": 512,
    "n_objects": 64,
    "duration_ns": 200_000.0,
    "warmup_ns": 10_000.0,
    "cycles": 0,
    "distribution": "zipfian",
    "gray_multiplier": 8.0,
    "partition_latency_mult": 1.0,
    "partition_bw_mult": 1.0,
    "clock_skew_ns": 0.0,
    "fallback_after_ns": 0.0,
}


def _fault_cfg_from_params(p, scale: float, fault_kind: str) -> FailoverMixConfig:
    return FailoverMixConfig(
        mechanism=p["mechanism"],
        n_shards=p["n_shards"],
        readers_per_client=p["readers_per_client"],
        writers_per_client=p["writers_per_client"],
        txn_sessions_per_client=p["txn_sessions_per_client"],
        replication=p["replication"],
        object_size=p["object_size"],
        n_objects=p["n_objects"],
        duration_ns=scaled_duration(p["duration_ns"], scale),
        warmup_ns=p["warmup_ns"],
        cycles=p["cycles"],
        seed=p["seed"],
        distribution=p["distribution"],
        fault_kind=fault_kind if p["fault_windows"] else "none",
        fault_windows=p["fault_windows"],
        gray_multiplier=p["gray_multiplier"],
        partition_latency_mult=p["partition_latency_mult"],
        partition_bw_mult=p["partition_bw_mult"],
        clock_skew_ns=p["clock_skew_ns"],
        fallback_after_ns=p["fallback_after_ns"],
    )


def _fault_point(ctx, fault_kind: str) -> Dict[str, float]:
    result = run_failover_mix(
        _fault_cfg_from_params(ctx.params, ctx.scale, fault_kind)
    )
    return {
        "fault_windows": result.fault_windows,
        "reads": result.reads_completed,
        "reads_during_fault": result.reads_during_fault,
        "fault_read_share": result.fault_read_share,
        "writes": result.writes_completed,
        "writes_during_fault": result.writes_during_fault,
        "commits": result.commits,
        "watchdog_rearms": result.watchdog_rearms,
        "partition_refusals": result.partition_refusals,
        "crash_redirects": result.crash_redirects,
        "undetected_violations": result.undetected_violations,
    }


GRAY_AVAILABILITY_SPEC = register(
    ExperimentSpec(
        name="gray_availability",
        description=(
            "Reads, writes, and commits keep flowing while shards turn "
            "gray (slow-but-alive service-time multipliers)"
        ),
        axes={"fault_windows": (0, 2, 4)},
        defaults={**_FAULT_SPEC_DEFAULTS, "seed": 37},
        headers=FAULT_HEADERS,
        point_fn=lambda ctx: _fault_point(ctx, "gray"),
    )
)


PARTITION_AVAILABILITY_SPEC = register(
    ExperimentSpec(
        name="partition_availability",
        description=(
            "Shards are isolated by drop windows one at a time; new "
            "conversations are refused, in-flight ones drain, and no "
            "consumed read is ever torn"
        ),
        axes={"fault_windows": (0, 2, 4)},
        defaults={
            **_FAULT_SPEC_DEFAULTS,
            "seed": 41,
            # Readers walk to a serving backup when the primary's
            # window refuses them.
            "fallback_after_ns": 1_500.0,
        },
        headers=FAULT_HEADERS,
        point_fn=lambda ctx: _fault_point(ctx, "partition"),
    )
)


FAILOVER_ATOMICITY_SPEC = register(
    ExperimentSpec(
        name="failover_atomicity",
        description=(
            "Detecting mechanisms consume zero torn reads across "
            "crash/promotion/re-sync boundaries"
        ),
        axes={"cycles": (3,)},
        variants=tuple(
            Variant(label, {"mechanism": name})
            for label, name in DETECTING_VARIANTS
        ),
        defaults={
            "mechanism": "sabre",
            "n_shards": 4,
            "readers_per_client": 2,
            "writers_per_client": 1,
            "txn_sessions_per_client": 1,
            "replication": 2,
            "object_size": 512,
            "n_objects": 32,
            "duration_ns": 200_000.0,
            "warmup_ns": 10_000.0,
            "seed": 31,
        },
        headers=ATOMICITY_HEADERS,
        point_fn=_atomicity_point,
    )
)
