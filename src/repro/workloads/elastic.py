"""Elastic workloads: live resharding and hotspot rebalancing under load.

Closed-loop readers, writers, and (optionally) transactions drive
:class:`~repro.objstore.sharded.ShardedKV` while a
:class:`~repro.objstore.reshard.ReshardManager` executes a planned
topology change mid-run — the ROADMAP item 4 elastic story: *scale the
deployment 4 -> 8 shards under load with zero torn reads, a bounded
tail-latency blip, and throughput converging to the fresh-8-shard
baseline.*  The run is metered in three phases:

* **pre** — steady state at the starting shard count (after warmup,
  before the change is scheduled);
* **mid** — the migration window (handoffs, double reads, writer
  redirects; the tail-latency blip lives here);
* **post** — after the drain, where placement is provably identical to
  a fresh deployment at the target count and throughput should match a
  run that *started* there.  ``run_elastic`` optionally runs that fresh
  baseline over the same post window and reports the convergence ratio.

The second story is **hotspot rebalancing**: a Zipfian-head key
concentrates reads on one shard; the manager's policy loop promotes
extra read replicas for it and lookups rotate over them, pulling the
max-over-mean shard imbalance back down.  Promotion is demoted again
when the interval share cools.

Two experiments register with the framework:

* ``elastic_scaling`` — every detecting mechanism through a mid-run
  4 -> 8 scale-out: zero undetected violations, post-convergence
  throughput ratio, migration accounting.
* ``hotkey_rebalance`` — the Zipfian mix with the rebalance policy off
  vs on: imbalance drops, promoted replicas absorb hot-key reads, and
  the detecting protocol still consumes zero torn reads.

Fault composition mirrors :mod:`repro.workloads.availability`: a
config can open gray or partition windows from the PR 7 schedules on
top of the migration — the nastiest planned-change lane the fuzzer
exercises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError
from repro.experiments import ExperimentSpec, QaCheck, Variant, register
from repro.faults import FaultInjector, FaultSchedule
from repro.harness.report import scaled_duration
from repro.objstore.reshard import (
    DEFAULT_DRAIN_NS,
    DEFAULT_HANDOFF_FIXED_NS,
    RebalanceConfig,
    ReshardManager,
    ReshardStats,
)
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.sim.stats import Samples
from repro.workloads.generators import UniformPicker, ZipfianPicker

#: Fault kinds an elastic config can overlap with the migration.
ELASTIC_FAULT_KINDS = ("none", "gray", "straggler", "partition")


@dataclass
class ElasticConfig:
    """One elastic run: a mixed load plus a planned topology change.

    ``target_shards`` above ``n_shards`` is a scale-out (spare slots
    join), below is a scale-in (the highest members drain out), equal
    means no topology change (the rebalance-only lane).  The change is
    scheduled at ``scale_at_frac`` of ``duration_ns``; the post-
    convergence window opens at ``post_frac``.  ``n_clients`` is an
    absolute count (not per-shard) so the elastic run and its fresh-
    target baseline drive identical load."""

    mechanism: str = "sabre"
    n_shards: int = 4
    target_shards: int = 8
    n_clients: int = 4
    readers_per_client: int = 2
    writers_per_client: int = 1
    txn_sessions_per_client: int = 0
    txn_size: int = 3
    writes_per_txn: int = 1
    replication: int = 2
    object_size: int = 512
    n_objects: int = 96
    duration_ns: float = 240_000.0
    warmup_ns: float = 5_000.0
    scale_at_frac: float = 0.30
    post_frac: float = 0.60
    write_pause_ns: float = 150.0
    fallback_after_ns: float = 0.0
    distribution: str = "uniform"
    zipf_theta: float = 0.99
    seed: int = 1
    version_bits: int = 16
    vnodes: int = 64
    handoff_fixed_ns: float = DEFAULT_HANDOFF_FIXED_NS
    drain_ns: float = DEFAULT_DRAIN_NS
    #: Hotspot policy: off by default; when on, the promote/demote loop
    #: runs from warmup to the end of the run.
    rebalance: bool = False
    rebalance_interval_ns: float = 20_000.0
    hot_share: float = 0.06
    cool_share: float = 0.02
    max_extra_replicas: int = 2
    min_interval_reads: int = 32
    #: Fault windows overlapping the migration (PR 7 schedules),
    #: expressed as fractions of ``duration_ns``.
    fault_kind: str = "none"
    fault_windows: int = 0
    fault_first_frac: float = 0.30
    fault_width_frac: float = 0.15
    fault_gap_frac: float = 0.05
    gray_multiplier: float = 8.0
    partition_drop: bool = True
    #: Run the fresh-target baseline over the same post window and
    #: report ``convergence_ratio`` (doubles the run cost; the parity
    #: artifacts and fuzz lanes switch it off).
    compare_baseline: bool = True
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)

    def validate(self) -> None:
        if self.n_clients < 1:
            raise ConfigError(
                "elastic runs pin an absolute client count >= 1 (the "
                "fresh-target baseline must drive identical load)"
            )
        if self.readers_per_client < 1:
            raise ConfigError("need at least one reader per client")
        if self.writers_per_client < 0 or self.txn_sessions_per_client < 0:
            raise ConfigError("process counts cannot be negative")
        if self.target_shards < self.replication:
            raise ConfigError(
                f"target_shards={self.target_shards} below "
                f"replication={self.replication}"
            )
        if not 0 < self.scale_at_frac < self.post_frac <= 1:
            raise ConfigError(
                "need 0 < scale_at_frac < post_frac <= 1, got "
                f"{self.scale_at_frac}/{self.post_frac}"
            )
        if not 0 <= self.warmup_ns < self.scale_at_frac * self.duration_ns:
            raise ConfigError("warmup must end before the topology change")
        if self.distribution not in ("uniform", "zipfian"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if self.fault_kind not in ELASTIC_FAULT_KINDS:
            raise ConfigError(
                f"unknown fault_kind {self.fault_kind!r}; pick from "
                f"{ELASTIC_FAULT_KINDS}"
            )
        if self.fault_windows < 0:
            raise ConfigError("fault_windows cannot be negative")
        if self.txn_sessions_per_client:
            if not 1 <= self.txn_size <= self.n_objects:
                raise ConfigError("txn_size must be in [1, n_objects]")
            if not 0 <= self.writes_per_txn <= self.txn_size:
                raise ConfigError("writes_per_txn must be in [0, txn_size]")
        self.rebalance_config().validate()
        self.to_sharded().validate()

    def to_sharded(self) -> ShardedConfig:
        return ShardedConfig(
            n_shards=self.n_shards,
            max_shards=max(self.n_shards, self.target_shards),
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

    def rebalance_config(self) -> RebalanceConfig:
        return RebalanceConfig(
            interval_ns=self.rebalance_interval_ns,
            hot_share=self.hot_share,
            cool_share=self.cool_share,
            max_extra=self.max_extra_replicas,
            min_reads=self.min_interval_reads,
        )

    def fault_schedule(self) -> FaultSchedule:
        """Gray/straggler/partition windows over the *starting* member
        shards, overlapping the migration window by default."""
        if self.fault_kind == "none" or self.fault_windows == 0:
            return FaultSchedule()
        first = self.fault_first_frac * self.duration_ns
        width = self.fault_width_frac * self.duration_ns
        gap = self.fault_gap_frac * self.duration_ns
        shards = range(self.n_shards)
        if self.fault_kind == "partition":
            return FaultSchedule.partition_cycles(
                [(None, shard) for shard in shards],
                first_ns=first,
                width_ns=width,
                gap_ns=gap,
                count=self.fault_windows,
                drop=self.partition_drop,
            )
        return FaultSchedule.gray_cycles(
            list(shards),
            first_ns=first,
            width_ns=width,
            gap_ns=gap,
            count=self.fault_windows,
            multiplier=self.gray_multiplier,
            kind=self.fault_kind,
        )


@dataclass
class ElasticResult:
    config: ElasticConfig
    #: Completed reads per phase (pre / migration / post windows).
    pre_reads: int
    mid_reads: int
    post_reads: int
    pre_writes: int
    mid_writes: int
    post_writes: int
    #: Read latency samples per phase (the mid/pre p95 ratio is the
    #: tail blip headline).
    pre_latency: Samples
    mid_latency: Samples
    post_latency: Samples
    #: Reads completed while a topology change was in flight.
    reads_during_migration: int
    commits: int
    undetected_violations: int
    torn_reads_observed: int
    retries: int
    write_retries: int
    busy_rejects: int
    fenced_rejects: int
    reshard_redirects: int
    crash_redirects: int
    reshard: ReshardStats
    hot_keys_promoted: int
    shard_rows: List[Dict[str, float]]
    events: List[Tuple[float, str, int]]
    #: Post-window reads of the fresh-target baseline (None when the
    #: config skipped the comparison run).
    baseline_post_reads: Optional[int]

    @property
    def convergence_ratio(self) -> float:
        """Post-window throughput relative to a run that *started* at
        the target shard count (1.0 = fully converged)."""
        if not self.baseline_post_reads:
            return math.nan
        return self.post_reads / self.baseline_post_reads

    @property
    def tail_blip(self) -> float:
        """Mid-migration p95 read latency over pre-migration p95."""
        pre = self.pre_latency.percentile(95.0)
        mid = self.mid_latency.percentile(95.0)
        if not pre or math.isnan(pre) or not mid or math.isnan(mid):
            return math.nan
        return mid / pre

    @property
    def shard_imbalance(self) -> float:
        """Max-over-mean routed reads across *member* shards."""
        routed = [
            row["reads_routed"]
            for row in self.shard_rows
            if row["member"]
        ]
        mean = sum(routed) / len(routed) if routed else 0.0
        if mean <= 0:
            return math.nan
        return max(routed) / mean


def run_elastic(cfg: ElasticConfig) -> ElasticResult:
    """Build the service + reshard manager (+ optional txn layer and
    fault injector) and run the phased closed-loop mix."""
    cfg.validate()
    kv = ShardedKV(cfg.to_sharded())
    manager = ReshardManager(
        kv,
        handoff_fixed_ns=cfg.handoff_fixed_ns,
        drain_ns=cfg.drain_ns,
    )
    txns = TxnManager(kv) if cfg.txn_sessions_per_client else None
    faults = FaultInjector(kv.cluster, cfg.fault_schedule(), kv=kv)
    sim = kv.cluster.sim
    t_end = cfg.duration_ns
    t_scale = cfg.scale_at_frac * cfg.duration_ns
    t_post = cfg.post_frac * cfg.duration_ns

    if cfg.target_shards > cfg.n_shards:
        manager.scale_out(cfg.target_shards - cfg.n_shards, at_ns=t_scale)
    elif cfg.target_shards < cfg.n_shards:
        manager.scale_in(
            list(range(cfg.target_shards, cfg.n_shards)), at_ns=t_scale
        )
    if cfg.rebalance:
        sim.call_at(
            cfg.warmup_ns,
            lambda: manager.start_rebalancer(
                cfg.rebalance_config(), until_ns=t_end
            ),
        )

    phase_reads = {"pre": 0, "mid": 0, "post": 0}
    phase_writes = {"pre": 0, "mid": 0, "post": 0}
    latency = {
        "pre": Samples("elastic_read_pre_ns"),
        "mid": Samples("elastic_read_mid_ns"),
        "post": Samples("elastic_read_post_ns"),
    }
    migration_reads = [0]
    commits = [0]

    def phase() -> Optional[str]:
        if sim.now < cfg.warmup_ns or sim.now > t_end:
            return None
        if sim.now < t_scale:
            return "pre"
        if sim.now < t_post:
            return "mid"
        return "post"

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
            p = phase()
            if ok and p:
                phase_reads[p] += 1
                latency[p].add(sim.now - t0)
                if manager.any_migrating():
                    migration_reads[0] += 1

    def writer_proc(client: int, thread: int):
        pick = picker(client, "writer", thread)
        while sim.now < t_end:
            key = kv.key_name(pick.pick())
            ack = yield kv.put(client, key, t_end)
            p = phase()
            if ack is not None and p:
                phase_writes[p] += 1
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
            if phase():
                commits[0] += int(outcome.committed)

    for client in range(kv.cfg.clients):
        for thread in range(cfg.readers_per_client):
            sim.process(reader_proc(kv.reader_session(client), client, thread))
        for thread in range(cfg.writers_per_client):
            sim.process(writer_proc(client, thread))
        if txns is not None:
            for thread in range(cfg.txn_sessions_per_client):
                sim.process(txn_proc(txns.session(client), client, thread))

    sim.run()
    manager.stop_rebalancer()

    baseline_post: Optional[int] = None
    if cfg.compare_baseline and cfg.target_shards != cfg.n_shards:
        fresh = replace(
            cfg,
            n_shards=cfg.target_shards,
            target_shards=cfg.target_shards,
            compare_baseline=False,
        )
        baseline_post = run_elastic(fresh).post_reads

    reader_stats = kv.all_reader_stats()
    write_stats = kv.write_stats
    return ElasticResult(
        config=cfg,
        pre_reads=phase_reads["pre"],
        mid_reads=phase_reads["mid"],
        post_reads=phase_reads["post"],
        pre_writes=phase_writes["pre"],
        mid_writes=phase_writes["mid"],
        post_writes=phase_writes["post"],
        pre_latency=latency["pre"],
        mid_latency=latency["mid"],
        post_latency=latency["post"],
        reads_during_migration=migration_reads[0],
        commits=commits[0],
        undetected_violations=sum(
            s.undetected_violations for s in reader_stats
        ),
        torn_reads_observed=(
            txns.merged_stats().torn_reads_observed if txns else 0
        ),
        retries=sum(s.retries for s in reader_stats),
        write_retries=sum(ws.write_retries for ws in write_stats),
        busy_rejects=sum(ws.busy_rejects for ws in write_stats),
        fenced_rejects=sum(ws.fenced_rejects for ws in write_stats),
        reshard_redirects=sum(ws.reshard_redirects for ws in write_stats),
        crash_redirects=sum(ws.crash_redirects for ws in write_stats),
        reshard=manager.stats,
        hot_keys_promoted=len(kv.hot_replicas),
        shard_rows=kv.shard_load(),
        events=list(manager.events),
        baseline_post_reads=baseline_post,
    )


# ----------------------------------------------------------------------
# registered experiments
# ----------------------------------------------------------------------

#: Mechanisms whose consumed reads must never be torn (mirrors
#: :data:`repro.workloads.availability.DETECTING_VARIANTS`).
DETECTING_VARIANTS = (
    ("sabre", "sabre"),
    ("percl", "percl_versions"),
    ("checksum", "checksum"),
    ("drtm", "drtm_lock"),
)

ELASTIC_HEADERS = (
    "target_shards",
    *(f"{label}_violations" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_convergence" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_migrated" for label, _ in DETECTING_VARIANTS),
    *(f"{label}_post_reads" for label, _ in DETECTING_VARIANTS),
)


def _elastic_cfg_from_params(p, scale: float) -> ElasticConfig:
    return ElasticConfig(
        mechanism=p["mechanism"],
        n_shards=p["n_shards"],
        target_shards=p["target_shards"],
        n_clients=p["n_clients"],
        readers_per_client=p["readers_per_client"],
        writers_per_client=p["writers_per_client"],
        txn_sessions_per_client=p["txn_sessions_per_client"],
        replication=p["replication"],
        object_size=p["object_size"],
        n_objects=p["n_objects"],
        duration_ns=scaled_duration(p["duration_ns"], scale),
        warmup_ns=p["warmup_ns"],
        fallback_after_ns=p["fallback_after_ns"],
        distribution=p["distribution"],
        rebalance=p["rebalance"],
        max_extra_replicas=p["max_extra_replicas"],
        compare_baseline=p["compare_baseline"],
        seed=p["seed"],
    )


def _elastic_point(ctx) -> Dict[str, float]:
    result = run_elastic(_elastic_cfg_from_params(ctx.params, ctx.scale))
    v = ctx.variant
    return {
        f"{v}_violations": result.undetected_violations,
        f"{v}_convergence": result.convergence_ratio,
        f"{v}_migrated": result.reshard.keys_migrated,
        f"{v}_post_reads": result.post_reads,
        f"{v}_tail_blip": result.tail_blip,
        f"{v}_redirects": result.reshard_redirects,
    }


_ELASTIC_DEFAULTS = {
    "mechanism": "sabre",
    "n_shards": 4,
    "target_shards": 8,
    "n_clients": 4,
    "readers_per_client": 2,
    "writers_per_client": 1,
    "txn_sessions_per_client": 0,
    "replication": 2,
    "object_size": 512,
    "n_objects": 96,
    "duration_ns": 240_000.0,
    "warmup_ns": 5_000.0,
    "fallback_after_ns": 0.0,
    "distribution": "uniform",
    "rebalance": False,
    "max_extra_replicas": 2,
    "compare_baseline": True,
}


ELASTIC_SCALING_SPEC = register(
    ExperimentSpec(
        name="elastic_scaling",
        description=(
            "Scale the deployment 4 -> 8 shards mid-run: zero torn "
            "reads through the migration, bounded tail blip, post "
            "throughput converging to the fresh-8-shard baseline"
        ),
        axes={"target_shards": (8,)},
        variants=tuple(
            Variant(label, {"mechanism": name})
            for label, name in DETECTING_VARIANTS
        ),
        defaults={**_ELASTIC_DEFAULTS, "seed": 43},
        headers=ELASTIC_HEADERS,
        point_fn=_elastic_point,
        qa_checks=tuple(
            QaCheck(f"{label}_violations", agg="max", hi=0.0)
            for label, _ in DETECTING_VARIANTS
        ),
    )
)


HOTKEY_HEADERS = (
    "max_extra_replicas",
    "reads",
    "shard_imbalance",
    "hot_promotions",
    "hot_demotions",
    "hot_keys_promoted",
    "undetected_violations",
)


def _hotkey_point(ctx) -> Dict[str, float]:
    p = dict(ctx.params)
    cfg = _elastic_cfg_from_params(p, ctx.scale)
    result = run_elastic(cfg)
    return {
        "reads": result.pre_reads + result.mid_reads + result.post_reads,
        "shard_imbalance": result.shard_imbalance,
        "hot_promotions": result.reshard.hot_promotions,
        "hot_demotions": result.reshard.hot_demotions,
        "hot_keys_promoted": result.hot_keys_promoted,
        "undetected_violations": result.undetected_violations,
    }


HOTKEY_REBALANCE_SPEC = register(
    ExperimentSpec(
        name="hotkey_rebalance",
        description=(
            "Zipfian-head keys gain promoted read replicas via the "
            "rebalance policy loop; shard imbalance drops and no "
            "consumed read is ever torn"
        ),
        axes={"max_extra_replicas": (0, 2)},
        defaults={
            **_ELASTIC_DEFAULTS,
            # No topology change: the policy loop is the event.
            "target_shards": 4,
            "distribution": "zipfian",
            "rebalance": True,
            "compare_baseline": False,
            "n_objects": 64,
            "seed": 47,
        },
        headers=HOTKEY_HEADERS,
        point_fn=_hotkey_point,
        qa_checks=(QaCheck("undetected_violations", agg="max", hi=0.0),),
    )
)
