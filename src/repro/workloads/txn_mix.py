"""Transactional workload mixes over the sharded FaRM service.

YCSB-T-style closed-loop clients drive the transaction layer of
:mod:`repro.objstore.txn` with the two canonical shapes:

* **read-modify-write** transactions: read ``txn_size`` keys, write
  ``writes_per_txn`` of them (locked, validated, applied on each
  touched primary);
* **multi-key read-only** transactions: read ``txn_size`` keys and
  commit only if validation proves the snapshot was consistent.

``rmw_fraction`` sets the share of read-modify-write transactions and
key popularity is uniform or Zipfian (reusing
:mod:`repro.workloads.generators`), so hot-key contention — and with
it lock conflicts and validation aborts — is tunable the same way the
YCSB suite tunes it.  Every consumed read still flows through the
pluggable :class:`~repro.workloads.protocols.ReadProtocol`, so all
five Table 1 mechanisms run the exact same transactions.

Two experiments register with the framework:

* ``txn_abort_rate`` — abort rate vs. the write-transaction fraction,
  one variant per read mechanism, on a fixed 4-shard deployment.
* ``txn_shard_scaling`` — a 50/50 mix under SABRes while the rack
  grows 1 -> 8 shards: commit throughput should scale and the torn-
  read audit must stay clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.experiments import ExperimentSpec, Variant, register
from repro.harness.report import scaled_duration
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager, TxnStats
from repro.sim.stats import Samples
from repro.workloads.generators import UniformPicker, ZipfianPicker

DISTRIBUTIONS = ("uniform", "zipfian")


@dataclass
class TxnMixConfig:
    """One transactional-mix run against a sharded deployment."""

    txn_size: int = 4
    writes_per_txn: int = 2
    rmw_fraction: float = 0.5
    distribution: str = "uniform"
    zipf_theta: float = 0.99
    mechanism: str = "sabre"
    n_shards: int = 4
    n_clients: int = 0  # 0 = one client node per shard
    sessions_per_client: int = 2
    replication: int = 2
    object_size: int = 256
    n_objects: int = 128
    duration_ns: float = 200_000.0
    warmup_ns: float = 20_000.0
    seed: int = 1
    version_bits: int = 16
    vnodes: int = 64
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)

    def validate(self) -> None:
        if self.txn_size < 1:
            raise ConfigError("transactions must touch at least one key")
        if self.txn_size > self.n_objects:
            raise ConfigError(
                f"txn_size {self.txn_size} exceeds the {self.n_objects}-object "
                "key space"
            )
        if not 0 <= self.writes_per_txn <= self.txn_size:
            raise ConfigError(
                f"writes_per_txn must be in [0, txn_size]: {self.writes_per_txn}"
            )
        if not 0.0 <= self.rmw_fraction <= 1.0:
            raise ConfigError(f"rmw_fraction must be in [0, 1]: {self.rmw_fraction}")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}; "
                f"choose from {DISTRIBUTIONS}"
            )
        if not 0.0 < self.zipf_theta < 2.0:
            raise ConfigError(f"zipf_theta must be in (0, 2): {self.zipf_theta}")
        if self.sessions_per_client < 1:
            raise ConfigError("need at least one session per client")
        if self.warmup_ns < 0:
            raise ConfigError("warmup cannot be negative")
        if self.warmup_ns >= self.duration_ns:
            raise ConfigError("warmup must end before the run does")
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
            costs=self.costs,
        )


@dataclass
class TxnMixResult:
    config: TxnMixConfig
    commit_latency: Samples
    commits: int
    rmw_commits: int
    ro_commits: int
    attempts: int
    lock_aborts: int
    validation_aborts: int
    timeouts: int
    retries: int
    sabre_aborts: int
    software_conflicts: int
    read_retries: int
    undetected_violations: int
    torn_reads_observed: int
    txn_rows: List[Dict[str, int]]
    shard_rows: List[Dict[str, float]]

    @property
    def mean_commit_ns(self) -> float:
        return self.commit_latency.mean

    @property
    def abort_rate(self) -> float:
        """Aborted attempts over all attempts (timeouts excluded)."""
        if self.attempts <= 0:
            return math.nan
        return (self.lock_aborts + self.validation_aborts) / self.attempts

    @property
    def commits_per_us(self) -> float:
        window = self.config.duration_ns - self.config.warmup_ns
        return self.commits / window * 1e3


def run_txn_mix(cfg: TxnMixConfig) -> TxnMixResult:
    """Build the sharded service + txn layer and run the closed loop."""
    cfg.validate()
    kv = ShardedKV(cfg.to_sharded())
    manager = TxnManager(kv)
    sim = kv.cluster.sim
    t_end = cfg.duration_ns

    commit_latency = Samples("txn_commit_ns")
    window = {
        "commits": 0,
        "rmw_commits": 0,
        "ro_commits": 0,
        "attempts": 0,
        "lock_aborts": 0,
        "validation_aborts": 0,
        "timeouts": 0,
        "retries": 0,
    }

    def picker(client: int, thread: int):
        label = (client, thread)
        ids = range(cfg.n_objects)
        if cfg.distribution == "zipfian":
            return ZipfianPicker(ids, cfg.seed, theta=cfg.zipf_theta, label=label)
        return UniformPicker(ids, cfg.seed, label=label)

    def pick_keys(pick) -> List[str]:
        chosen: List[int] = []
        while len(chosen) < cfg.txn_size:
            idx = pick.pick()
            if idx not in chosen:
                chosen.append(idx)
        return [kv.key_name(idx) for idx in chosen]

    def client_proc(session, client: int, thread: int):
        rng = make_rng(cfg.seed, "txn-mix", client, thread)
        pick = picker(client, thread)
        while sim.now < t_end:
            keys = pick_keys(pick)
            rmw = cfg.writes_per_txn > 0 and rng.random() < cfg.rmw_fraction
            write_keys = keys[: cfg.writes_per_txn] if rmw else []
            t0 = sim.now
            outcome = yield from session.run(keys, write_keys, t_end)
            in_window = cfg.warmup_ns <= sim.now <= t_end
            if in_window:
                window["attempts"] += outcome.attempts
                window["lock_aborts"] += outcome.lock_aborts
                window["validation_aborts"] += outcome.validation_aborts
                window["timeouts"] += int(outcome.timed_out)
                # Transaction-level retry count (an attempt after an
                # abort), not the per-shard attribution the manager
                # keeps — a 4-shard txn retrying once is 1 retry here.
                window["retries"] += outcome.attempts - 1
            if outcome.committed and in_window:
                commit_latency.add(sim.now - t0)
                window["commits"] += 1
                window["rmw_commits" if rmw else "ro_commits"] += 1

    for client in range(kv.cfg.clients):
        for thread in range(cfg.sessions_per_client):
            session = manager.session(client)
            sim.process(client_proc(session, client, thread))

    def metering():
        yield sim.timeout(cfg.warmup_ns)
        for stats in kv.all_reader_stats():
            stats.meter.start(sim.now)
        yield sim.timeout(t_end - cfg.warmup_ns)
        for stats in kv.all_reader_stats():
            stats.meter.stop(sim.now)

    sim.process(metering())
    sim.run()

    reader_stats = kv.all_reader_stats()
    merged: TxnStats = manager.merged_stats()
    return TxnMixResult(
        config=cfg,
        commit_latency=commit_latency,
        commits=window["commits"],
        rmw_commits=window["rmw_commits"],
        ro_commits=window["ro_commits"],
        attempts=window["attempts"],
        lock_aborts=window["lock_aborts"],
        validation_aborts=window["validation_aborts"],
        timeouts=window["timeouts"],
        retries=window["retries"],
        sabre_aborts=sum(s.sabre_aborts for s in reader_stats),
        software_conflicts=sum(s.software_conflicts for s in reader_stats),
        read_retries=sum(s.retries for s in reader_stats),
        undetected_violations=sum(s.undetected_violations for s in reader_stats),
        torn_reads_observed=merged.torn_reads_observed,
        txn_rows=manager.txn_rows(),
        shard_rows=kv.shard_load(),
    )


# ----------------------------------------------------------------------
# registered experiments
# ----------------------------------------------------------------------

#: Variant label -> registered protocol name.
PROTOCOL_VARIANTS = (
    ("remote", "remote_read"),
    ("sabre", "sabre"),
    ("percl", "percl_versions"),
    ("checksum", "checksum"),
    ("drtm", "drtm_lock"),
)

ABORT_HEADERS = (
    "rmw_fraction",
    *(f"{label}_abort_rate" for label, _name in PROTOCOL_VARIANTS),
    *(f"{label}_commits" for label, _name in PROTOCOL_VARIANTS),
)

SCALING_HEADERS = (
    "shards",
    "commits_per_us",
    "commit_ns",
    "abort_rate",
    "lock_aborts",
    "validation_aborts",
    "retries",
    "undetected_violations",
    "torn_reads_observed",
)


def _cfg_from_params(p, scale: float) -> TxnMixConfig:
    return TxnMixConfig(
        txn_size=p["txn_size"],
        writes_per_txn=p["writes_per_txn"],
        rmw_fraction=p["rmw_fraction"],
        distribution=p["distribution"],
        mechanism=p["mechanism"],
        n_shards=p["n_shards"],
        n_clients=p.get("n_clients", 0),
        sessions_per_client=p["sessions_per_client"],
        replication=p["replication"],
        object_size=p["object_size"],
        n_objects=p["n_objects"],
        duration_ns=scaled_duration(p["duration_ns"], scale),
        warmup_ns=p["warmup_ns"],
        seed=p["seed"],
    )


def _abort_rate_point(ctx) -> Dict[str, float]:
    result = run_txn_mix(_cfg_from_params(ctx.params, ctx.scale))
    v = ctx.variant
    return {
        f"{v}_abort_rate": result.abort_rate,
        f"{v}_commits": result.commits,
        f"{v}_violations": result.undetected_violations,
        f"{v}_torn_reads": result.torn_reads_observed,
    }


TXN_ABORT_RATE_SPEC = register(
    ExperimentSpec(
        name="txn_abort_rate",
        description="Txn abort rate vs. write fraction, per read mechanism",
        axes={"rmw_fraction": (0.0, 0.25, 0.5, 0.75, 1.0)},
        variants=tuple(
            Variant(label, {"mechanism": name})
            for label, name in PROTOCOL_VARIANTS
        ),
        defaults={
            "txn_size": 4,
            "writes_per_txn": 2,
            "distribution": "zipfian",
            "mechanism": "sabre",
            "n_shards": 4,
            "sessions_per_client": 2,
            "replication": 2,
            "object_size": 256,
            "n_objects": 128,
            "duration_ns": 120_000.0,
            "warmup_ns": 15_000.0,
            "seed": 17,
        },
        headers=ABORT_HEADERS,
        point_fn=_abort_rate_point,
    )
)


def _derive_scaling(params: Dict) -> Dict:
    out = dict(params)
    shards = out.pop("shards")
    out["n_shards"] = shards
    # One client node per shard: load generators grow with the rack.
    out["n_clients"] = shards
    out["replication"] = min(out["replication"], shards)
    return out


def _txn_scaling_point(ctx) -> Dict[str, float]:
    result = run_txn_mix(_cfg_from_params(ctx.params, ctx.scale))
    return {
        "commits_per_us": result.commits_per_us,
        "commit_ns": result.mean_commit_ns,
        "abort_rate": result.abort_rate,
        "lock_aborts": result.lock_aborts,
        "validation_aborts": result.validation_aborts,
        "retries": result.retries,
        "undetected_violations": result.undetected_violations,
        "torn_reads_observed": result.torn_reads_observed,
    }


TXN_SHARD_SCALING_SPEC = register(
    ExperimentSpec(
        name="txn_shard_scaling",
        description="Txn commit throughput under SABRes as shards grow 1->8",
        axes={"shards": (1, 2, 4, 8)},
        defaults={
            "txn_size": 4,
            "writes_per_txn": 2,
            "rmw_fraction": 0.5,
            "distribution": "uniform",
            "mechanism": "sabre",
            "sessions_per_client": 2,
            "replication": 2,
            "object_size": 256,
            "n_objects": 128,
            "duration_ns": 120_000.0,
            "warmup_ns": 15_000.0,
            "seed": 19,
        },
        derive=_derive_scaling,
        headers=SCALING_HEADERS,
        point_fn=_txn_scaling_point,
    )
)
