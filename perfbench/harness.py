"""The two in-process workloads: closed loops over the sharded store.

Each workload is a *unit*: build the cluster (set-up, timed on its
own), then run a fixed span of virtual time (the run phase, timed on
its own).  A unit is a pure function of its seed, so every repeat of
it in one benchmark run must produce the same virtual-time results;
:attr:`Unit.digest` fingerprints them and the benchmark checks that
the fingerprints agree.

* ``ycsb_read`` mirrors ``repro.workloads.ycsb.run_ycsb``: YCSB-B
  (5 % writes), Zipfian theta 0.99, 4 shards, replication 2, SABRe,
  1 KB objects, 16 Ki objects (8 MB per shard, above the modelled LLC).
* ``txn_write`` mirrors ``repro.workloads.txn_mix.run_txn_mix`` with
  its default shape: 4-key transactions, half of them read-modify-write
  with 2 writes, uniform keys over 128 x 256 B objects.

The loops are written here, not called through ``run_ycsb`` and
``run_txn_mix``, because those time set-up and run as one; the
simulated behaviour is the same.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from perfbench.refclock import RefClock
from repro.common.rng import make_rng
from repro.objstore.sharded import ShardedKV
from repro.objstore.txn import TxnManager
from repro.workloads.generators import UniformPicker, ZipfianPicker
from repro.workloads.txn_mix import TxnMixConfig
from repro.workloads.ycsb import YcsbConfig

#: Virtual span of one unit, in ns, and its warm-up (excluded from the
#: virtual throughput window, as in the repo's own workloads).
YCSB_SPAN_NS = 120_000.0
YCSB_WARMUP_NS = 15_000.0
TXN_SPAN_NS = 400_000.0
TXN_WARMUP_NS = 20_000.0
#: Timed slices of a run phase (about 0.1-0.2 s of host time each).
SLICES = 10


@dataclass
class Unit:
    """What one unit measured.  Host times are in reference seconds
    (:mod:`perfbench.refclock`), virtual times in ns.  ``ops`` counts
    completed operations (reads and writes for YCSB, commits for
    transactions)."""

    setup_s: float
    run_s: float
    #: Wall over reference time of the run phase.
    factor: float
    ops: int
    attempted: int
    failed: int
    violations: int
    host_lat_ms: List[float]
    virt_lat_ns: List[float]
    virt_ops_per_us: float
    events_scheduled: int
    events_fired: int
    events_cancelled: int
    counters: Dict[str, float] = field(default_factory=dict)
    digest: str = ""

    @property
    def wall_run_s(self) -> float:
        return self.run_s * self.factor


def _run_sliced(sim, t_end: float, clock: RefClock) -> None:
    """Run the simulation to the end in :data:`SLICES` equal spans of
    virtual time and a final drain, each timed as one slice.  Pausing
    between spans changes no event and no event order."""
    for k in range(1, SLICES + 1):
        clock.time(sim.run, t_end * k / SLICES)
    clock.time(sim.run)


def _digest(payload: Dict) -> str:
    """Fingerprint of virtual-time results (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _picker(distribution: str, n_objects: int, seed: int, theta: float, label):
    ids = range(n_objects)
    if distribution == "zipfian":
        return ZipfianPicker(ids, seed, theta=theta, label=label)
    return UniformPicker(ids, seed, label=label)


def _shard_counters(kv: ShardedKV) -> Dict[str, float]:
    """Read-side counters summed over shards, from the same table the
    gateway exports as ``repro_shard_*`` series."""
    rows = kv.shard_load()
    return {
        name: sum(row[name] for row in rows)
        for name in ("reads_routed", "retries", "sabre_aborts", "fallback_reads")
    }


def ycsb_config(seed: int) -> YcsbConfig:
    return YcsbConfig(
        workload="B",
        distribution="zipfian",
        zipf_theta=0.99,
        mechanism="sabre",
        n_shards=4,
        readers_per_client=2,
        replication=2,
        object_size=1024,
        n_objects=16_384,
        duration_ns=YCSB_SPAN_NS,
        warmup_ns=YCSB_WARMUP_NS,
        seed=seed,
    )


def txn_config(seed: int) -> TxnMixConfig:
    return TxnMixConfig(
        duration_ns=TXN_SPAN_NS, warmup_ns=TXN_WARMUP_NS, seed=seed
    )


def _timed(build, t_end: float, on_run, start) -> tuple:
    """Build the cluster (timed as set-up), let ``start(built, clock)``
    schedule the client processes and return the simulator, then run
    the simulation to the end (timed as the run phase).  ``clock`` reads
    reference time spent inside the run phase."""
    gc.collect()
    setup = RefClock()
    built = setup.time(build)
    run = RefClock()
    sim = start(built, run.now)
    if on_run is not None:
        on_run()
    _run_sliced(sim, t_end, run)
    return built, setup, run


def _unit(sim, setup: RefClock, run: RefClock, tally: Dict[str, int], window_ns: float,
          host_lat: List[float], virt_lat: Dict[str, List[float]], primary: str,
          counters: Dict[str, float], violations: int) -> Unit:
    """The :class:`Unit` of a finished run, its digest over every
    virtual-time result."""
    unit = Unit(
        setup_s=setup.ref_s,
        run_s=run.ref_s,
        factor=run.factor,
        ops=tally["ops"],
        attempted=tally["ops"] + tally["failed"],
        failed=tally["failed"],
        violations=violations,
        host_lat_ms=host_lat,
        virt_lat_ns=virt_lat[primary],
        virt_ops_per_us=tally["window"] / window_ns * 1e3,
        events_scheduled=sim.events_scheduled,
        events_fired=sim.events_fired,
        events_cancelled=sim.events_cancelled,
        counters=counters,
    )
    unit.digest = _digest(
        {
            "counters": counters,
            "failed": tally["failed"],
            "violations": violations,
            "latency_ns": virt_lat,
            "events": sim.events_scheduled,
            "now": sim.now,
        }
    )
    return unit


def run_ycsb_unit(seed: int, on_run: Optional[Callable[[], None]] = None) -> Unit:
    """One unit; ``on_run`` is called between set-up and run phase."""
    cfg = ycsb_config(seed)
    cfg.validate()
    t_end = cfg.duration_ns
    host_lat: List[float] = []
    virt_lat: Dict[str, List[float]] = {"reads": [], "writes": []}
    tally = {"ops": 0, "reads": 0, "writes": 0, "failed": 0, "window": 0}

    def build():
        kv = ShardedKV(cfg.to_sharded())
        sessions = [
            (kv.reader_session(client), client, thread)
            for client in range(kv.cfg.clients)
            for thread in range(cfg.readers_per_client)
        ]
        return kv, sessions

    def start(built, clock):
        kv, sessions = built
        sim = kv.cluster.sim

        def client_proc(session, client: int, thread: int):
            rng = make_rng(cfg.seed, "ycsb-mix", client, thread)
            pick = _picker(cfg.distribution, cfg.n_objects, cfg.seed, cfg.zipf_theta, (client, thread))
            while sim.now < t_end:
                key = kv.key_name(pick.pick())
                t0_v = sim.now
                t0_h = clock()
                if rng.random() < cfg.write_fraction:
                    reply = yield kv.put(session.client_index, key, t_end=t_end)
                    ok, kind = reply is not None, "writes"
                else:
                    ok = yield from session.lookup(key, t_end)
                    kind = "reads"
                if sim.now >= t_end and not ok:
                    return  # cut by the end of the span: not an attempt
                if not ok:
                    tally["failed"] += 1
                    continue
                host_lat.append((clock() - t0_h) * 1e3)
                virt_lat[kind].append(sim.now - t0_v)
                tally[kind] += 1
                tally["ops"] += 1
                if cfg.warmup_ns <= sim.now <= t_end:
                    tally["window"] += 1

        for session, client, thread in sessions:
            sim.process(client_proc(session, client, thread))
        return sim

    (kv, _sessions), setup, run = _timed(build, t_end, on_run, start)
    counters = {"reads": tally["reads"], "writes": tally["writes"], **_shard_counters(kv)}
    violations = sum(s.undetected_violations for s in kv.all_reader_stats())
    return _unit(kv.cluster.sim, setup, run, tally, cfg.duration_ns - cfg.warmup_ns,
                 host_lat, virt_lat, "reads", counters, violations)


def run_txn_unit(seed: int, on_run: Optional[Callable[[], None]] = None) -> Unit:
    """One unit; ``on_run`` is called between set-up and run phase."""
    cfg = txn_config(seed)
    cfg.validate()
    t_end = cfg.duration_ns
    host_lat: List[float] = []
    virt_lat: Dict[str, List[float]] = {"commits": []}
    tally = {"ops": 0, "attempts": 0, "lock_aborts": 0, "validation_aborts": 0,
             "failed": 0, "torn_committed": 0, "window": 0}

    def build():
        kv = ShardedKV(cfg.to_sharded())
        manager = TxnManager(kv)
        sessions = [
            (manager.session(client), client, thread)
            for client in range(kv.cfg.clients)
            for thread in range(cfg.sessions_per_client)
        ]
        return kv, manager, sessions

    def start(built, clock):
        kv, _manager, sessions = built
        sim = kv.cluster.sim

        def pick_keys(pick) -> List[str]:
            chosen: List[int] = []
            while len(chosen) < cfg.txn_size:
                idx = pick.pick()
                if idx not in chosen:
                    chosen.append(idx)
            return [kv.key_name(idx) for idx in chosen]

        def client_proc(session, client: int, thread: int):
            rng = make_rng(cfg.seed, "txn-mix", client, thread)
            pick = _picker(cfg.distribution, cfg.n_objects, cfg.seed, cfg.zipf_theta, (client, thread))
            while sim.now < t_end:
                keys = pick_keys(pick)
                rmw = cfg.writes_per_txn > 0 and rng.random() < cfg.rmw_fraction
                write_keys = keys[: cfg.writes_per_txn] if rmw else []
                t0_v = sim.now
                t0_h = clock()
                outcome = yield from session.run(keys, write_keys, t_end)
                if not outcome.committed and sim.now >= t_end:
                    return  # cut by the end of the span: not an attempt
                tally["attempts"] += outcome.attempts
                tally["lock_aborts"] += outcome.lock_aborts
                tally["validation_aborts"] += outcome.validation_aborts
                if not outcome.committed:
                    tally["failed"] += 1
                    continue
                tally["torn_committed"] += sum(r.torn for r in outcome.reads.values())
                host_lat.append((clock() - t0_h) * 1e3)
                virt_lat["commits"].append(sim.now - t0_v)
                tally["ops"] += 1
                if cfg.warmup_ns <= sim.now <= t_end:
                    tally["window"] += 1

        for session, client, thread in sessions:
            sim.process(client_proc(session, client, thread))
        return sim

    (kv, manager, _sessions), setup, run = _timed(build, t_end, on_run, start)
    merged = manager.merged_stats()
    counters = {
        "commits": tally["ops"],
        "txn_attempts": tally["attempts"],
        "lock_aborts": tally["lock_aborts"],
        "validation_aborts": tally["validation_aborts"],
        "lock_conflicts": merged.lock_conflicts,
        **_shard_counters(kv),
    }
    violations = (
        sum(s.undetected_violations for s in kv.all_reader_stats())
        + merged.torn_reads_observed
        + tally["torn_committed"]
    )
    return _unit(kv.cluster.sim, setup, run, tally, cfg.duration_ns - cfg.warmup_ns,
                 host_lat, virt_lat, "commits", counters, violations)


UNITS: Dict[str, Callable[..., Unit]] = {
    "ycsb_read": run_ycsb_unit,
    "txn_write": run_txn_unit,
}
