"""The SABRe rack benchmark: one command per workload and mode.

Usage::

    python3 perfbench/run.py --workload {ycsb_read,txn_write,serve_http}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from
``src/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (:data:`END_TO_END`),
measured untraced; with ``--trace 1`` they are the per-layer ones
(:data:`PER_LAYER`), from traced passes of the same workload.  The
exit code is 0 when every correctness check passed, 1 when one failed
(the JSON line then says ``"correct": false`` and carries no metrics),
2 on a usage error or
when the program is not there.  perfbench/README.md defines every
metric.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from statistics import fmean, median
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("ycsb_read", "txn_write", "serve_http")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END: Dict[str, str] = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virt_mean_ns": "ns",
    "virt_p99_ns": "ns",
    "virt_ops_per_us": "1/us",
}

#: Layers of the event ledger (``bench`` is this benchmark's own client
#: loop; ``other`` catches a package the list does not name).
LEDGER_LAYERS = (
    "sim", "bench", "fabric", "mem", "core", "sonuma", "objstore", "workloads", "serve", "other",
)

#: Layers whose self-time share is reported.
SHARE_LAYERS = ("sim", "core", "mem", "noc", "fabric", "sonuma", "objstore")

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {
    "host.latency_p50_ms": "ms",
    "host.latency_p90_ms": "ms",
    "sim.events_per_op": "count",
    "sim.cancelled_per_op": "count",
    "sim.host_ns_per_event": "ns",
    **{f"events_per_op.{layer}": "count" for layer in LEDGER_LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS},
    "core.handle_packet_per_op": "count",
    "mem.read_block_per_op": "count",
    "mem.write_block_per_op": "count",
    "fabric.send_per_op": "count",
    "sonuma.sabre_reads_per_op": "count",
    "sonuma.rpc_calls_per_op": "count",
    "objstore.sabre_abort_ratio": "ratio",
    "objstore.retries_per_read": "count",
    "objstore.txn_attempts_per_commit": "count",
    "objstore.lock_conflicts_per_commit": "count",
    "serve.gateway_cpu_ms_per_req": "ms",
    "serve.sim_ms_per_req": "ms",
    "serve.http_ms_per_req": "ms",
    "serve.session_waits": "count",
    "loadgen.late_p99_ms": "ms",
    "loadgen.connections": "count",
    "trace.overhead_pct": "%",
    "trace.ledger_overhead_pct": "%",
    "trace.spans_per_op": "count",
}

#: Distinct unit seeds per run of a harness workload; virtual-time
#: metrics pool their samples.  Units cycle through them, and a run
#: makes at least one more unit than this, so one seed always repeats.
SUBSEEDS = 5


class Checks:
    """Correctness checks of one run; any failure makes it incorrect."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @property
    def passed(self) -> bool:
        return not self.failures


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _virtual(latency_ns: List[float]) -> Dict[str, float]:
    from perfbench.httpload import quantile

    return {"virt_mean_ns": fmean(latency_ns), "virt_p99_ns": quantile(latency_ns, 0.99)}


def unit_seed(seed: int, j: int) -> int:
    """Seed of a run's ``j``-th distinct unit."""
    from repro.common.rng import derive_seed

    return derive_seed(seed, "unit", j) % 2**31


# ----------------------------------------------------------------------
# ycsb_read, txn_write
# ----------------------------------------------------------------------


def harness_plain(name: str, seed: int, seconds: float, checks: Checks) -> Tuple[Dict, int, int]:
    from perfbench.harness import UNITS

    run_unit = UNITS[name]
    units = []
    start = time.perf_counter()
    while len(units) <= SUBSEEDS or time.perf_counter() - start < seconds:
        units.append(run_unit(unit_seed(seed, len(units) % SUBSEEDS)))
    distinct = units[:SUBSEEDS]
    checks.require(
        all(u.digest == units[i % SUBSEEDS].digest for i, u in enumerate(units)),
        "unit digests differ across repeats of one seed",
    )
    checks.require(all(u.violations == 0 for u in units), "undetected torn reads")
    checks.require(all(u.ops > 0 for u in distinct), "a unit completed no operation")
    pooled = [x for u in distinct for x in u.virt_lat_ns]
    metrics = {
        "ops_per_s": median(u.ops / u.run_s for u in units),
        "setup_s": median(u.setup_s for u in units),
        "peak_rss_mb": _self_rss_mb(),
        **_virtual(pooled),
        "virt_ops_per_us": fmean(u.virt_ops_per_us for u in distinct),
    }
    print(
        f"{name}: {len(units)} units; ops per reference s "
        f"{' '.join(f'{u.ops / u.run_s:.0f}' for u in units)}; per wall s "
        f"{' '.join(f'{u.ops / u.wall_run_s:.0f}' for u in units)}; {len(pooled)} virtual samples",
        file=sys.stderr,
    )
    return metrics, sum(u.attempted for u in units), sum(u.failed for u in units)


def _layer_metrics(counters: Dict[str, float]) -> Dict[str, float]:
    """The objstore ratios, from the per-shard read counters."""
    routed = counters.get("reads_routed", 0)
    retries = counters.get("retries", 0)
    commits = counters.get("commits", 0)
    return {
        "objstore.sabre_abort_ratio": _ratio(counters.get("sabre_aborts", 0), routed + retries),
        "objstore.retries_per_read": _ratio(retries, routed),
        "objstore.txn_attempts_per_commit": _ratio(counters.get("txn_attempts", 0), commits),
        "objstore.lock_conflicts_per_commit": _ratio(counters.get("lock_conflicts", 0), commits),
    }


def _traced_passes(run_pass, ops_of, checks: Checks):
    """The three traced passes over one seed: plain (reference), event
    ledger, spans.  ``run_pass(on_run)`` runs one pass and returns an
    object with ``digest``, ``run_s``, ``violations`` and the event
    counts; ``ops_of`` gives its op count."""
    from perfbench.tracing import Ledger, SpanTracer

    ref = run_pass(None)
    with Ledger() as ledger:
        led = run_pass(None)
    with SpanTracer() as tracer:
        spanned = run_pass(tracer.reset)
    checks.require(led.digest == ref.digest, "the ledger pass changed the virtual-time results")
    checks.require(spanned.digest == ref.digest, "the span pass changed the virtual-time results")
    checks.require(ref.violations == 0, "undetected torn reads")
    checks.require(ledger.total == led.events_scheduled, "ledger total differs from events_scheduled")

    ops = ops_of(ref)
    counts = dict(ledger.counts)
    metrics = {f"events_per_op.{layer}": counts.pop(layer, 0) / ops for layer in LEDGER_LAYERS[:-1]}
    metrics["events_per_op.other"] = sum(counts.values()) / ops
    shares = tracer.self_shares(spanned.wall_run_s * 1e9)
    metrics.update({f"{layer}.self_share": shares[layer] for layer in SHARE_LAYERS})
    calls = tracer.calls
    metrics.update(
        {
            "sim.events_per_op": ref.events_scheduled / ops,
            "sim.cancelled_per_op": ref.events_cancelled / ops,
            "sim.host_ns_per_event": ref.run_s * 1e9 / ref.events_fired,
            "core.handle_packet_per_op": calls["core.handle_packet"] / ops,
            "mem.read_block_per_op": calls["mem.read_block"] / ops,
            "mem.write_block_per_op": calls["mem.write_block"] / ops,
            "fabric.send_per_op": calls["fabric.send"] / ops,
            "sonuma.sabre_reads_per_op": calls["sonuma.sabre_read"] / ops,
            "sonuma.rpc_calls_per_op": calls["sonuma.call"] / ops,
            "trace.overhead_pct": (spanned.run_s / ref.run_s - 1.0) * 100.0,
            "trace.ledger_overhead_pct": (led.run_s / ref.run_s - 1.0) * 100.0,
            "trace.spans_per_op": tracer.span_count / ops,
        }
    )
    return metrics, [ref, led, spanned], tracer


def harness_traced(name: str, seed: int, checks: Checks) -> Tuple[Dict, int, int]:
    from perfbench.harness import UNITS
    from perfbench.httpload import quantile

    run_unit = UNITS[name]
    metrics, passes, tracer = _traced_passes(
        lambda on_run: run_unit(unit_seed(seed, 0), on_run=on_run), lambda u: u.ops, checks
    )
    tracer.write(os.path.join(OUT_DIR, f"spans_{name}_{seed}.tsv.gz"))
    metrics.update(_layer_metrics(passes[0].counters))
    metrics.update(
        {
            "host.latency_p50_ms": quantile(passes[0].host_lat_ms, 0.5),
            "host.latency_p90_ms": quantile(passes[0].host_lat_ms, 0.9),
            "serve.gateway_cpu_ms_per_req": 0.0,
            "serve.sim_ms_per_req": 0.0,
            "serve.http_ms_per_req": 0.0,
            "serve.session_waits": 0.0,
            "loadgen.late_p99_ms": 0.0,
            "loadgen.connections": 0.0,
        }
    )
    return metrics, sum(u.attempted for u in passes), sum(u.failed for u in passes)


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------


def _check_drive(run, checks: Checks) -> None:
    from perfbench.serve import metric_sum

    checks.require(run.exit_code == 0, f"gateway exit code {run.exit_code} after SIGTERM")
    checks.require(not run.leftover_process, "gateway process left behind")
    checks.require(
        metric_sum(run.metrics, "repro_shard_undetected_violations") == 0,
        "gateway /metrics reports undetected torn reads",
    )


def _drive_counts(run) -> Tuple[int, int]:
    return sum(p.attempted for p in run.loads), sum(p.failed for p in run.loads)


def serve_plain(seed: int, seconds: float, checks: Checks) -> Tuple[Dict, int, int]:
    from perfbench.serve import REPLAYS, drive, replay, replay_seed

    run = asyncio.run(drive(ROOT, seed, seconds, OUT_DIR))
    _check_drive(run, checks)
    replays = [replay(replay_seed(seed, j)) for j in range(REPLAYS)]
    again = replay(replay_seed(seed, 0))
    checks.require(again.digest == replays[0].digest, "replay digests differ across repeats of one seed")
    checks.require(all(r.violations == 0 for r in replays), "a replay reports undetected torn reads")

    metrics = {
        "ops_per_s": median(w.achieved_qps * f for w, f in zip(run.saturate, run.saturate_factors)),
        "setup_s": median(run.boots_s),
        "peak_rss_mb": run.peak_rss_mb,
        **_virtual([x for r in replays for x in r.latency_ns]),
        "virt_ops_per_us": fmean(r.achieved_qps for r in replays) / 1e6,
    }
    print(
        f"serve_http: overload req/s per window {' '.join(f'{w.achieved_qps:.0f}' for w in run.saturate)} "
        f"at speed factors {' '.join(f'{f:.2f}' for f in run.saturate_factors)}; "
        f"boots {' '.join(f'{b:.3f}' for b in run.boots_s)} reference s",
        file=sys.stderr,
    )
    attempted, failed = _drive_counts(run)
    everything = replays + [again]
    attempted += sum(r.n_ops for r in everything)
    failed += sum(r.n_ops - r.n_ok for r in everything)
    return metrics, attempted, failed


def serve_traced(seed: int, seconds: float, checks: Checks) -> Tuple[Dict, int, int]:
    from perfbench.httpload import quantile
    from perfbench.serve import drive, metric_sum, replay, replay_seed

    summary_path = os.path.join(OUT_DIR, f"gateway_{seed}.json")
    run = asyncio.run(drive(ROOT, seed, seconds, OUT_DIR, summary=summary_path, boots=1, saturate=False))
    _check_drive(run, checks)
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)

    metrics, passes, tracer = _traced_passes(
        lambda on_run: replay(replay_seed(seed, 0), on_run=on_run), lambda r: r.n_ops, checks
    )
    tracer.write(os.path.join(OUT_DIR, f"spans_serve_http_{seed}.tsv.gz"))

    sent = sum(w.attempted for w in run.fixed)
    reqs = summary["calls"].get("serve.submit", 0)
    checks.require(reqs == sent, "the gateway saw another number of requests than were sent")
    cpu_ms = run.gateway_cpu_s * 1e3 / sent
    sim_ms = _ratio(summary["total_ns"].get("serve.run_pending", 0) / 1e6, reqs)
    counters = {
        "reads_routed": metric_sum(run.metrics, "repro_shard_reads_routed"),
        "retries": metric_sum(run.metrics, "repro_shard_retries"),
        "sabre_aborts": metric_sum(run.metrics, "repro_shard_sabre_aborts"),
        "commits": sum(len(w.txn_attempts) for w in run.fixed),
        "txn_attempts": sum(sum(w.txn_attempts) for w in run.fixed),
        "lock_conflicts": metric_sum(run.metrics, "repro_txn_lock_conflicts"),
    }
    metrics.update(_layer_metrics(counters))
    metrics.update(
        {
            "host.latency_p50_ms": median(quantile(w.latency_ms, 0.5) for w in run.fixed),
            "host.latency_p90_ms": median(quantile(w.latency_ms, 0.9) for w in run.fixed),
            "serve.gateway_cpu_ms_per_req": cpu_ms,
            "serve.sim_ms_per_req": sim_ms,
            "serve.http_ms_per_req": cpu_ms - sim_ms,
            "serve.session_waits": metric_sum(run.metrics, "repro_session_waits_total"),
            "loadgen.late_p99_ms": quantile([x for w in run.fixed for x in w.late_ms], 0.99),
            "loadgen.connections": float(max(w.connections + w.reconnects for w in run.fixed)),
        }
    )
    attempted, failed = _drive_counts(run)
    attempted += sum(r.n_ops for r in passes)
    failed += sum(r.n_ops - r.n_ok for r in passes)
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.makedirs(OUT_DIR, exist_ok=True)

    checks = Checks()
    if args.workload == "serve_http":
        run = serve_traced if args.trace else serve_plain
        metrics, attempted, failed = run(args.seed, args.seconds, checks)
    elif args.trace:
        metrics, attempted, failed = harness_traced(args.workload, args.seed, checks)
    else:
        metrics, attempted, failed = harness_plain(args.workload, args.seed, args.seconds, checks)

    units = PER_LAYER if args.trace else END_TO_END
    checks.require(set(metrics) == set(units), "the metric set differs from the declared one")
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    # A run that failed a check reports no numbers.
    result = {
        "correct": checks.passed,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if checks.passed
        },
    }
    print(json.dumps(result))
    return 0 if checks.passed else 1


if __name__ == "__main__":
    sys.exit(main())
