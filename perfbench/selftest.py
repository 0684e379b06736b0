"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

(The file is not named ``test_*.py``, so the repository's own test run
does not collect it; naming it on the command line does.)  The slowest
test boots a gateway; the whole file takes about a minute.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench  # noqa: E402
from perfbench import serve  # noqa: E402
from perfbench.harness import run_txn_unit, ycsb_config  # noqa: E402
from perfbench.tracing import ENTRY_POINTS, Ledger, SpanTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# metric names and units
# ----------------------------------------------------------------------


def test_metric_names_are_valid_and_carry_units():
    names = list(bench.END_TO_END) + list(bench.PER_LAYER) + list(bench.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(bench.END_TO_END.values()) + list(bench.PER_LAYER.values()):
        assert UNIT.match(unit), unit


def test_benchmark_json_declares_what_run_py_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in spec["end_to_end"]) == setup[0]["bound"] <= 0.25


# ----------------------------------------------------------------------
# inputs come from the seed
# ----------------------------------------------------------------------


def test_seed_changes_the_generated_inputs():
    assert bench.unit_seed(1, 0) != bench.unit_seed(2, 0)
    assert ycsb_config(bench.unit_seed(1, 0)).seed != ycsb_config(bench.unit_seed(2, 0)).seed
    one = serve.trace(serve.replay_seed(1, 0), serve.REPLAY_QPS, n_ops=50).ops
    two = serve.trace(serve.replay_seed(2, 0), serve.REPLAY_QPS, n_ops=50).ops
    assert one != two
    assert one == serve.trace(serve.replay_seed(1, 0), serve.REPLAY_QPS, n_ops=50).ops


def test_seed_changes_the_unit_results():
    assert run_txn_unit(bench.unit_seed(1, 0)).digest != run_txn_unit(bench.unit_seed(2, 0)).digest


# ----------------------------------------------------------------------
# deterministic counts repeat
# ----------------------------------------------------------------------


def test_unit_repeats_exactly_and_tracing_does_not_perturb_it():
    seed = bench.unit_seed(5, 0)
    first, second = run_txn_unit(seed), run_txn_unit(seed)
    assert first.digest == second.digest
    assert first.events_scheduled == second.events_scheduled
    ledgers = []
    for _ in range(2):
        with Ledger() as ledger:
            traced = run_txn_unit(seed)
        assert traced.digest == first.digest
        assert ledger.total == traced.events_scheduled
        ledgers.append(dict(ledger.counts))
    assert ledgers[0] == ledgers[1]
    with SpanTracer() as tracer:
        spanned = run_txn_unit(seed, on_run=tracer.reset)
    assert spanned.digest == first.digest
    assert tracer.calls["objstore.run"] > 0 and tracer.calls["fabric.send"] > 0


def test_replay_repeats_exactly():
    seed = serve.replay_seed(3, 0)
    first, second = serve.replay(seed), serve.replay(seed)
    assert first.digest == second.digest
    assert first.n_ok == first.n_ops and first.violations == 0


def test_tracers_put_the_originals_back():
    import importlib

    from repro.sim.engine import Process, Simulator

    def current():
        out = [getattr(importlib.import_module(m), c).__dict__[f] for m, c, f, _, _ in ENTRY_POINTS]
        out += [Simulator.__dict__[f] for f in ("call_at", "call_later", "call_soon", "schedule_batch", "process")]
        return out + [Process.__dict__["_step"]]

    before = current()
    with Ledger():
        with SpanTracer():
            assert current() != before
    assert current() == before


def test_generator_proxy_forwards_values_exceptions_and_returns():
    tracer = SpanTracer()
    name_id = tracer._name_id("x.gen")

    def gen():
        got = yield "a"
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    proxy = tracer._traced_gen(gen(), name_id, "x.gen", "x")
    assert next(proxy) == "a"
    assert proxy.send(7) == 7
    assert proxy.throw(KeyError("k")) == "caught"
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "done"
    assert tracer.span_count == 4 and not tracer._stack


# ----------------------------------------------------------------------
# the gateway subprocess
# ----------------------------------------------------------------------


def test_gateway_boots_serves_drains_and_leaves_no_process(tmp_path):
    run = asyncio.run(serve.drive(ROOT, 1, 1.0, str(tmp_path), boots=2, saturate=False))
    assert len(run.boots_s) == 2
    assert sum(w.attempted for w in run.fixed) > 0
    assert all(w.failed == 0 for w in run.fixed)
    assert run.exit_code == 0 and not run.leftover_process
    assert serve.metric_sum(run.metrics, "repro_shard_undetected_violations") == 0


def test_client_counts_refusals_and_transport_errors_as_failed():
    """A stub server answers 200, then 503, then drops the connection:
    the two refused requests fail and miss every latency limit."""
    from perfbench.httpload import run_open_loop
    from repro.serve.ops import TimedOp

    served = {"n": 0}

    async def handle(reader, writer):
        while True:
            try:
                await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                break
            served["n"] += 1
            if served["n"] == 3:
                break  # transport error: close without answering
            status = 200 if served["n"] == 1 else 503
            body = b'{"latency_ns": 5.0}'
            writer.write(
                f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
            )
            await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            ops = [TimedOp(op_id=i, at_ns=i * 1e6, kind="get", key="k") for i in range(3)]
            return await run_open_loop("127.0.0.1", port, ops, 1, timeout_s=2.0)
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(main())
    assert result.attempted == 3 and result.ok == 1 and result.failed == 2
    assert result.transport_errors == 1 and result.statuses == {200: 1, 503: 1}
    assert sorted(result.latency_ms)[-2:] == [float("inf"), float("inf")]


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_line_last():
    out = _run(ROOT, "--workload", "txn_write", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "--workload", "ycsb_read", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
