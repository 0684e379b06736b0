"""The ``serve_http`` workload: ``repro-serve --mode fast`` over localhost.

One gateway subprocess serves a 4-shard SABRe cluster; this process is
the load generator (:mod:`perfbench.httpload`).  A run:

1. boots the gateway :data:`BOOTS` times (spawn until ``/readyz`` says
   200) and keeps the last one; set-up time is the median boot, in
   reference seconds;
2. in the traced run, offers Poisson arrivals from
   :func:`repro.loadgen.trace.build_trace` (YCSB-B, Zipfian, ~10 %
   ``POST /v1/txn``) at :data:`FIXED_QPS`, well below the knee, in
   :data:`FIXED_WINDOWS` windows, for the HTTP latency and the split of
   the gateway's CPU;
3. in the untraced run, offers :data:`SATURATE_QPS`, far above the
   knee, in :data:`SATURATE_WINDOWS` windows, for the gateway's
   capacity: requests completed per reference second of its core while
   it never idles (the untraced run pins the two processes to their
   own cores, :class:`Cores`, from the first boot on);
4. scrapes ``/metrics`` for the torn-read audit and the cluster
   counters, sends SIGTERM and checks that the gateway drained and
   exited cleanly;
5. replays traces of the same shape in virtual time, in this process
   (:meth:`repro.serve.bridge.SimBridge.replay`), :data:`REPLAYS` of
   them with their own seeds and the first one again: a replay is
   deterministic, so its metrics snapshot is a digest, and the two
   copies of the first must agree.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.httpload import LoadResult, http_get, run_open_loop
from perfbench.refclock import REF_NOMINAL_S, RefClock, calibrate

HOST = "127.0.0.1"
#: Gateway boots per run (set-up time is their median).
BOOTS = 3
#: Keep-alive connections: at most one per core of the 2-core host.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: The fixed rate for latency (req/s); the measured knee is ~800-1000.
FIXED_QPS = 400.0
#: The overload rate for capacity (req/s).
SATURATE_QPS = 3000.0
#: Arrival time of the two phases, as shares of ``--seconds``.  Each
#: overload window drains its backlog at capacity after its arrivals,
#: which takes about three times as long as they do.
FIXED_SHARE = 0.55
SATURATE_SHARE = 0.2
#: Windows per phase: 2.2 s of arrivals each at the fixed rate, and
#: 2400 requests each in overload, at the benchmark's 20 s runs.
FIXED_WINDOWS = 5
SATURATE_WINDOWS = 5
#: Trace shape, as in ``repro-load``'s defaults plus transactions.
TXN_FRACTION = 0.1
N_OBJECTS = 512
#: Virtual-time replays: how many (each with its own seed, pooled so
#: one placement of the hot keys does not decide the tail), ops per
#: replay and offered rate in virtual req/s, well below the simulated
#: cluster's knee (~32 M req/s).
REPLAYS = 3
REPLAY_OPS = 1000
REPLAY_QPS = 1_000_000.0
#: Seconds to wait for a boot or a drain before giving up.
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


def trace(seed: int, qps: float, duration_s: float = 0.0, n_ops: int = 1):
    from repro.loadgen.trace import TraceConfig, build_trace

    return build_trace(
        TraceConfig(
            qps=qps,
            n_ops=n_ops,
            duration_s=duration_s,
            workload="B",
            distribution="zipfian",
            txn_fraction=TXN_FRACTION,
            n_objects=N_OBJECTS,
            seed=seed,
        )
    )


def serve_args(seed: int, port: int) -> List[str]:
    return [
        "--port", str(port),
        "--seed", str(seed),
        "--objects", str(N_OBJECTS),
        "--mode", "fast",
        "--drain-timeout", "10",
    ]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{'name{labels}': value}``."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        out[series] = float(value)
    return out


def metric_sum(samples: Dict[str, float], name: str) -> float:
    """Sum of every series of ``name`` (all label sets)."""
    return sum(v for k, v in samples.items() if k == name or k.startswith(name + "{"))


class GatewayProcess:
    """One ``repro-serve`` subprocess, plain or traced."""

    def __init__(self, root: str, seed: int, out_dir: str, summary: Optional[str] = None):
        self.port = _free_port()
        args = serve_args(seed, self.port)
        if summary is None:
            cmd = [sys.executable, "-m", "repro.serve.cli", *args]
        else:
            gateway = os.path.join(root, "perfbench", "gateway.py")
            cmd = [sys.executable, gateway, "--summary", summary, "--", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(os.path.join(out_dir, "gateway.log"), "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )

    async def wait_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited early with {self.proc.returncode}")
            try:
                status, _ = await http_get(HOST, self.port, "/readyz")
                if status == 200:
                    return
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            await asyncio.sleep(0.005)
        raise RuntimeError("gateway did not become ready")

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as fh:
            return fh.read()

    def cpu_s(self) -> float:
        """User plus system CPU seconds the gateway has used."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def scrape(self) -> Dict[str, float]:
        status, body = await http_get(HOST, self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def stop(self) -> int:
        """SIGTERM, wait for the drain; kill only if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(DRAIN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                    return -9
            return self.proc.returncode
        finally:
            self._log.close()


def replay_seed(seed: int, j: int) -> int:
    """Seed of the ``j``-th replay of a run (placement and trace)."""
    from repro.common.rng import derive_seed

    return derive_seed(seed, "replay", j) % 2**31


@dataclass
class ReplayOutcome:
    #: Host time of the replay, in reference and in wall seconds.
    run_s: float
    wall_run_s: float
    digest: str
    n_ops: int
    n_ok: int
    achieved_qps: float
    #: Virtual latency of every successful op, in ns.
    latency_ns: List[float]
    violations: int
    events_scheduled: int
    events_fired: int
    events_cancelled: int


def replay(seed: int, on_run: Optional[Callable[[], None]] = None) -> ReplayOutcome:
    """One virtual-time replay (the deterministic half of
    ``serve_http``); ``on_run`` is called once the bridge is warm."""
    from repro.serve.bridge import SimBridge
    from repro.serve.settings import ServeSettings

    settings = ServeSettings(seed=seed, n_objects=N_OBJECTS, mode="fast", port=0)
    bridge = SimBridge(settings)
    bridge.warm()
    ops = trace(seed, REPLAY_QPS, n_ops=REPLAY_OPS)
    if on_run is not None:
        on_run()
    clock = RefClock()
    report = clock.time(bridge.replay, ops)
    snapshot = bridge.metrics_snapshot()
    return ReplayOutcome(
        run_s=clock.ref_s,
        wall_run_s=clock.wall_s,
        digest=hashlib.sha256(snapshot.encode("utf-8")).hexdigest(),
        n_ops=report.n_ops,
        n_ok=report.n_ok,
        achieved_qps=report.achieved_qps,
        latency_ns=[r.latency_ns for r in report.results if r.ok],
        violations=report.undetected_violations,
        events_scheduled=bridge.sim.events_scheduled,
        events_fired=bridge.sim.events_fired,
        events_cancelled=bridge.sim.events_cancelled,
    )


@dataclass
class ServeRun:
    #: Boot-to-ready times, in reference seconds.
    boots_s: List[float]
    #: The fixed-rate windows and the overload windows, in order.
    fixed: List[LoadResult]
    saturate: List[LoadResult]
    #: The gateway core's speed factor around each overload window.
    saturate_factors: List[float]
    #: Gateway CPU seconds over the fixed-rate windows.
    gateway_cpu_s: float
    peak_rss_mb: float
    metrics: Dict[str, float]
    exit_code: int
    leftover_process: bool

    @property
    def loads(self) -> List[LoadResult]:
        return self.fixed + self.saturate


class Cores:
    """For the untraced run, pins the gateway to one core and this
    process, the load generator, to another, and times the yardstick
    (:mod:`perfbench.refclock`) on the gateway's core.  Booting and
    serving in overload keep the gateway busy all the time, so their
    pace follows that core's speed, which the yardstick tracks.  At the
    fixed rate of the traced run it is not, the yardstick does not
    track its latency, and pinning made that latency less steady, so
    the traced run stays unpinned.  With one core allowed, both
    processes share it."""

    def __init__(self) -> None:
        self.allowed = sorted(os.sched_getaffinity(0))
        self.client, self.gateway = self.allowed[0], self.allowed[-1]
        os.sched_setaffinity(0, {self.client})
        self._last = self._calibrate()

    def pin(self, pid: int) -> None:
        os.sched_setaffinity(pid, {self.gateway})

    def _calibrate(self) -> float:
        os.sched_setaffinity(0, {self.gateway})
        try:
            return calibrate()
        finally:
            os.sched_setaffinity(0, {self.client})

    def factor(self) -> float:
        """Wall over reference time of the gateway's core, from the
        yardstick timed now and at the previous call."""
        now = self._calibrate()
        factor = (self._last + now) / 2.0 / REF_NOMINAL_S
        self._last = now
        return factor

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.allowed))


async def _windows(port: int, seed: int, label: str, qps: float, seconds: float,
                   count: int, timeout_s: float,
                   cores: Optional[Cores] = None) -> Tuple[List[LoadResult], List[float]]:
    """``count`` back-to-back open-loop windows, ``seconds`` of arrivals
    in all, each with its own trace seed.  Metrics take the median over
    windows, so a burst of host contention moves one window, not the
    run.  With ``cores``, also the gateway core's speed factor around
    each window."""
    from repro.common.rng import derive_seed

    loads, factors = [], []
    for k in range(count):
        ops = trace(derive_seed(seed, label, k) % 2**31, qps, duration_s=seconds / count).ops
        loads.append(await run_open_loop(HOST, port, ops, CONNECTIONS, timeout_s=timeout_s))
        if cores is not None:
            factors.append(cores.factor())
    return loads, factors


async def drive(root: str, seed: int, seconds: float, out_dir: str,
                summary: Optional[str] = None, boots: int = BOOTS,
                saturate: bool = True) -> ServeRun:
    """Boot, load, scrape and stop the gateway (steps 1-4 above).
    ``summary`` starts the last boot traced.  ``saturate`` runs step 3
    (the untraced run); otherwise step 2 (the traced run)."""
    boots_s: List[float] = []
    gateway: Optional[GatewayProcess] = None
    cores = Cores() if saturate else None
    try:
        for i in range(boots):
            if cores is not None:
                cores.factor()
            t0 = time.perf_counter()
            gateway = GatewayProcess(root, seed, out_dir, summary if i == boots - 1 else None)
            if cores is not None:
                cores.pin(gateway.proc.pid)
            await gateway.wait_ready()
            wall = time.perf_counter() - t0
            boots_s.append(wall / cores.factor() if cores is not None else wall)
            if i < boots - 1:
                if gateway.stop() != 0:
                    raise RuntimeError("gateway did not drain cleanly")
                gateway = None
        fixed, overload, factors, cpu_s = [], [], [], 0.0
        if not saturate:
            cpu0 = gateway.cpu_s()
            fixed, _ = await _windows(
                gateway.port, seed, "fixed", FIXED_QPS, FIXED_SHARE * seconds, FIXED_WINDOWS, 10.0
            )
            cpu_s = gateway.cpu_s() - cpu0
        else:
            cores.factor()
            overload, factors = await _windows(
                gateway.port, seed, "overload", SATURATE_QPS, SATURATE_SHARE * seconds,
                SATURATE_WINDOWS, 60.0, cores,
            )
        metrics = await gateway.scrape()
        rss = gateway.peak_rss_mb()
        pid = gateway.proc.pid
        code = gateway.stop()
        gateway = None
        return ServeRun(
            boots_s=boots_s,
            fixed=fixed,
            saturate=overload,
            saturate_factors=factors,
            gateway_cpu_s=cpu_s,
            peak_rss_mb=rss,
            metrics=metrics,
            exit_code=code,
            leftover_process=_alive(pid),
        )
    finally:
        if gateway is not None:
            gateway.stop()
        if cores is not None:
            cores.release()


def _alive(pid: int) -> bool:
    """True when ``pid`` still exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"
