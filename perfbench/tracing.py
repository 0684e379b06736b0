"""Layer attribution from outside the program.

Nothing here edits ``src/``: both tools patch class attributes of the
simulator's public entry points for the length of a ``with`` block and
put the originals back on exit.  Install them *before* the cluster is
built, so components that cache bound methods pick up the wrappers.

* :class:`Ledger` wraps the scheduling calls of
  :class:`repro.sim.engine.Simulator` (``call_at``, ``call_later``,
  ``call_soon``, ``schedule_batch``) and charges each scheduled
  callback to the layer of the code that asked for it: the first frame
  outside ``repro.sim`` (and outside this module).  A callback
  scheduled by the engine's own dispatch (a process step or event
  trigger reached straight from the run loop) is charged to ``sim``.
  The counts are exact and repeat for a seed.  The frame walk costs
  host time (15-100 % more), so the ledger runs in a pass of its own.
* :class:`SpanTracer` records a span around every call of the wrapped
  entry points (see :data:`ENTRY_POINTS`); generator APIs get one span
  per resumption.  Every callback the simulator dispatches also runs
  in a span of the layer its code belongs to.  Spans are kept in
  memory, written out by :meth:`SpanTracer.write`, and summed into
  self time per layer: a span's duration less the part its child spans
  cover.  Host time under no span at all (the event loop itself) is
  charged to ``sim``.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Wrapped entry points: ``(module, class, method, layer, kind)``.
#: ``kind`` is ``call`` for plain methods, ``gen`` for simulation
#: generators (one span per resumption) and ``proc`` for methods that
#: return a :class:`~repro.sim.engine.Process` (the process body gets
#: one span per resumption as well).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.fabric.network", "Fabric", "send", "fabric", "call"),
    ("repro.mem.system", "ChipMemorySystem", "read_block", "mem", "call"),
    ("repro.mem.system", "ChipMemorySystem", "write_block", "mem", "call"),
    ("repro.noc.mesh", "Mesh", "latency_ns", "noc", "call"),
    ("repro.core.r2p2", "R2P2Engine", "handle_packet", "core", "call"),
    ("repro.sonuma.node", "SoNode", "sabre_read", "sonuma", "call"),
    ("repro.sonuma.node", "SoNode", "remote_write", "sonuma", "call"),
    ("repro.sonuma.node", "SoNode", "remote_cas", "sonuma", "call"),
    ("repro.sonuma.rpc", "RpcEndpoint", "call", "sonuma", "call"),
    ("repro.objstore.sharded", "ReaderSession", "lookup", "objstore", "gen"),
    ("repro.objstore.sharded", "ShardedKV", "put", "objstore", "proc"),
    ("repro.objstore.txn", "TxnSession", "run", "objstore", "gen"),
    ("repro.serve.bridge", "SimBridge", "submit", "serve", "call"),
    ("repro.serve.bridge", "SimBridge", "run_pending", "serve", "call"),
)

#: Layers reported, in order.  ``sim`` also takes unattributed time.
LAYERS = (
    "sim", "fabric", "noc", "mem", "core", "sonuma", "objstore", "workloads", "serve", "bench",
)

SCHEDULING_CALLS = ("call_at", "call_later", "call_soon", "schedule_batch")


def layer_of_module(name: str) -> str:
    """``repro.core.r2p2`` -> ``core``; code outside the package (the
    benchmark's own client loops) -> ``bench``."""
    parts = name.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "bench"


class _Patches:
    """Class-attribute patches undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def set(self, cls: type, name: str, value) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def undo(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


def _simulator_classes():
    from repro.sim import engine

    classes = [engine.Simulator]
    classes.extend(engine.Simulator.__subclasses__())
    return engine, classes


class Ledger:
    """Events scheduled, by the layer that scheduled them."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._patches = _Patches()

    def __enter__(self) -> "Ledger":
        _engine, classes = _simulator_classes()
        run_codes = {cls.__dict__["run"].__code__ for cls in classes if "run" in cls.__dict__}
        counts = self.counts
        here = __name__

        def charge(frame, n: int) -> None:
            while frame is not None:
                if frame.f_code in run_codes:
                    counts["sim"] += n
                    return
                name = frame.f_globals.get("__name__", "")
                if name.startswith("repro.sim") or name == here:
                    frame = frame.f_back
                    continue
                counts[layer_of_module(name)] += n
                return
            counts["sim"] += n

        def wrap(original, batch: bool):
            if batch:
                def scheduled(self, entries):
                    charge(sys._getframe(1), len(entries))
                    return original(self, entries)
            else:
                def scheduled(self, *args):
                    charge(sys._getframe(1), 1)
                    return original(self, *args)
            return scheduled

        for cls in classes:
            for name in SCHEDULING_CALLS:
                if name in cls.__dict__:
                    self._patches.set(
                        cls, name, wrap(cls.__dict__[name], name == "schedule_batch")
                    )
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class SpanTracer:
    """Spans around the entry points, with self time per layer.

    With ``callbacks`` on, every callback the simulator dispatches also
    runs inside a span charged to the layer of the callback's own code
    (a process step to the layer of the generator it resumes), so work
    done in scheduled continuations is charged where it belongs rather
    than to the event loop.  ``clock`` returns nanoseconds.
    """

    def __init__(
        self,
        layers: Optional[Tuple[str, ...]] = None,
        callbacks: bool = True,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        #: Wrap only the entry points of these layers (default: all).
        self.layers = layers
        self.callbacks = callbacks
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        #: Summed span duration per span name (children included).
        self.total_ns: Counter = Counter()
        self._stack: List[List[int]] = []  # [span index, start, child ns]
        self._patches = _Patches()
        self._pending_proc: Optional[Tuple[int, str, str]] = None
        self._code_layers: Dict[object, str] = {}

    # -- span bookkeeping -------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> None:
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        start = self._clock()
        stack.append([len(self.span_name) - 1, start, 0])

    def _close(self, name: str, layer: str) -> None:
        end = self._clock()
        index, start, child = self._stack.pop()
        dur = end - start
        self.span_start[index] = start
        self.span_end[index] = end
        self.self_ns[layer] += dur - child
        self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _spanned(self, fn, name: str, layer: str, count: bool):
        """``fn`` run inside a span."""
        tracer = self
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if count:
                tracer.calls[name] += 1
            tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, layer)

        return traced

    # -- entry points -----------------------------------------------------
    def _traced_gen(self, gen, name_id: int, name: str, layer: str):
        """Proxy a simulation generator, one span per resumption."""
        value = None
        error: Optional[BaseException] = None
        while True:
            self._open(name_id)
            try:
                if error is not None:
                    target = gen.throw(error)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(name, layer)
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value = None
                error = exc

    def _wrap_call(self, original, name: str, layer: str):
        return self._spanned(original, name, layer, count=True)

    def _wrap_gen(self, original, name: str, layer: str):
        tracer = self
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer._traced_gen(original(*args, **kwargs), name_id, name, layer)

        return traced

    def _wrap_proc(self, original, name: str, layer: str):
        tracer = self
        spanned = self._spanned(original, name, layer, count=True)
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            tracer._pending_proc = (name_id, name, layer)
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer._pending_proc = None

        return traced

    def _wrap_process_factory(self, original):
        tracer = self

        def process(sim, gen):
            pending = tracer._pending_proc
            if pending is not None:
                tracer._pending_proc = None
                gen = tracer._traced_gen(gen, *pending)
            return original(sim, gen)

        return process

    # -- dispatched callbacks ---------------------------------------------
    @staticmethod
    def _layer(module: str) -> str:
        """Layer of a module; this module's own wrappers are plumbing of
        the event loop, so they count as ``sim``."""
        return "sim" if module == __name__ else layer_of_module(module)

    def _callback(self, fn):
        layer = self._layer(getattr(fn, "__module__", None) or "")
        return self._spanned(fn, f"cb.{layer}", layer, count=False)

    def _wrap_step(self, original):
        """``Process._step``, charged to the generator's own layer."""
        tracer = self
        layers = self._code_layers

        def step(proc, value, exc):
            code = proc._gen.gi_code
            layer = layers.get(code)
            if layer is None:
                frame = proc._gen.gi_frame
                module = frame.f_globals.get("__name__", "") if frame is not None else ""
                layer = layers[code] = tracer._layer(module)
            name = f"proc.{layer}"
            tracer._open(tracer._name_id(name))
            try:
                return original(proc, value, exc)
            finally:
                tracer._close(name, layer)

        return step

    def _wrap_scheduling(self, cls) -> None:
        wrap = self._callback
        d = cls.__dict__
        if "call_at" in d:
            call_at = d["call_at"]
            self._patches.set(cls, "call_at", lambda sim, when, fn, *args: call_at(sim, when, wrap(fn), *args))
        if "call_later" in d:
            call_later = d["call_later"]
            self._patches.set(cls, "call_later", lambda sim, delay, fn, *args: call_later(sim, delay, wrap(fn), *args))
        if "call_soon" in d:
            call_soon = d["call_soon"]
            self._patches.set(cls, "call_soon", lambda sim, fn, *args: call_soon(sim, wrap(fn), *args))
        if "schedule_batch" in d:
            batch = d["schedule_batch"]
            self._patches.set(
                cls, "schedule_batch",
                lambda sim, entries: batch(sim, [(when, wrap(fn), args) for when, fn, args in entries]),
            )

    def __enter__(self) -> "SpanTracer":
        wrappers = {"call": self._wrap_call, "gen": self._wrap_gen, "proc": self._wrap_proc}
        for module, cls_name, method, layer, kind in ENTRY_POINTS:
            if self.layers is not None and layer not in self.layers:
                continue
            cls = getattr(importlib.import_module(module), cls_name)
            name = f"{layer}.{method}"
            self._patches.set(cls, method, wrappers[kind](cls.__dict__[method], name, layer))
        engine, classes = _simulator_classes()
        for cls in classes:
            if "process" in cls.__dict__:
                self._patches.set(cls, "process", self._wrap_process_factory(cls.__dict__["process"]))
            if self.callbacks:
                self._wrap_scheduling(cls)
        if self.callbacks:
            self._patches.set(engine.Process, "_step", self._wrap_step(engine.Process.__dict__["_step"]))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def reset(self) -> None:
        """Forget everything recorded so far (call between spans)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for buf in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del buf[:]
        self.calls.clear()
        self.self_ns.clear()
        self.total_ns.clear()

    # -- results ----------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def self_shares(self, total_ns: float) -> Dict[str, float]:
        """Self time per layer over ``total_ns`` of host time; time no
        span covers (the event loop itself) is charged to ``sim``."""
        uncovered = max(total_ns - sum(self.self_ns.values()), 0.0)
        shares = {layer: self.self_ns.get(layer, 0) / total_ns for layer in LAYERS}
        shares["sim"] = (self.self_ns.get("sim", 0) + uncovered) / total_ns
        return shares

    def write(self, path: str) -> None:
        """All spans as gzip'd TSV: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.span_start[i]}\t{self.span_end[i]}\n"
                )
