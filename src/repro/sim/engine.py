"""Event loop, events, and generator-based processes.

The loop's queue and run loop are compiled: :class:`Simulator`
subclasses the ``Core`` type of ``_kernel.c`` (built on first import by
:mod:`repro.sim.kernel`), a binary heap of pending callbacks keyed by
``(when, seq)``.  Events, timeouts, processes and barriers stay in
Python on top of its scheduling calls.

Dispatch is strictly in ``(time, sequence)`` order, so the same seeds
produce the same event order and byte-identical sweep artifacts; the
committed digests in ``tests/golden/artifact_digests.json`` (checked by
``tests/test_golden.py``) pin that order across changes.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import SimulationError
from repro.sim.kernel import load as _load_kernel

_Core = _load_kernel().Core


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    ``triggered`` means the outcome (value) has been decided and
    dispatch is scheduled; ``dispatched`` means callbacks have run.
    Callbacks added before dispatch are queued; callbacks added after
    dispatch run on the next loop iteration.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_triggered", "_dispatched")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # None (no subscribers), a single callable (the overwhelmingly
        # common case: one waiter per event), or a list of callables.
        self._callbacks: Any = None
        self._value: Any = None
        self._triggered = False
        self._dispatched = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._dispatched:
            # Late subscribers run immediately (still inside the loop).
            self.sim.call_later(0.0, lambda: fn(self))
            return
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = fn
        elif type(cbs) is list:
            cbs.append(fn)
        else:
            self._callbacks = [cbs, fn]

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger this event ``delay`` ns from now (default: now)."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        if delay == 0.0:
            self.sim.call_soon(self._dispatch)
        else:
            self.sim.call_later(delay, self._dispatch)
        return self

    def _dispatch(self) -> None:
        self._dispatched = True
        cbs = self._callbacks
        self._callbacks = None
        if cbs is None:
            return
        if type(cbs) is list:
            for fn in cbs:
                fn(self)
        else:
            cbs(self)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Fields set directly (not via Event.__init__): timeouts are
        # the most-allocated event type on the hot path.
        self.sim = sim
        self._callbacks = None
        self._value = value
        self._triggered = True
        self._dispatched = False
        sim.call_later(delay, self._dispatch)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Drives a generator; itself an event that triggers on return."""

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]):
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        sim.call_later(0.0, self._step, None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
        self.sim.call_later(0.0, self._step, None, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup (e.g. interrupted while waiting)
        self._waiting_on = None
        self._step(event.value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Triggers when all child events have triggered.

    The barrier's value is the list of child event values in *trigger*
    order (the order the children completed, not construction order);
    an empty barrier triggers immediately with ``[]``.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values: list[Any] = []
        if not events:
            self.succeed([])
            return
        for ev in events:
            ev.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        self._values.append(event.value)
        self._pending -= 1
        if self._pending == 0 and not self._triggered:
            self.succeed(self._values)


#: A scheduled callback: ``[when, seq, fn, args]``.  ``fn`` is set to
#: ``None`` on cancellation or when the callback fires; a cancelled
#: entry stays in the heap until it reaches the top or a compaction
#: drops it.
ScheduledCall = list

#: When set to a list, every new :class:`Simulator` appends itself here.
#: The perf-benchmark harness (:mod:`repro.perf.bench`) uses this to
#: aggregate event counts across all simulators a scenario builds; it is
#: ``None`` (one pointer check per Simulator construction) otherwise.
TRACKED_SIMULATORS: Optional[list] = None


class Simulator(_Core):
    """The event loop.  Time is in nanoseconds.

    The clock, the counters and the pending callbacks live in the
    compiled core (``_kernel.c``): a binary heap of ``[when, seq, fn,
    args]`` handles keyed by ``(when, seq)``.  Its API:

    * ``call_at(when, fn, *args)``, ``call_later(delay, fn, *args)``,
      ``call_soon(fn, *args)`` and ``schedule_batch([(when, fn, args),
      ...])`` schedule callbacks and return their handles.  An absolute
      time is normalized as ``now + (when - now)``, so every entry point
      produces bit-identical times; a batch is exactly one ``call_at``
      per entry, in order.  A past time, a negative delay or a NaN time
      raises :class:`SimulationError` (``inf`` is legal); a batch that
      fails part-way keeps the entries before the bad one.
    * ``cancel_call(handle)`` tombstones a handle (a no-op once it ran
      or was cancelled).  Once at least 64 pending entries are
      cancelled and they make up at least half of the heap, the heap is
      compacted, so soaks that schedule and cancel (RPC watchdogs,
      lease timers) stay bounded.
    * ``now`` (also ``_now``, read by hot paths), ``peek()``,
      ``heap_size``, ``live_calls``, ``events_scheduled``,
      ``events_fired``, ``events_cancelled`` and ``compactions``.

    The four scheduling entries are bound in this class's own
    namespace and :meth:`run` is a Python function: tracers patch the
    former as class attributes and recognise callbacks dispatched
    straight from the run loop by the latter's frame.
    """

    __slots__ = ()

    call_at = _Core.call_at
    call_later = _Core.call_later
    call_soon = _Core.call_soon
    schedule_batch = _Core.schedule_batch

    def __init__(self) -> None:
        if TRACKED_SIMULATORS is not None:
            TRACKED_SIMULATORS.append(self)

    # -- event / process factories ---------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution --------------------------------------------------------
    def run(self, until: float = float("inf")) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        A past ``until`` is a no-op; a drained queue with a finite
        ``until`` leaves the clock at ``until``.  A callback that raises
        propagates out with the clock at its event, counted in
        ``events_fired``, and the simulator can run again.  Running from
        inside a callback raises :class:`SimulationError`.

        Returns the simulation time when the run stopped.
        """
        return self._run(until)
