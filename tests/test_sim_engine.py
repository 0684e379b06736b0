"""Unit tests for the discrete-event kernel."""

import gc
import os
import shutil
import sys
import types
import weakref

import pytest

from repro.common.errors import SimulationError
from repro.sim import kernel
from repro.sim.engine import Interrupt, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_later_ordering():
    sim = Simulator()
    order = []
    sim.call_later(5.0, lambda: order.append("b"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(9.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_fifo_among_equal_times():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_later(3.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_cannot_schedule_in_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.call_later(10.0, lambda: fired.append(1))
    stopped = sim.run(until=5.0)
    assert stopped == 5.0
    assert fired == []
    sim.run()
    assert fired == [1]


def test_timeout_process():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(4.0)
        seen.append(sim.now)
        yield sim.timeout(6.0)
        seen.append(sim.now)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert seen == [4.0, 10.0]
    assert p.triggered
    assert p.value == "done"


def test_process_waits_on_event():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def opener():
        yield sim.timeout(7.0)
        gate.succeed("opened")

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    sim.process(opener())
    sim.process(waiter())
    sim.run()
    assert seen == [(7.0, "opened")]


def test_event_double_succeed_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_late_callback_on_triggered_event_still_fires():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    seen = []
    sim.run()
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [42]


def test_process_waiting_on_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(3.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(3.0, "child-result")]


def test_all_of_barrier():
    sim = Simulator()
    log = []

    def waiter():
        yield sim.all_of([sim.timeout(2.0), sim.timeout(8.0), sim.timeout(5.0)])
        log.append(sim.now)

    sim.process(waiter())
    sim.run()
    assert log == [8.0]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    log = []

    def waiter():
        value = yield sim.all_of([])
        log.append((sim.now, value))

    sim.process(waiter())
    sim.run()
    assert log == [(0.0, [])]


def test_all_of_value_collects_children_in_trigger_order():
    """Regression: a non-empty AllOf used to succeed with ``None``
    while an empty one succeeded with ``[]``.  The barrier's value is
    now always a list — the child values in completion order."""
    sim = Simulator()
    log = []

    def waiter():
        value = yield sim.all_of(
            [
                sim.timeout(6.0, "slow"),
                sim.timeout(1.0, "fast"),
                sim.timeout(3.0, "mid"),
            ]
        )
        log.append((sim.now, value))

    sim.process(waiter())
    sim.run()
    assert log == [(6.0, ["fast", "mid", "slow"])]


def test_all_of_includes_already_triggered_children():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    log = []

    def waiter():
        value = yield sim.all_of([ev, sim.timeout(2.0, "late")])
        log.append(value)

    sim.process(waiter())
    sim.run()
    assert log == [["early", "late"]]


def test_interrupt_breaks_wait():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    p = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(4.0)
        p.interrupt("wake-up")

    sim.process(interrupter())
    sim.run()
    assert log == [("interrupted", 4.0, "wake-up")]


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-0.5)


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.call_later(3.5, lambda: None)
    assert sim.peek() == 3.5


# ----------------------------------------------------------------------
# scheduled-call cancellation and heap compaction
# ----------------------------------------------------------------------


def test_cancelled_call_never_runs():
    sim = Simulator()
    fired = []
    handle = sim.call_later(5.0, lambda: fired.append("a"))
    sim.call_later(6.0, lambda: fired.append("b"))
    sim.cancel_call(handle)
    sim.run()
    assert fired == ["b"]
    assert sim.now == 6.0


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]
    sim.cancel_call(handle)  # already ran: no-op
    sim.cancel_call(handle)
    assert sim.live_calls == 0


def test_peek_skips_cancelled_entries():
    sim = Simulator()
    early = sim.call_later(1.0, lambda: None)
    sim.call_later(9.0, lambda: None)
    sim.cancel_call(early)
    assert sim.peek() == 9.0


def test_fifo_order_survives_interleaved_cancels():
    sim = Simulator()
    order = []
    handles = [
        sim.call_later(3.0, lambda i=i: order.append(i)) for i in range(6)
    ]
    for i in (1, 4):
        sim.cancel_call(handles[i])
    sim.run()
    assert order == [0, 2, 3, 5]


def test_mass_cancellation_compacts_heap():
    """The failover soak pattern: schedule far-future watchdogs, cancel
    nearly all of them.  Lazy deletion alone would hold every dead
    entry until its deadline; compaction keeps the heap at the size of
    the live work."""
    sim = Simulator()
    handles = [sim.call_later(1e6 + i, lambda: None) for i in range(5000)]
    for handle in handles[:4900]:
        sim.cancel_call(handle)
    assert sim.compactions >= 1
    assert sim.heap_size < 1000  # ~100 live + bounded cancelled residue
    assert sim.live_calls == 100
    sim.run()
    assert sim.heap_size == 0


def test_compaction_during_run_is_safe():
    """Cancelling (and thereby compacting) from inside a callback must
    not confuse the run loop's view of the heap."""
    sim = Simulator()
    fired = []
    victims = [sim.call_later(50.0 + i, lambda: fired.append("dead"))
               for i in range(200)]

    def killer():
        for handle in victims:
            sim.cancel_call(handle)
        fired.append("killed")

    sim.call_later(1.0, killer)
    sim.call_later(100.0, lambda: fired.append("tail"))
    sim.run()
    assert fired == ["killed", "tail"]
    assert sim.now == 100.0


# ----------------------------------------------------------------------
# self-cancellation during fire (regression: must be a clean no-op on
# both schedulers, not a double-compaction accounting bug)
# ----------------------------------------------------------------------


class TestSelfCancelDuringFire:
    def test_handle_cancelled_inside_its_own_callback(self, sim):
        """A callback cancelling its *own* handle mid-fire must not
        skew the cancelled count: the entry was already consumed, so
        the cancel is a no-op and later live entries still run."""
        fired = []
        handles = {}

        def selfish():
            sim.cancel_call(handles["me"])  # already consumed: no-op
            sim.cancel_call(handles["me"])  # idempotent too
            fired.append("selfish")

        handles["me"] = sim.call_later(1.0, selfish)
        sim.call_later(2.0, lambda: fired.append("tail"))
        sim.run()
        assert fired == ["selfish", "tail"]
        assert sim.live_calls == 0
        assert sim.heap_size == 0

    def test_self_cancel_does_not_poison_compaction_accounting(self, sim):
        """The accounting bug this pins down: if a self-cancel were
        counted, ``_cancelled`` would exceed the real dead-entry count
        and a later compaction would drive it negative — visible as
        ``live_calls`` over-reporting.  Mass-cancel after a burst of
        self-cancels and check every invariant."""
        fired = []
        handles = []

        def selfish(i):
            sim.cancel_call(handles[i])
            fired.append(i)

        for i in range(50):
            handles.append(sim.call_later(1.0 + i, lambda i=i: selfish(i)))
        victims = [sim.call_later(1e6 + i, lambda: fired.append("dead"))
                   for i in range(200)]
        sim.run(until=500.0)
        assert fired == list(range(50))
        for v in victims:
            sim.cancel_call(v)
        assert sim.live_calls == 0
        sim.run()
        assert fired == list(range(50))
        assert sim.heap_size == 0
        assert sim.live_calls == 0

    def test_cancel_sibling_scheduled_at_same_time(self, sim):
        """Cancelling a same-timestamp later sibling from inside a
        firing callback must suppress it on both schedulers."""
        fired = []
        sibling = {}

        def first():
            fired.append("first")
            sim.cancel_call(sibling["h"])

        sim.call_later(3.0, first)
        sibling["h"] = sim.call_later(3.0, lambda: fired.append("second"))
        sim.call_later(3.0, lambda: fired.append("third"))
        sim.run()
        assert fired == ["first", "third"]
        assert sim.heap_size == 0

    def test_reschedule_self_from_callback(self, sim):
        """A callback rescheduling itself gets a fresh handle; the
        consumed one stays dead."""
        fired = []
        state = {}

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                state["h"] = sim.call_later(5.0, tick)
                sim.cancel_call(state["h"])  # cancel the *new* one...
                state["h"] = sim.call_later(10.0, tick)  # ...keep this

        state["h"] = sim.call_later(10.0, tick)
        sim.run()
        assert fired == [10.0, 20.0, 30.0]
        assert sim.heap_size == 0


# ----------------------------------------------------------------------
# review regressions: past `until`, infinite delays
# ----------------------------------------------------------------------


def test_run_until_past_time_is_a_noop(sim):
    """``run(until)`` with ``until`` before ``now`` must not move the
    clock backwards."""
    fired = []
    sim.call_later(20.0, lambda: fired.append("a"))
    sim.run()
    assert sim.now == 20.0
    assert sim.run(until=5.0) == 20.0  # no-op, clock untouched
    assert sim.now == 20.0
    sim.call_later(0.0, lambda: fired.append("b"))
    sim.call_later(1.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 21.0


def test_infinite_delay_fires_and_run_terminates(sim):
    """A ``float('inf')`` deadline must fire (at t=inf) and the run
    must then terminate."""
    fired = []
    sim.call_later(float("inf"), lambda: fired.append("end-of-time"))
    sim.call_later(3.0, lambda: fired.append("soon"))
    sim.run()
    assert fired == ["soon", "end-of-time"]
    assert sim.heap_size == 0


# ----------------------------------------------------------------------
# NaN times are rejected at every scheduling entry point
# ----------------------------------------------------------------------


NAN = float("nan")


def test_call_at_rejects_nan(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.call_at(NAN, lambda: None)
    assert sim.events_scheduled == 0
    assert sim.heap_size == 0


def test_call_later_rejects_nan(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.call_later(NAN, lambda: None)
    assert sim.events_scheduled == 0
    assert sim.heap_size == 0


def test_infinite_times_stay_legal(sim):
    fired = []
    sim.call_at(float("inf"), lambda: fired.append("at"))
    sim.schedule_batch([(float("inf"), fired.append, ("batch",))])
    sim.run()
    assert fired == ["at", "batch"]
    # At t=inf every entry point still schedules (at inf).
    sim.call_at(float("inf"), fired.append, "again")
    sim.call_later(1.0, fired.append, "later")
    sim.run()
    assert fired == ["at", "batch", "again", "later"]


def test_schedule_batch_rejects_nan_and_keeps_the_prefix(sim):
    """A batch is one call_at per entry, in order: the entries before a
    NaN one stay scheduled with consecutive sequence numbers, the rest
    never are."""
    fired = []
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule_batch(
            [
                (2.0, fired.append, ("a",)),
                (1.0, fired.append, ("b",)),
                (NAN, fired.append, ("nan",)),
                (3.0, fired.append, ("after",)),
            ]
        )
    assert sim.events_scheduled == 2
    assert sim.heap_size == sim.live_calls == 2
    handle = sim.call_later(0.5, fired.append, "next")
    assert handle[1] == 3
    sim.run()
    assert fired == ["next", "b", "a"]


# ----------------------------------------------------------------------
# the compiled core: GC, errors inside callbacks, the tracer contract
# ----------------------------------------------------------------------


def test_dropped_simulator_with_pending_cycles_is_collected():
    """Pending handles that reference their simulator (bound methods,
    events) form reference cycles; the core takes part in cyclic GC,
    so dropping the simulator frees it."""
    freed = []
    for _ in range(50):
        sim = Simulator()
        sim.call_later(5.0, sim.call_soon, lambda: None)
        sim.timeout(10.0)
        weakref.finalize(sim, freed.append, 1)
        del sim
    gc.collect()
    assert len(freed) == 50


def test_raising_callback_leaves_simulator_consistent(sim):
    fired = []

    def boom():
        raise ValueError("boom")

    sim.call_later(1.0, fired.append, "before")
    sim.call_later(2.0, boom)
    sim.call_later(3.0, fired.append, "after")
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert sim.now == 2.0
    assert sim.events_fired == 2
    assert sim.live_calls == 1
    assert sim.run() == 3.0
    assert fired == ["before", "after"]
    assert sim.events_fired == 3


def test_nested_run_raises(sim):
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(str(exc))

    sim.call_later(1.0, nested)
    sim.call_later(2.0, lambda: None)
    assert sim.run() == 2.0
    assert errors == ["simulator is already running"]


def test_scheduling_entries_live_in_the_simulator_class():
    """Tracers patch the four scheduling calls as class attributes of
    ``Simulator`` and recognise callbacks dispatched straight from the
    loop by the frame of its Python ``run``."""
    for name in ("call_at", "call_later", "call_soon", "schedule_batch"):
        assert name in Simulator.__dict__
    run = Simulator.__dict__["run"]
    assert isinstance(run, types.FunctionType)
    sim = Simulator()
    parents = []
    sim.call_soon(lambda: parents.append(sys._getframe(1).f_code))
    sim.run()
    assert parents == [run.__code__]


def test_loader_never_loads_a_build_of_other_source(tmp_path, monkeypatch):
    """Builds are keyed by the source's sha256: with a build of the
    current source in the cache, an edited source gets its own build."""
    # Loading registers the module under its import name; restore ours.
    monkeypatch.setitem(sys.modules, kernel.MODULE_NAME, sys.modules[kernel.MODULE_NAME])
    with open(kernel.SOURCE, "rb") as fh:
        source = fh.read()
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / kernel.build_name(source)
    shutil.copy(kernel.build(), stale)
    edited = tmp_path / "_kernel.c"
    edited.write_bytes(source + b"\n/* edited */\n")
    module = kernel.load(str(edited), str(cache))
    expected = cache / kernel.build_name(edited.read_bytes())
    assert expected != stale
    assert os.path.samefile(module.__file__, expected)
    assert sorted(p.name for p in cache.iterdir()) == sorted([stale.name, expected.name])
    core = module.Core()
    core.call_later(1.0, lambda: None)
    assert core._run(float("inf")) == 1.0


def test_missing_compiler_is_an_import_error(tmp_path, monkeypatch):
    monkeypatch.setattr(
        kernel, "compile_command", lambda src, out: [str(tmp_path / "no-cc"), src]
    )
    edited = tmp_path / "_kernel.c"
    edited.write_bytes(b"/* never built */\n")
    with pytest.raises(ImportError, match="C compiler"):
        kernel.load(str(edited), str(tmp_path / "cache"))
    assert list((tmp_path / "cache").iterdir()) == []
