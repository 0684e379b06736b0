"""The block-stream kernel's scheduling primitive.

Remote transfers unroll, issue and reply whole runs of blocks in one
pass through :meth:`Simulator.schedule_batch`.  These tests pin it to
per-entry ``call_at`` semantics over presorted, interleaved,
out-of-order and equal-time inputs.  End-to-end behaviour of the block path is pinned by
the golden digests (``tests/test_golden.py``).
"""

from repro.sim.engine import SimulationError, Simulator


def _record(order, sim, tag):
    order.append((sim.now, tag))


def _dispatch_order(schedule):
    """Dispatch order of ``schedule(sim, order)`` driven to completion.

    ``schedule`` runs *inside* a callback (the realistic caller: the
    block kernel always schedules from within event dispatch, with
    other entries already pending).
    """
    sim = Simulator()
    order = []
    # Prime the queue: pending entries before, between and after the
    # batch's times.
    for d in (0.0, 10.0, 50.0, 90.0, 5_000.0, 9_000.0):
        sim.call_later(d, _record, order, sim, f"prime@{d}")
    sim.call_later(20.0, schedule, sim, order)
    sim.run()
    return order


def _batch_via_call_at(entries):
    def schedule(sim, order):
        for when, tag in entries:
            sim.call_at(when, _record, order, sim, tag)
    return schedule


def _batch_via_schedule_batch(entries):
    def schedule(sim, order):
        sim.schedule_batch(
            [(when, _record, (order, sim, tag)) for when, tag in entries]
        )
    return schedule


def _assert_batch_equivalent(entries):
    """schedule_batch must dispatch exactly like per-entry call_at."""
    a = _dispatch_order(_batch_via_call_at(entries))
    b = _dispatch_order(_batch_via_schedule_batch(entries))
    assert a == b, entries


def test_schedule_batch_presorted_run():
    # The kernel's common case: consecutive block timestamps landing
    # between two pending entries.
    _assert_batch_equivalent([(21.0 + 2.0 * i, f"b{i}") for i in range(8)])


def test_schedule_batch_spans_all_lanes():
    # Zero-delay (when == now at schedule time 20.0), near and far
    # entries in one batch.
    _assert_batch_equivalent(
        [(20.0, "imm"), (25.0, "near1"), (30.0, "near2"), (8_000.0, "far")]
    )


def test_schedule_batch_run_leaves_the_gap():
    # A run that starts between two existing entries (prime@50, prime@90)
    # and then crosses past the upper one.
    _assert_batch_equivalent(
        [(60.0, "in-gap1"), (65.0, "in-gap2"), (95.0, "past-gap")]
    )


def test_schedule_batch_out_of_order_input():
    # Not presorted: the batch must still dispatch like per-entry
    # call_at.
    _assert_batch_equivalent(
        [(40.0, "x"), (22.0, "y"), (70.0, "z"), (22.0, "y2"), (41.0, "w")]
    )


def test_schedule_batch_equal_times_fifo():
    # Equal timestamps dispatch in submission (seq) order.
    _assert_batch_equivalent([(33.0, f"t{i}") for i in range(6)])


def test_schedule_batch_past_time_raises_and_preserves_state():
    sim = Simulator()
    order = []
    boom = []

    def schedule(sim, order):
        try:
            sim.schedule_batch(
                [
                    (25.0, _record, (order, sim, "ok")),
                    (1.0, _record, (order, sim, "past")),
                ]
            )
        except SimulationError as exc:
            boom.append(str(exc))

    for d in (10.0, 50.0):
        sim.call_later(d, _record, order, sim, f"prime@{d}")
    sim.call_later(20.0, schedule, sim, order)
    sim.run()
    assert boom and "past" in boom[0]
    # The pre-raise entry was injected and fires; the queue stays
    # consistent.
    assert (25.0, "ok") in order
    assert [tag for _, tag in order].count("prime@50.0") == 1


def test_schedule_batch_returns_cancellable_handles():
    sim = Simulator()
    order = []

    def schedule(sim, order):
        handles = sim.schedule_batch(
            [
                (25.0, _record, (order, sim, "keep")),
                (26.0, _record, (order, sim, "drop")),
                (27.0, _record, (order, sim, "keep2")),
            ]
        )
        sim.cancel_call(handles[1])

    sim.call_later(20.0, schedule, sim, order)
    sim.run()
    assert [tag for _, tag in order] == ["keep", "keep2"]
    assert sim.events_cancelled == 1
