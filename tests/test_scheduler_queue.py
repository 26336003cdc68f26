"""Edge-case tests for the dynamic micro-batching request queue.

Covers the scheduler behaviours the serving tests exercise only implicitly:
oversized single requests, a zero latency budget (immediate dispatch),
interleaved multi-model fairness, work-conserving dispatch (an idle engine
key never waits; the co-batching budget, the full ``max_delay_s`` at any
fill, holds only behind a batch in flight on a key with spare width), and
the capacity-aware pick (busy models skipped, a release waking a blocked
worker) -- plus property-based randomized streams (hypothesis) pinning the
dispatch invariants: nothing lost or duplicated, per-model FIFO preserved,
in-flight batches within capacity, nothing left waiting on an idle key,
priority-then-EDF ordering, and the starvation aging bound.  The
ordering properties are stated once on :func:`most_urgent`, the urgency
order the queue ranks with.
"""

import math
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.serve import scheduler
from repro.serve.scheduler import (
    BatchingPolicy,
    InferenceFuture,
    InferenceRequest,
    RequestQueue,
    most_urgent,
)


def anywhere(name, samples, deadline_s):
    """Placement with no capacity limit: every batch runs on its own name."""
    return name, None


def pop(queue, policy):
    """The next batch's requests (``None`` once closed and drained)."""
    batch = queue.next_batch(policy, anywhere)
    return None if batch is None else batch.requests


def except_busy(busy):
    """Placement that refuses the models in ``busy`` (at capacity)."""
    return lambda name, samples, deadline_s: None if name in busy else (name, None)


def width(dispatch_width, queue, key_of=lambda name: name):
    """Placement on ``key_of(name)``, admitting up to ``dispatch_width``
    batches in flight per key (a replica pool's width)."""

    def place(name, samples, deadline_s):
        key = key_of(name)
        if queue.in_flight_batches(key) >= dispatch_width:
            return None
        return key, None

    return place


def hold_in_flight(queue, policy, place, name):
    """Pop one single-request batch of ``name`` and leave it in flight."""
    queue.submit(make_request(name))
    batch = queue.next_batch(policy, place)
    assert batch.requests[0].model_name == name
    return batch


def make_request(
    name: str,
    samples: int = 1,
    enqueued_at: float | None = None,
    priority: int = 0,
    deadline_s: float | None = None,
):
    return InferenceRequest(
        model_name=name,
        inputs=np.zeros((samples, 3)),
        future=InferenceFuture(),
        enqueued_at=time.monotonic() if enqueued_at is None else enqueued_at,
        priority=priority,
        deadline_s=deadline_s,
    )


class TestBatchingPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError, match="max_delay_s"):
            BatchingPolicy(max_delay_s=-0.1)
        with pytest.raises(ValueError, match="starvation_limit_s"):
            BatchingPolicy(starvation_limit_s=0.0)

    def test_delay_budget_constant_as_batch_fills(self):
        # The budget does not shrink as a batch fills: below a full batch, a
        # fresh head request on a width-2 key already running one batch may
        # wait exactly ``max_delay_s``.
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=0.4)
        now = 100.0
        for queued in (1, 4, 7):
            queue = RequestQueue()
            place = width(2, queue)
            hold_in_flight(queue, policy, place, "m")
            queue.submit(make_request("m", samples=queued, enqueued_at=now))
            assert queue._pick(policy, place, now) == (None, None, 0.4)


class TestRequestQueueEdgeCases:
    def test_oversized_single_request_forms_its_own_batch(self):
        queue = RequestQueue()
        queue.submit(make_request("m", samples=50))
        queue.submit(make_request("m", samples=2))
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        queue.close()
        batch = pop(queue, policy)
        assert len(batch) == 1
        assert batch[0].n_samples == 50  # runs alone, never splits
        follow_up = pop(queue, policy)
        assert [r.n_samples for r in follow_up] == [2]

    def test_oversized_request_never_coalesces_a_second_request(self):
        queue = RequestQueue()
        queue.submit(make_request("m", samples=8))
        queue.submit(make_request("m", samples=1))
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        queue.close()
        # The first request exactly fills the batch: the 1-sample request
        # must wait for the next batch rather than overflow this one.
        assert [r.n_samples for r in pop(queue, policy)] == [8]
        assert [r.n_samples for r in pop(queue, policy)] == [1]

    def test_zero_delay_dispatches_immediately(self):
        queue = RequestQueue()
        queue.submit(make_request("m"))
        policy = BatchingPolicy(max_batch_size=64, max_delay_s=0.0)
        start = time.monotonic()
        batch = pop(queue, policy)  # queue still open, batch not full
        elapsed = time.monotonic() - start
        assert len(batch) == 1
        assert elapsed < 1.0  # no waiting on the (zero) latency budget

    def test_interleaved_multi_model_fairness(self):
        queue = RequestQueue()
        base = time.monotonic()
        # Interleaved arrivals: a0 b0 a1 b1 a2 b2 ...
        for i in range(3):
            queue.submit(make_request("a", enqueued_at=base + 2 * i))
            queue.submit(make_request("b", enqueued_at=base + 2 * i + 1))
        queue.close()
        policy = BatchingPolicy(max_batch_size=64, max_delay_s=10.0)
        first = pop(queue, policy)
        second = pop(queue, policy)
        assert pop(queue, policy) is None
        # Oldest head first (a), whole per-model queue coalesces, then b --
        # a steady stream on one model cannot starve the other.
        assert [r.model_name for r in first] == ["a", "a", "a"]
        assert [r.model_name for r in second] == ["b", "b", "b"]

    def test_continuous_stream_does_not_starve_other_model(self):
        queue = RequestQueue()
        base = time.monotonic()
        queue.submit(make_request("quiet", enqueued_at=base))
        for i in range(10):
            queue.submit(make_request("busy", enqueued_at=base + 0.001 * (i + 1)))
        queue.close()
        policy = BatchingPolicy(max_batch_size=4, max_delay_s=10.0)
        assert pop(queue, policy)[0].model_name == "quiet"

    def test_submit_after_close_raises(self):
        queue = RequestQueue()
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(make_request("m"))
        policy = BatchingPolicy()
        assert pop(queue, policy) is None


class TestCapacityAwarePick:
    """``next_batch`` only pops models its placement function accepts."""

    @pytest.mark.parametrize("priority", [0, 3])  # FIFO path, SLO path
    def test_busy_model_does_not_block_a_ready_one(self, priority):
        queue = RequestQueue()
        base = time.monotonic()
        queue.submit(make_request("busy", enqueued_at=base - 1.0, priority=priority))
        queue.submit(make_request("idle", enqueued_at=base))
        policy = BatchingPolicy(max_batch_size=1, max_delay_s=10.0)
        batch = queue.next_batch(policy, except_busy({"busy"}))
        assert [r.model_name for r in batch.requests] == ["idle"]
        assert len(queue) == 1  # the older, busy model's request waits

    def test_in_flight_counts_under_the_placed_key_until_release(self):
        queue = RequestQueue()
        base = time.monotonic()
        queue.submit(make_request("fleet", samples=2, enqueued_at=base - 1.0))
        queue.submit(make_request("other", samples=3, enqueued_at=base))
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=0.0)
        batch = queue.next_batch(policy, lambda name, s, d: ("variant", "route"))
        assert (batch.key, batch.route, batch.samples) == ("variant", "route", 2)
        assert queue.in_flight_batches("variant") == 1
        assert queue.backlog_by_model() == {"other": 3, "variant": 2}
        queue.release(batch)
        queue.release(batch)  # idempotent
        assert queue.in_flight_batches("variant") == 0
        assert queue.backlog_by_model() == {"other": 3}

    def test_release_wakes_a_worker_blocked_on_capacity(self):
        queue = RequestQueue()
        queue.submit(make_request("m"))
        queue.submit(make_request("m"))
        policy = BatchingPolicy(max_batch_size=1, max_delay_s=0.0)

        def one_at_a_time(name, samples, deadline_s):
            return None if queue.in_flight_batches(name) else (name, None)

        first = queue.next_batch(policy, one_at_a_time)
        popped = []
        worker = threading.Thread(
            target=lambda: popped.append(queue.next_batch(policy, one_at_a_time))
        )
        worker.start()
        worker.join(timeout=0.2)
        assert worker.is_alive() and not popped  # "m" is at capacity
        queue.close()  # closed but not empty: the worker keeps waiting
        worker.join(timeout=0.2)
        assert worker.is_alive() and not popped
        queue.release(first)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert len(popped[0].requests) == 1
        queue.release(popped[0])
        assert queue.next_batch(policy, one_at_a_time) is None


    def test_racing_workers_respect_capacity(self):
        """Stress: more workers than cores race on one queue with a short
        switch interval; every request pops exactly once and no model ever
        runs more batches than its capacity."""
        capacities = {"a": 1, "b": 2, "c": 3}
        queue = RequestQueue()
        policy = BatchingPolicy(max_batch_size=3, max_delay_s=0.0005)
        guard = threading.Lock()
        running = dict.fromkeys(capacities, 0)
        peak = dict.fromkeys(capacities, 0)
        popped = []

        def place(name, samples, deadline_s):
            if queue.in_flight_batches(name) >= capacities[name]:
                return None
            return name, None

        def work():
            while (batch := queue.next_batch(policy, place)) is not None:
                with guard:
                    running[batch.key] += 1
                    peak[batch.key] = max(peak[batch.key], running[batch.key])
                    popped.extend(r.request_id for r in batch.requests)
                time.sleep(0)  # let the other workers race for the queue
                with guard:
                    running[batch.key] -= 1
                queue.release(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work) for _ in range(6)]
            for worker in workers:
                worker.start()
            for index in range(300):
                queue.submit(
                    InferenceRequest(
                        model_name="abc"[index % 3],
                        inputs=np.zeros((1, 3)),
                        future=InferenceFuture(),
                        enqueued_at=time.monotonic(),
                        request_id=index,
                    )
                )
            queue.close()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(popped) == list(range(300))
        assert all(peak[model] <= capacities[model] for model in capacities)
        assert queue.backlog_by_model() == {}


class TestStarvationAging:
    """The aging rule: a saturated high-priority stream cannot starve
    best-effort work forever (``BatchingPolicy.starvation_limit_s``).

    A model whose head request has waited longer than the starvation limit
    is promoted into the top pending priority class, where its long-exhausted
    delay budget (the slack of a deadline-free request) undercuts any stream
    of fresh arrivals -- so a deadline-free best-effort request dispatches
    even while a high-priority model stays permanently full.
    """

    def fill_busy(self, queue, base, priority=5, count=8):
        for i in range(count):
            queue.submit(
                make_request(
                    "busy",
                    enqueued_at=base + 0.001 * i,
                    priority=priority,
                    deadline_s=base + 60.0,
                )
            )

    def test_fresh_best_effort_yields_to_priority(self):
        queue = RequestQueue()
        now = time.monotonic()
        queue.submit(make_request("quiet", enqueued_at=now - 0.1))
        self.fill_busy(queue, now)
        policy = BatchingPolicy(
            max_batch_size=4, max_delay_s=0.0, starvation_limit_s=10.0
        )
        # Under the limit, the priority class wins as before.
        assert pop(queue, policy)[0].model_name == "busy"

    def test_starved_best_effort_jumps_priority_classes(self):
        queue = RequestQueue()
        now = time.monotonic()
        queue.submit(make_request("quiet", enqueued_at=now - 1.0))
        self.fill_busy(queue, now)
        policy = BatchingPolicy(
            max_batch_size=4, max_delay_s=0.0, starvation_limit_s=0.5
        )
        # Past the limit, the aging rule promotes the best-effort model.
        assert pop(queue, policy)[0].model_name == "quiet"

    def test_always_full_stream_starves_only_up_to_the_limit(self):
        queue = RequestQueue()
        base = time.monotonic()
        limit = 0.2
        policy = BatchingPolicy(
            max_batch_size=4, max_delay_s=0.0, starvation_limit_s=limit
        )
        queue.submit(make_request("quiet", enqueued_at=base))
        self.fill_busy(queue, base, count=4)
        dispatched = []
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            batch = pop(queue, policy)
            dispatched.append(batch[0].model_name)
            if batch[0].model_name == "quiet":
                break
            # Keep the high-priority model always full, as fast as it drains.
            self.fill_busy(queue, time.monotonic(), count=len(batch))
        waited = time.monotonic() - base
        assert "quiet" in dispatched, "best-effort request starved"
        # The wait is bounded by the starvation limit (plus scheduling time,
        # bounded loosely for slow CI machines).
        assert waited < limit + 3.0


#: One random request: (model, samples, priority, deadline offset or None).
request_specs = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(), st.floats(min_value=0.001, max_value=60.0)),
    ),
    min_size=1,
    max_size=48,
)


#: Engine keys a random placer routes models onto ("variant" as a fleet's).
ENGINE_KEYS = ("a", "b", "c", "variant")


class TestDispatchProperties:
    """Property-based invariants of ``RequestQueue`` over random streams.

    Every test drains a closed queue (drain mode never blocks while some
    model is below capacity), so the randomized schedules stay
    deterministic apart from ``time.monotonic`` drift -- which the
    invariants are chosen to be insensitive to.
    """

    @given(
        stream=request_specs,
        max_batch=st.integers(min_value=1, max_value=12),
        slo_mode=st.booleans(),
        capacities=st.fixed_dictionaries(
            {model: st.integers(min_value=1, max_value=3) for model in "abc"}
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_drain_conserves_requests_and_per_model_fifo(
        self, stream, max_batch, slo_mode, capacities, order
    ):
        """No request lost, duplicated, reordered within its model, or
        batched beyond the size target (oversized singletons excepted).

        Each model gets a random capacity and releases interleave randomly
        with pops: no model ever has more batches in flight than its
        capacity, the backlog is queued plus in-flight samples at every
        step, and it is empty after the last release."""
        queue = RequestQueue(slo_mode=slo_mode)
        base = time.monotonic() - 120.0
        for i, (model, samples, priority, offset) in enumerate(stream):
            queue.submit(
                InferenceRequest(
                    model_name=model,
                    inputs=np.zeros((samples, 3)),
                    future=InferenceFuture(),
                    enqueued_at=base + 1e-6 * i,
                    priority=priority,
                    deadline_s=None if offset is None else base + offset,
                    request_id=i,
                )
            )
        queue.close()
        policy = BatchingPolicy(max_batch_size=max_batch, max_delay_s=0.0)

        def place(name, samples, deadline_s):
            if queue.in_flight_batches(name) >= capacities[name]:
                return None
            return name, None

        queued: dict[str, int] = {}
        for model, samples, _priority, _offset in stream:
            queued[model] = queued.get(model, 0) + samples
        batches, in_flight = [], []
        while True:
            startable = any(
                queued[model] and queue.in_flight_batches(model) < capacities[model]
                for model in queued
            )
            if in_flight and (not startable or order.random() < 0.5):
                queue.release(in_flight.pop(order.randrange(len(in_flight))))
            else:
                batch = queue.next_batch(policy, place)
                if batch is None:
                    break
                assert queue.in_flight_batches(batch.key) <= capacities[batch.key]
                queued[batch.key] -= batch.samples
                in_flight.append(batch)
                batches.append(batch.requests)
            expected = {model: samples for model, samples in queued.items() if samples}
            for batch in in_flight:
                expected[batch.key] = expected.get(batch.key, 0) + batch.samples
            assert queue.backlog_by_model() == expected
        for batch in in_flight:
            queue.release(batch)
        assert queue.backlog_by_model() == {}
        dispatched = [request for batch in batches for request in batch]
        assert sorted(r.request_id for r in dispatched) == list(range(len(stream)))
        per_model: dict[str, list[int]] = {}
        for batch in batches:
            assert len({r.model_name for r in batch}) == 1  # no mixed batches
            assert sum(r.n_samples for r in batch) <= max_batch or len(batch) == 1
            per_model.setdefault(batch[0].model_name, []).extend(
                r.request_id for r in batch
            )
        for ids in per_model.values():
            assert ids == sorted(ids), "per-model FIFO violated"

    @given(
        specs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.5, max_value=120.0),
            ),
            min_size=2,
            max_size=8,
            unique_by=lambda spec: spec[1],
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_priority_classes_then_earliest_deadline(self, specs):
        """One deadline request per model: dispatch order is exactly
        (highest priority class, earliest deadline)."""
        queue = RequestQueue()
        now = time.monotonic()
        for i, (priority, offset) in enumerate(specs):
            queue.submit(
                InferenceRequest(
                    model_name=f"m{i}",
                    inputs=np.zeros((1, 3)),
                    future=InferenceFuture(),
                    enqueued_at=now,
                    priority=priority,
                    deadline_s=now + offset,
                    request_id=i,
                )
            )
        queue.close()
        # A huge starvation limit keeps the aging rule out of this property.
        policy = BatchingPolicy(
            max_batch_size=4, max_delay_s=10.0, starvation_limit_s=1000.0
        )
        order = []
        while (batch := pop(queue, policy)) is not None:
            assert len(batch) == 1  # distinct models never co-batch
            order.append(batch[0].request_id)
        # Rank by the *absolute* deadline the queue actually sees: offsets
        # unique in isolation can collapse to the same float once added to a
        # large monotonic ``now`` (sub-ULP difference), and the queue breaks
        # such ties by submission order -- which the stable sort preserves.
        ranked = sorted(
            enumerate(specs), key=lambda item: (-item[1][0], now + item[1][1])
        )
        assert order == [index for index, _spec in ranked]

    @given(
        busy_priority=st.integers(min_value=1, max_value=5),
        busy_count=st.integers(min_value=1, max_value=10),
        busy_deadline=st.floats(min_value=0.001, max_value=60.0),
        extra_age=st.floats(min_value=0.001, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_starvation_aging_bounds_any_priority_stream(
        self, busy_priority, busy_count, busy_deadline, extra_age
    ):
        """A best-effort head older than the limit beats *every* fresh
        high-priority deadline stream on the next dispatch decision."""
        limit = 0.25
        queue = RequestQueue()
        now = time.monotonic()
        queue.submit(make_request("quiet", enqueued_at=now - limit - extra_age))
        for i in range(busy_count):
            queue.submit(
                make_request(
                    "busy",
                    enqueued_at=now,
                    priority=busy_priority,
                    deadline_s=now + busy_deadline,
                )
            )
        policy = BatchingPolicy(
            max_batch_size=4, max_delay_s=0.0, starvation_limit_s=limit
        )
        batch = pop(queue, policy)
        assert batch[0].model_name == "quiet"

    @given(
        stream=request_specs,
        max_batch=st.integers(min_value=1, max_value=12),
        slo_mode=st.booleans(),
        keys=st.fixed_dictionaries(
            {model: st.sampled_from(ENGINE_KEYS) for model in "abc"}
        ),
        widths=st.fixed_dictionaries(
            {key: st.integers(min_value=1, max_value=3) for key in ENGINE_KEYS}
        ),
        running=st.fixed_dictionaries(
            {key: st.integers(min_value=0, max_value=3) for key in ENGINE_KEYS}
        ),
    )
    # FIFO: the oldest model waits on a busy width-2 key, a younger one's
    # key is idle -- the younger key's idleness must still force a pop.
    @example(
        stream=[("a", 1, 0, None), ("b", 1, 0, None)],
        max_batch=8,
        slo_mode=False,
        keys={"a": "a", "b": "b", "c": "c"},
        widths=dict.fromkeys(ENGINE_KEYS, 2),
        running={"a": 1, "b": 0, "c": 0, "variant": 0},
    )
    @settings(max_examples=60, deadline=None)
    def test_nothing_to_pop_means_every_placeable_key_is_busy(
        self, stream, max_batch, slo_mode, keys, widths, running
    ):
        """Work conservation: whenever ``_pick`` pops nothing, every pending
        model the placer accepts has a batch in flight on its placed key.

        Models route onto random engine keys (several may share one, as a
        fleet shares its variant), each key has a random width and a random
        number of batches already running, and the budget never runs out
        during the pick."""
        queue = RequestQueue(slo_mode=slo_mode)
        one_each = BatchingPolicy(max_batch_size=1, max_delay_s=0.0)
        for key, count in running.items():
            for _ in range(count):
                hold_in_flight(queue, one_each, width(count, queue), key)

        def place(name, samples, deadline_s):
            key = keys[name]
            if queue.in_flight_batches(key) >= widths[key]:
                return None
            return key, None

        policy = BatchingPolicy(max_batch_size=max_batch, max_delay_s=10.0)
        now = time.monotonic()
        for i, (model, samples, priority, offset) in enumerate(stream):
            queue.submit(
                InferenceRequest(
                    model_name=model,
                    inputs=np.zeros((samples, 3)),
                    future=InferenceFuture(),
                    enqueued_at=now,
                    priority=priority,
                    deadline_s=None if offset is None else now + 1.0 + offset,
                    request_id=i,
                )
            )
        name, _placement, _due_in = queue._pick(policy, place, now)
        if name is not None:
            return
        for model in {model for model, *_spec in stream}:
            placed = place(model, 0, None)
            assert placed is None or queue.in_flight_batches(placed[0]) > 0


class TestWorkConservingDelay:
    """An idle engine key dispatches at once; the co-batching budget only
    holds a partial batch back on a key that already runs one and still has
    spare dispatch width."""

    @pytest.mark.parametrize("path", ["fifo", "slo"])
    def test_partial_batch_waits_the_whole_budget(self, path):
        # 3/4 full behind one in-flight batch on a width-2 key: the whole
        # 0.4 s budget, on the FIFO path and on the SLO path alike.
        queue = RequestQueue()
        policy = BatchingPolicy(max_batch_size=4, max_delay_s=0.4)
        place = width(2, queue)
        running = hold_in_flight(queue, policy, place, "m")
        queue.submit(make_request("m", samples=3, priority=3 if path == "slo" else 0))
        start = time.monotonic()
        batch = queue.next_batch(policy, place)
        elapsed = time.monotonic() - start
        assert [r.n_samples for r in batch.requests] == [3]
        assert elapsed >= 0.3  # the full budget was honoured
        assert queue.in_flight_batches("m") == 2
        queue.release(running)
        queue.release(batch)

    @pytest.mark.parametrize("path", ["fifo", "slo"])
    def test_idle_key_dispatches_a_partial_batch_at_once(self, path):
        queue = RequestQueue()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        now = 100.0
        queue.submit(
            make_request(
                "m",
                enqueued_at=now,
                priority=3 if path == "slo" else 0,
                deadline_s=now + 60.0 if path == "slo" else None,
            )
        )
        assert queue._pick(policy, width(2, queue), now) == ("m", ("m", None), None)

    def test_idleness_is_judged_on_the_placed_key(self):
        # ``fleet`` routes onto ``variant``: it waits while ``variant`` runs
        # a batch, however idle the name ``fleet`` itself is, and dispatches
        # at once when ``variant`` is idle.
        queue = RequestQueue()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        now = 100.0
        place = width(2, queue, key_of=lambda name: "variant")
        running = hold_in_flight(queue, policy, place, "variant")
        queue.submit(make_request("fleet", enqueued_at=now))
        assert queue._pick(policy, place, now) == (None, None, 10.0)
        queue.release(running)
        assert queue._pick(policy, place, now) == ("fleet", ("variant", None), None)


#: One random urgency candidate: (priority, head age in s, secondary key).
candidate_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=2.0),
        st.one_of(st.just(math.inf), st.floats(min_value=-5.0, max_value=5.0)),
    ),
    min_size=1,
    max_size=8,
)


def as_candidates(specs, now):
    """``(name, priority, enqueued_at, secondary, tiebreak)`` per spec."""
    return [
        (f"m{i}", priority, now - age, secondary, i)
        for i, (priority, age, secondary) in enumerate(specs)
    ]


class TestUrgencyOrder:
    """Properties of :func:`most_urgent`, the one urgency order."""

    NOW = 0.0  # ages subtract exactly: now - (now - age) == age

    @given(specs=candidate_specs)
    @settings(max_examples=60, deadline=None)
    def test_priority_class_then_secondary_then_tiebreak(self, specs):
        """Without aging the winner is in the highest class, holds that
        class's least secondary key, and the least tiebreak among those."""
        name = most_urgent(as_candidates(specs, self.NOW), self.NOW, 1e9)
        winner = int(name[1:])
        top = max(priority for priority, _age, _secondary in specs)
        assert specs[winner][0] == top
        in_class = [i for i, spec in enumerate(specs) if spec[0] == top]
        least = min(specs[i][2] for i in in_class)
        assert specs[winner][2] == least
        assert winner == min(i for i in in_class if specs[i][2] == least)

    @given(specs=candidate_specs, limit=st.floats(min_value=0.01, max_value=1.5))
    @settings(max_examples=60, deadline=None)
    def test_starved_heads_compete_in_the_top_class(self, specs, limit):
        """Aging promotes exactly the heads older than the limit: the winner
        is the best (secondary, tiebreak) among the top class plus every
        starved head, whatever the starved heads' own priorities."""
        name = most_urgent(as_candidates(specs, self.NOW), self.NOW, limit)
        top = max(priority for priority, _age, _secondary in specs)
        contenders = [
            i
            for i, (priority, age, _secondary) in enumerate(specs)
            if priority == top or age > limit
        ]
        assert name == f"m{min(contenders, key=lambda i: (specs[i][2], i))}"

    @given(
        heads=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.0, max_value=2.0),
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=5.0)),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_server_dispatch_is_the_shared_argmin(self, heads):
        """A worker's pick is :func:`most_urgent`'s argmin over the models
        below capacity, keyed on the queue's slack (the absolute deadline
        minus now, or the remaining delay budget when none) and then the head
        request's arrival; without SLO hints it is the oldest such head."""
        now, limit = self.NOW, 0.5
        assume(not all(busy for *_spec, busy in heads))
        policy = BatchingPolicy(starvation_limit_s=limit)
        queue = RequestQueue()
        candidates, busy_models = [], set()
        for index, (priority, age, deadline, busy) in enumerate(heads):
            name = f"m{index}"
            request = make_request(
                name,
                enqueued_at=now - age,
                priority=priority,
                deadline_s=None if deadline is None else now + deadline,
            )
            queue.submit(request)
            if busy:  # one batch already running: at its dispatch width
                busy_models.add(name)
                continue
            slack = (
                policy.max_delay_s - (now - request.enqueued_at)
                if deadline is None
                else request.deadline_s - now
            )
            candidates.append((name, priority, request.enqueued_at, slack, now - age))
        queue.close()  # drain mode: every model is ready, only urgency decides
        frozen = SimpleNamespace(monotonic=lambda: now)
        with mock.patch.object(scheduler, "time", frozen):
            batch = queue.next_batch(policy, except_busy(busy_models))
        if any(priority or deadline is not None for priority, _, deadline, _ in heads):
            expected = most_urgent(candidates, now, limit)
        else:
            expected = min(candidates, key=lambda candidate: candidate[2])[0]
        assert batch.requests[0].model_name == expected
