"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Simulator,
    SimulationError,
    StopProcess,
    Timeout,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        yield Timeout(sim, 2.5)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [2.5]


def test_timeout_value_passed_back():
    sim = Simulator()
    seen = []

    def proc(sim):
        v = yield Timeout(sim, 1.0, value="payload")
        seen.append(v)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timeout(sim, -1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield Timeout(sim, delay)
        order.append(tag)

    sim.process(proc(sim, 3.0, "c"))
    sim.process(proc(sim, 1.0, "a"))
    sim.process(proc(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_creation_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield Timeout(sim, 1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_run_until_stops_early():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield Timeout(sim, 10.0)
        fired.append(True)

    sim.process(proc(sim))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert not fired
    sim.run()
    assert fired == [True]


def test_run_until_in_past_rejected():
    sim = Simulator(start=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_process_return_value():
    sim = Simulator()

    def child(sim):
        yield Timeout(sim, 1.0)
        return 42

    def parent(sim):
        result = yield sim.process(child(sim))
        assert result == 42
        return "done"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "done"


def test_stop_process_sets_value():
    sim = Simulator()

    def proc(sim):
        yield Timeout(sim, 1.0)
        raise StopProcess("early")

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "early"
    assert p.ok


def test_process_exception_marks_failed():
    sim = Simulator()

    def bad(sim):
        yield Timeout(sim, 1.0)
        raise ValueError("boom")

    p = sim.process(bad(sim))
    sim.run()
    assert p.failed
    assert isinstance(p.value, ValueError)


def test_failed_child_raises_in_parent():
    sim = Simulator()
    caught = []

    def child(sim):
        yield Timeout(sim, 1.0)
        raise ValueError("child broke")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child broke"]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 17

    p = sim.process(bad(sim))
    sim.run()
    assert p.failed
    assert isinstance(p.value, SimulationError)


def test_yield_event_from_other_simulator_fails():
    sim1, sim2 = Simulator(), Simulator()

    def bad(sim):
        yield Timeout(sim2, 1.0)

    p = sim1.process(bad(sim1))
    sim1.run()
    assert p.failed


def test_bare_event_succeed():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter(sim, ev):
        v = yield ev
        seen.append((sim.now, v))

    def trigger(sim, ev):
        yield Timeout(sim, 4.0)
        ev.succeed("go")

    sim.process(waiter(sim, ev))
    sim.process(trigger(sim, ev))
    sim.run()
    assert seen == [(4.0, "go")]


def test_event_cannot_be_scheduled_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    ev = Timeout(sim, 1.0)
    hits = []
    ev.add_callback(lambda e: hits.append(1))
    ev.cancel()
    sim.run()
    assert hits == []


def test_callback_on_already_triggered_event_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    hits = []
    ev.add_callback(lambda e: hits.append(e.value))
    assert hits == ["x"]


def test_allof_waits_for_all():
    sim = Simulator()
    results = []

    def proc(sim):
        evs = [Timeout(sim, d, value=d) for d in (3.0, 1.0, 2.0)]
        vals = yield AllOf(sim, evs)
        results.append((sim.now, vals))

    sim.process(proc(sim))
    sim.run()
    assert results == [(3.0, [3.0, 1.0, 2.0])]


def test_allof_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        vals = yield AllOf(sim, [])
        return vals

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == []


def test_allof_propagates_failure():
    sim = Simulator()

    def child_ok(sim):
        yield Timeout(sim, 1.0)

    def child_bad(sim):
        yield Timeout(sim, 2.0)
        raise RuntimeError("nope")

    def proc(sim):
        yield AllOf(sim, [sim.process(child_ok(sim)), sim.process(child_bad(sim))])

    p = sim.process(proc(sim))
    sim.run()
    assert p.failed
    assert isinstance(p.value, RuntimeError)


def test_anyof_returns_first():
    sim = Simulator()

    def proc(sim):
        slow = Timeout(sim, 5.0, value="slow")
        fast = Timeout(sim, 1.0, value="fast")
        v = yield AnyOf(sim, [slow, fast])
        return (sim.now, v)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (1.0, "fast")


def test_interrupt_raises_in_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield Timeout(sim, 100.0)
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    def poker(sim, target):
        yield Timeout(sim, 2.0)
        target.interrupt("wake up")

    target = sim.process(sleeper(sim))
    sim.process(poker(sim, target))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield Timeout(sim, 1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_uncaught_interrupt_fails_process():
    sim = Simulator()

    def sleeper(sim):
        yield Timeout(sim, 100.0)

    def poker(sim, target):
        yield Timeout(sim, 1.0)
        target.interrupt()

    target = sim.process(sleeper(sim))
    sim.process(poker(sim, target))
    sim.run()
    assert target.failed
    assert isinstance(target.value, Interrupt)


def test_run_until_complete_detects_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    p = sim.process(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_run_until_complete_finishes_targets():
    sim = Simulator()

    def proc(sim, d):
        yield Timeout(sim, d)

    p1 = sim.process(proc(sim, 1.0))
    p2 = sim.process(proc(sim, 2.0))
    sim.process(proc(sim, 50.0))  # background, not waited on
    sim.run_until_complete(p1, p2)
    assert p1.triggered and p2.triggered
    assert sim.now == 2.0


def test_run_until_complete_targets_finishing_in_reverse_order():
    sim = Simulator()

    def proc(sim, d):
        yield Timeout(sim, d)

    # Listed in the reverse of their finishing order, plus a target
    # listed twice and one already done before the call.
    done_early = sim.process(proc(sim, 0.5))
    sim.run_until_complete(done_early)
    targets = [sim.process(proc(sim, d)) for d in (4.0, 3.0, 2.0, 1.0)]
    sim.process(proc(sim, 50.0))  # background, not waited on
    sim.run_until_complete(targets[0], *targets, done_early)
    assert all(p.triggered for p in targets)
    assert sim.now == 4.5
    # Stopped at the last target: the background process is pending.
    assert sim.peek() == 50.5


def test_run_until_complete_stops_at_last_target_when_first_listed_is_first():
    sim = Simulator()

    def proc(sim, d):
        yield Timeout(sim, d)

    fast, slow = sim.process(proc(sim, 1.0)), sim.process(proc(sim, 3.0))
    sim.process(proc(sim, 50.0))
    sim.run_until_complete(fast, slow)
    assert slow.triggered and sim.now == 3.0


def test_run_until_complete_deadlock_reports_exact_pending_count():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    def quick(sim):
        yield Timeout(sim, 1.0)

    # Finished targets sit both before and after the first stuck one.
    targets = [sim.process(quick(sim)), sim.process(stuck(sim)),
               sim.process(quick(sim)), sim.process(stuck(sim)),
               sim.process(quick(sim)), sim.process(stuck(sim))]
    with pytest.raises(SimulationError,
                       match=r"^deadlock: 3 process\(es\) never completed$"):
        sim.run_until_complete(*targets)
    assert sim.now == 1.0


def test_run_until_complete_dispatches_through_step(monkeypatch):
    """A wrapped ``Simulator.step`` (the benchmark's event counter)
    sees every event ``run_until_complete`` processes."""
    calls = []
    orig = Simulator.step

    def counting_step(sim):
        calls.append(sim.now)
        return orig(sim)

    monkeypatch.setattr(Simulator, "step", counting_step)
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield Timeout(sim, 1.0)

    p = sim.process(proc(sim))
    sim.run_until_complete(p)
    assert len(calls) == sim.check.events_fired == 7  # boot, 5 timeouts, exit


def test_time_weighted_monitor_matches_reference_integration():
    """``set``/``add`` integrate inline; the result must equal a plain
    left-to-right integration of the same level trace bit for bit."""
    import random

    from repro.sim import TimeWeightedMonitor

    for seed in range(20):
        rng = random.Random(seed)
        sim = Simulator(start=rng.uniform(0.0, 5.0))
        initial = float(rng.choice([0, 1, 2.5]))
        mon = TimeWeightedMonitor(sim, initial=initial)
        start = last_t = sim.now
        level = peak = initial
        area = 0.0
        for _ in range(rng.randrange(1, 200)):
            # Repeated times (dt = 0) and repeated values included.
            if rng.random() < 0.7:
                sim.run(until=sim.now + rng.choice(
                    [0.0, rng.random(), rng.expovariate(3.0), 1e-9]))
            now = sim.now
            if rng.random() < 0.5:
                value = float(rng.choice([0, 1, 2, 3, level, -1.5]))
                mon.set(value)
            else:
                delta = rng.choice([1, -1, 0, 0.25])
                mon.add(delta)
                value = float(level + delta)
            area += level * (now - last_t)
            last_t = now
            level = value
            peak = max(peak, level)
        assert mon.level == level
        assert mon.maximum == peak
        sim.run(until=sim.now + rng.random())
        area += level * (sim.now - last_t)
        elapsed = sim.now - start
        want = area / elapsed if elapsed > 0 else level
        assert mon.time_average == want, seed


def test_peek_returns_next_event_time():
    sim = Simulator()

    def proc(sim):
        yield Timeout(sim, 7.0)

    sim.process(proc(sim))
    # The bootstrap event is at t=0.
    assert sim.peek() == 0.0
    sim.step()
    assert sim.peek() == 7.0


def test_nested_process_chain():
    sim = Simulator()

    def leaf(sim):
        yield Timeout(sim, 1.0)
        return 1

    def mid(sim):
        v = yield sim.process(leaf(sim))
        yield Timeout(sim, 1.0)
        return v + 1

    def root(sim):
        v = yield sim.process(mid(sim))
        return v + 1

    p = sim.process(root(sim))
    sim.run()
    assert p.value == 3
    assert sim.now == 2.0


def test_run_on_empty_heap_returns_now():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0


def test_process_generator_name_used():
    sim = Simulator()

    def named(sim):
        yield Timeout(sim, 1.0)

    p = sim.process(named(sim), name="custom")
    assert p.name == "custom"
    sim.run()


def test_anyof_with_failed_winner():
    sim = Simulator()

    def bad(sim):
        yield Timeout(sim, 1.0)
        raise RuntimeError("first and broken")

    def waiter(sim):
        yield AnyOf(sim, [sim.process(bad(sim)), Timeout(sim, 5.0)])

    p = sim.process(waiter(sim))
    sim.run()
    assert p.failed
    assert isinstance(p.value, RuntimeError)


def test_deeply_nested_timeouts_perform():
    """A thousand sequential timeouts complete without issue."""
    sim = Simulator()

    def long_runner(sim):
        for _ in range(1000):
            yield Timeout(sim, 0.001)
        return sim.now

    p = sim.process(long_runner(sim))
    sim.run_until_complete(p)
    assert p.value == pytest.approx(1.0)
