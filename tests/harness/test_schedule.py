"""Model test for :class:`repro.harness.parallel.Schedule`.

The schedule is the one attempt/deadline state machine behind every
transport (inline, process pool, HTTP lease), so it is tested on its
own against a fake clock. Hypothesis generates interleavings of every
call a transport makes — take, succeed, fail, release, renew, expire,
abort — plus clock ticks, reporting through stale task handles as
often as live ones. Whatever the interleaving, every spec must settle
exactly once, a success must carry that spec's own result, and a
failure must report an attempt count within the budget.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.parallel import RunFailure, Schedule


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _result(spec):
    return ("result", spec)


#: Abort ends most of a run's interest, so it is drawn rarely.
OPS = st.sampled_from(["take"] * 3 + ["succeed", "fail", "release", "renew",
                                      "tick", "expire"] * 2 + ["abort"])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_spec_settles_exactly_once(data):
    specs = [f"s{i}" for i in range(data.draw(st.integers(0, 5), "specs"))]
    budget = data.draw(st.integers(1, 4), "budget")
    backoff = data.draw(st.booleans(), "backoff")
    clock = FakeClock()
    schedule = Schedule(specs + specs[:2], attempts=budget,
                        backoff=(lambda attempt: 0.5 * attempt)
                        if backoff else None,
                        clock=clock)
    handles = []   # every task ever granted; most go stale
    live = {}      # reference model: spec -> its one current handle
    charged = Counter()
    outcomes = []

    def settle(task, report) -> None:
        """Apply ``report``; a stale handle must change nothing."""
        if live.get(task.spec) is task:
            del live[task.spec]
            report()
            return
        before = (schedule.pending, dict(schedule.results),
                  dict(schedule.failures))
        report()
        assert (schedule.pending, dict(schedule.results),
                dict(schedule.failures)) == before

    def charge(task, kind, detail) -> None:
        if live.get(task.spec) is task:
            charged[task.spec] += 1
        settle(task, lambda: schedule.fail(task, kind, detail))

    ops = data.draw(st.lists(st.tuples(OPS, st.integers(0, 63)),
                             max_size=60), "ops")
    for op, arg in ops:
        task = handles[arg % len(handles)] if handles else None
        if op == "take":
            granted = schedule.take(arg % 3 + 1,
                                    ttl=1.0 if arg % 2 else None)
            for grant in granted:
                assert grant.spec not in live
                assert grant.attempt == charged[grant.spec] + 1
                live[grant.spec] = grant
            handles += granted
        elif op == "tick":
            clock.now += 0.25 * (arg % 8)
        elif op == "expire":
            for lapsed in schedule.expired():
                charge(lapsed, "timeout", "deadline passed")
        elif op == "abort":
            schedule.abort("stopped")
            live.clear()
        elif task is None:
            continue
        elif op == "succeed":
            settle(task, lambda: schedule.succeed(task, _result(task.spec)))
        elif op == "fail":
            charge(task, "error", "boom")
        elif op == "release":
            settle(task, lambda: schedule.release(task))
        elif op == "renew":
            schedule.renew(task, 1.0 if arg % 2 else None)
        outcomes += schedule.drain()

    # Settle whatever is still open: every held handle succeeds, then
    # backoff-delayed retries are waited out and granted.
    for task in handles:
        settle(task, lambda: schedule.succeed(task, _result(task.spec)))
    for _ in range(3):
        wake = schedule.next_wake()
        if wake is not None:
            clock.now = max(clock.now, wake)
        for task in schedule.take(len(specs)):
            schedule.succeed(task, _result(task.spec))
    outcomes += schedule.drain()

    assert schedule.done
    assert schedule.pending == 0 and schedule.next_wake() is None
    assert sorted(spec for spec, _ in outcomes) == sorted(specs)
    assert set(schedule.results).isdisjoint(schedule.failures)
    assert set(schedule.results) | set(schedule.failures) == set(specs)
    for spec, outcome in outcomes:
        if isinstance(outcome, RunFailure):
            assert outcome.spec == spec
            assert 1 <= outcome.attempts <= budget
            assert outcome.attempts == charged[spec] + (
                outcome.kind == "aborted")
            assert schedule.failures[spec] is outcome
        else:
            assert outcome == _result(spec)
            assert schedule.results[spec] is outcome
    assert schedule.drain() == []


class TestTransitions:
    def test_fail_charges_until_the_budget_is_spent(self):
        schedule = Schedule(["a"], attempts=2)
        (first,) = schedule.take(1)
        assert schedule.fail(first, "error", "boom")  # retry queued
        (second,) = schedule.take(1)
        assert second.attempt == 2
        assert not schedule.fail(second, "error", "boom again")
        (failure,) = schedule.failures.values()
        assert failure.attempts == 2 and failure.exception == "boom again"
        assert schedule.done

    def test_stale_handle_is_ignored(self):
        schedule = Schedule(["a"], attempts=3)
        (stale,) = schedule.take(1)
        schedule.release(stale)
        (live,) = schedule.take(1)
        assert live.attempt == 1  # release charged nothing
        assert not schedule.fail(stale, "error", "late report")
        schedule.succeed(stale, "wrong")
        schedule.succeed(live, "right")
        assert schedule.results == {"a": "right"}
        assert schedule.drain() == [("a", "right")]

    def test_backoff_delays_the_retry(self):
        clock = FakeClock()
        schedule = Schedule(["a"], attempts=2,
                            backoff=lambda attempt: 1.5, clock=clock)
        (task,) = schedule.take(1)
        schedule.fail(task, "error", "boom")
        assert schedule.take(1) == []
        assert schedule.next_wake() == 1.5
        clock.now = 1.5
        (retry,) = schedule.take(1)
        assert retry.attempt == 2

    def test_deadlines_expire_and_renew(self):
        clock = FakeClock()
        schedule = Schedule(["a", "b"], attempts=1, clock=clock)
        first, second = schedule.take(2, ttl=1.0)
        clock.now = 0.5
        schedule.renew(second, 1.0)
        assert schedule.next_wake() == 1.0
        clock.now = 1.0
        assert schedule.expired() == [first]

    def test_abort_fails_open_specs_on_their_current_attempt(self):
        schedule = Schedule(["a", "b"], attempts=3)
        held, _ = schedule.take(2)
        schedule.fail(held, "error", "boom")
        schedule.abort("stopped")
        attempts = {f.spec: (f.kind, f.attempts)
                    for f in schedule.failures.values()}
        assert attempts == {"a": ("aborted", 2), "b": ("aborted", 1)}
