"""The tail-percentile rule and failure accounting."""

from perfbench import golden, measure, serve, spec
from perfbench.measure import Ledger


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))  # 1000 samples
    tail = measure.tail(samples)
    assert (tail.pct, tail.value, tail.beyond) == (99.0, 990, 10)
    assert tail.label() == "p99 (10 samples beyond)"


def test_tail_steps_down_when_a_percentile_has_nine_beyond():
    tail = measure.tail(list(range(999)))
    assert tail.pct == 95.0 and tail.beyond == 49


def test_tail_counts_beyond_at_the_higher_percentiles():
    tail = measure.tail(list(range(10_001)))
    assert (tail.pct, tail.beyond) == (99.9, 10)


def test_tail_needs_twenty_samples():
    assert measure.tail(list(range(19))) is None
    tail = measure.tail(list(range(20)))
    assert (tail.pct, tail.beyond) == (50.0, 10)


def test_ledger_counts_429_non_2xx_ok_false_and_violations():
    ledger = Ledger()
    assert not ledger.reply(429, {"error": "queue full"}, "a")
    assert not ledger.reply(500, None, "b")
    assert not ledger.reply(200, {"ok": False}, "c")
    assert not ledger.reply(200, {"ok": True, "num_violations": 2}, "d")
    assert not ledger.reply(200, {"ok": True}, "e", problems=["cycles differ"])
    assert ledger.reply(200, {"ok": True}, "f")
    assert (ledger.attempted, ledger.failed) == (6, 5)
    assert ledger.error_ratio == 5 / 6


GOLDEN = {
    "AS/free+fwd/8x2500/s1/icelake": {
        "cycles": 100,
        "committed": 50,
        "counters": {"mem.misses": 7},
    }
}


def test_golden_mismatch_and_unknown_point_are_problems():
    goldens = golden.Goldens(GOLDEN)
    pid = "AS/free+fwd/8x2500/s1/icelake"
    same = {"cycles": 100, "committed": 50, "counters": {"mem.misses": 7, "new": 1}}
    assert goldens.problems(pid, same) == []  # counters added later are ignored
    assert goldens.problems(pid, {"cycles": 101, "committed": 50})
    assert goldens.problems(pid, dict(same, counters={"mem.misses": 8}))
    assert goldens.problems("AS/free+fwd/8x2500/s2/icelake", same)


class FakeDaemon:
    """Replies with a canned status and event stream."""

    def __init__(self, status, events):
        self.status = status
        self.events = events

    def post(self, path, payload, request_id):
        return {"status": self.status, "events": self.events, "first_s": 0.001, "total_s": 0.002}


def _fuzz_reply(violations):
    return FakeDaemon(200, [{"ok": True, "runs": 60, "num_violations": violations}])


def _sweep_events(request, cycles):
    points = spec.request_points(request)
    events = [
        {"event": "point", "benchmark": b, "policy": p, "key": f"{i:064x}",
         "cycles": cycles, "committed": 50}
        for i, (b, p, _s, _preset) in enumerate(points)
    ]
    return events + [{"event": "done", "ok": True, "from_cache": len(points)}]


def _mix(daemon, ledger):
    request = spec.sweep_request(["AS"], ["free+fwd"], 1)
    mix = serve.Mix(1, ledger, golden.Goldens(GOLDEN), clients=1)
    mix.start(daemon)
    return mix, request


def test_serve_mix_counts_429_non_2xx_and_golden_mismatch():
    ledger = Ledger()
    mix, request = _mix(FakeDaemon(429, [{"error": "queue full"}]), ledger)
    assert mix.sweep(request, "r1") is None
    mix.daemon = FakeDaemon(503, [])
    assert mix.sweep(request, "r2") is None
    mix.daemon = FakeDaemon(200, _sweep_events(request, cycles=99))
    assert mix.sweep(request, "r3") is None
    mix.daemon = FakeDaemon(200, _sweep_events(request, cycles=100))
    assert mix.sweep(request, "r4") is not None
    assert (ledger.attempted, ledger.failed) == (4, 3)


def test_fuzz_violations_count_once_per_campaign():
    ledger = Ledger()
    mix, _request = _mix(_fuzz_reply(3), ledger)
    repeat = spec.FUZZ_CAMPAIGNS
    assert mix.fuzz(0, "f0") is None  # the violations fail the campaign
    assert mix.fuzz(repeat, "f1") is not None  # the same ones again: not recounted
    mix.daemon = _fuzz_reply(0)
    assert mix.fuzz(1, "f2") is not None
    assert mix.fuzz(1 + repeat, "f3") is not None
    assert (ledger.attempted, ledger.failed) == (4, 1)
    mix.daemon = _fuzz_reply(2)  # a changed verdict is a failure of its own
    assert mix.fuzz(2 * repeat, "f4") is None
    mix.daemon = FakeDaemon(429, [{"error": "queue full"}])
    assert mix.fuzz(3 * repeat, "f5") is None
    assert (ledger.attempted, ledger.failed) == (6, 3)
