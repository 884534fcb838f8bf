"""Span recording and self time."""

from perfbench.tracer import Tracer, self_times


def test_spans_nest_and_self_time_subtracts_children(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.span("outer", request="r1"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["request"] == outer["request"] == "r1"
    own = self_times(tracer.spans)
    outer_s = outer["end"] - outer["start"]
    inner_s = inner["end"] - inner["start"]
    assert abs(own[outer["id"]] - (outer_s - inner_s)) < 1e-9


def test_self_time_merges_overlapping_children():
    spans = [
        {"name": "p", "id": "1", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "a", "id": "2", "parent": "1", "start": 1.0, "end": 5.0},
        {"name": "b", "id": "3", "parent": "1", "start": 3.0, "end": 7.0},
    ]
    assert self_times(spans)["1"] == 4.0


def test_wrap_and_uninstall_restore_the_original(tmp_path):
    class Box:
        def value(self):
            return 7

    tracer = Tracer(tmp_path)
    original = Box.value
    tracer.wrap(Box, "value", "box.value")
    assert Box().value() == 7 and tracer.spans[-1]["name"] == "box.value"
    tracer.uninstall()
    assert Box.value is original
    tracer.flush()
    assert (tmp_path / next(p.name for p in tmp_path.iterdir())).read_text().startswith("[")


def test_adopted_context_parents_spans_of_another_process(tmp_path):
    sender, receiver = Tracer(tmp_path), Tracer(tmp_path)
    with sender.span("serve.job", request="r7"):
        context = sender.context()
    with receiver.adopted(context):
        with receiver.span("analysis.run_benchmark"):
            pass
    (job,), (point,) = sender.spans, receiver.spans
    assert point["parent"] == job["id"] and point["request"] == "r7"
    assert receiver.context() == (None, None)
