import threading

import pytest

from perfbench.spans import Tracer, resolve
from perfbench.tests import _target


def ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_nested_spans_record_their_parent_and_self_time():
    tracer = Tracer(clock=ticking_clock())
    with tracer.span("a"):          # start 0
        with tracer.span("b"):      # 1 .. 2
            pass
        with tracer.span("c"):      # 3 .. 6
            with tracer.span("b"):  # 4 .. 5
                pass
    # end of a: 7
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (a,) = by_name["a"]
    (c,) = by_name["c"]
    assert a.parent is None
    assert c.parent == a.span_id
    assert sorted(b.parent for b in by_name["b"]) == sorted(
        [a.span_id, c.span_id])
    assert tracer.total("a") == 7.0
    assert tracer.total("b") == 2.0
    assert tracer.self_total("a") == 7.0 - 1.0 - 3.0
    assert tracer.self_total("c") == 3.0 - 1.0
    assert tracer.covered(["b", "c"]) == 4.0


def test_spans_on_other_threads_do_not_nest_under_this_one():
    tracer = Tracer()

    def work():
        with tracer.span("t"):
            pass

    with tracer.span("main"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    spans = {s.name: s for s in tracer.spans}
    assert spans["t"].parent is None
    assert spans["t"].thread != spans["main"].thread


def test_span_is_recorded_when_the_block_raises():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.span("boom"):
            raise KeyError("x")
    assert [s.name for s in tracer.spans] == ["boom"]


def test_wrap_records_calls_at_the_looked_up_name_and_restores():
    tracer = Tracer()
    original_leaf = _target.leaf
    original_method = _target.Box.__dict__["method"]
    tracer.wrap("perfbench.tests._target.leaf", "leaf")
    tracer.wrap("perfbench.tests._target.outer", "outer")
    tracer.wrap("perfbench.tests._target.Box.method", "method")
    assert _target.outer(1) == 4
    assert _target.Box().method(1) == 2
    names = [s.name for s in tracer.spans]
    assert sorted(names) == ["leaf", "leaf", "method", "outer"]
    parents = {s.span_id: s.name for s in tracer.spans}
    leaf_parents = sorted(parents[s.parent] for s in tracer.spans
                          if s.name == "leaf")
    assert leaf_parents == ["method", "outer"]
    tracer.restore()
    assert _target.leaf is original_leaf
    assert _target.Box.__dict__["method"] is original_method


def test_resolve_rejects_missing_targets():
    with pytest.raises(AttributeError):
        resolve("perfbench.tests._target.missing")
    with pytest.raises(ModuleNotFoundError):
        resolve("no_such_package_xyz.f")
