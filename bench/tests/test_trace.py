"""The span recorder: self-time accounting and patch/unpatch identity."""

import importlib
import threading
import types

from bench.trace import (LAYERS, SPAN_NAMES, Span, Tracer, self_times,
                         summarize)


def span(name, start, end, parent=None, thread=1):
    s = Span(name, parent, op=0, thread=thread)
    s.start, s.end = start, end
    return s


def test_self_time_is_duration_minus_union_of_children():
    parent = span("p", 0, 10)
    spans = [span("c1", 1, 3, parent), span("c2", 5, 9, parent), parent]
    assert self_times(spans) == [2, 4, 4]


def test_overlapping_children_on_threads_share_their_overlap():
    # P [0, 100] forks A [10, 50] and B [30, 70] onto two threads; A has
    # its own child A1 [20, 25].  P's self time is its duration minus the
    # union [10, 70] of its children, and [30, 50], where A and B both
    # run childless, is split between them.
    p = span("p", 0, 100)
    a = span("a", 10, 50, p, thread=2)
    a1 = span("a1", 20, 25, a, thread=2)
    b = span("b", 30, 70, p, thread=3)
    got = dict(zip("p a a1 b".split(), self_times([p, a, a1, b])))
    assert got == {"p": 40, "a": 25, "a1": 5, "b": 30}
    assert sum(got.values()) == 100   # adds up to the wall time covered


def test_summarize_reports_every_span_name_with_shares_of_the_wall():
    root = span("bench.driver", 0, 8)
    rows = summarize([span("serve.flush", 2, 4, root), root], 10)
    assert list(rows) == list(SPAN_NAMES)
    assert rows["bench.driver"] == {"calls": 1, "self_ms": 6e-6,
                                    "self_share": 0.6}
    assert rows["serve.flush"]["self_share"] == 0.2
    assert rows["pram.launch"] == {"calls": 0, "self_ms": 0.0,
                                   "self_share": 0.0}


def test_nested_same_name_calls_record_one_span():
    tracer = Tracer()
    inner = tracer.wrap("x", lambda: 1)
    outer = tracer.wrap("x", lambda: inner() + 1)
    assert outer() == 2
    assert [s.name for s in tracer.spans] == ["x"]


def test_worker_thread_spans_nest_under_the_adopting_span():
    tracer = Tracer()
    work = tracer.wrap("engine.update", lambda: None)

    def run():
        t = threading.Thread(target=work)
        t.start()
        t.join()

    tracer.wrap("serve.executor", run)()
    worker, executor = tracer.spans
    assert worker.parent is executor and worker.thread != executor.thread


def test_unpatch_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    module = types.ModuleType("m")
    module.h = lambda: "h"
    originals = (vars(Child)["g"], module.h)
    tracer = Tracer()
    tracer.patch(Child, "f", "f")     # inherited: patched on Child only
    tracer.patch(Child, "g", "g")
    tracer.patch(module, "h", "h")
    assert Child().f() == "base" and Child().g() == "child"
    assert len(tracer.spans) == 2
    tracer.uninstall()
    assert "f" not in vars(Child) and Child.f is Base.f
    assert (vars(Child)["g"], module.h) == originals
    assert vars(Child)["g"] is originals[0] and module.h is originals[1]


def test_install_then_uninstall_restores_every_layer_callable():
    def resolve(module, path):
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr

    targets = [resolve(m, p) for spans in LAYERS.values() for m, p in spans]
    before = [vars(owner).get(attr) for owner, attr in targets]
    assert all(obj is not None for obj in before)
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), obj in zip(targets, before):
            assert getattr(owner, attr).__wrapped__ is obj
    finally:
        tracer.uninstall()
    for (owner, attr), obj in zip(targets, before):
        assert vars(owner)[attr] is obj

