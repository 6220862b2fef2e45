"""The trace ring: wraparound, span nesting, disabled-mode cost."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def make_tracer(**kwargs):
    clock = {"t": 0}

    def tick(n=1):
        clock["t"] += n

    tracer = Tracer(clock=lambda: clock["t"], **kwargs)
    return tracer, tick


class TestRing:
    def test_disabled_emits_nothing(self):
        tracer, _ = make_tracer()
        assert not tracer.enabled
        for _ in range(100):
            tracer.emit("svm.hit", vaddr=0x1000)
        assert tracer.emitted == 0
        assert tracer.events() == []
        assert tracer.begin_span("packet.tx") is None
        tracer.end_span(None)                  # tolerated no-op handle
        assert tracer.spans() == []

    def test_ordered_events(self):
        tracer, tick = make_tracer()
        tracer.enabled = True
        tracer.emit("a")
        tick(5)
        tracer.emit("b", x=1)
        evs = tracer.events()
        assert [e.kind for e in evs] == ["a", "b"]
        assert evs[1].ts == 5 and evs[1].args == {"x": 1}
        assert evs[0].seq == 0 and evs[1].seq == 1

    def test_wraparound_keeps_newest(self):
        tracer, _ = make_tracer(capacity=8)
        tracer.enabled = True
        for i in range(20):
            tracer.emit("k", i=i)
        evs = tracer.events()
        assert len(evs) == 8
        assert [e.args["i"] for e in evs] == list(range(12, 20))
        assert tracer.emitted == 20
        assert tracer.dropped == 12

    def test_exact_capacity_no_drop(self):
        tracer, _ = make_tracer(capacity=4)
        tracer.enabled = True
        for i in range(4):
            tracer.emit("k", i=i)
        assert tracer.dropped == 0
        assert [e.args["i"] for e in tracer.events()] == [0, 1, 2, 3]

    def test_tail(self):
        tracer, _ = make_tracer()
        tracer.enabled = True
        for i in range(10):
            tracer.emit("k", i=i)
        assert [e.args["i"] for e in tracer.tail(3)] == [7, 8, 9]

    def test_tail_of_zero_is_empty(self):
        # a slice from -0 would be the whole ring, and one from a
        # negative count would drop the oldest records
        tracer, _ = make_tracer()
        tracer.enabled = True
        for i in range(5):
            tracer.emit("k", i=i)
        assert tracer.tail(0) == []
        assert tracer.tail(-2) == []
        assert [e.args["i"] for e in tracer.tail(9)] == [0, 1, 2, 3, 4]


class TestSpans:
    def test_nesting_and_correlation(self):
        tracer, tick = make_tracer()
        tracer.enabled = True
        outer = tracer.begin_span("packet.tx", len=1500)
        tick(10)
        tracer.emit("svm.hit")
        inner = tracer.begin_span("upcall:netif_stop_queue")
        tick(5)
        tracer.emit("xen.hypercall")
        tracer.end_span(inner)
        tick(5)
        tracer.end_span(outer)

        spans = tracer.spans()
        # children complete before parents
        assert [s.name for s in spans] == ["upcall:netif_stop_queue",
                                           "packet.tx"]
        assert spans[0].parent == outer.id
        assert outer.duration == 20 and inner.duration == 5
        # events carry the innermost open span id
        by_kind = {e.kind: e for e in tracer.events()}
        assert by_kind["svm.hit"].span == outer.id
        assert by_kind["xen.hypercall"].span == inner.id

    def test_span_tree_includes_grandchildren(self):
        tracer, tick = make_tracer()
        tracer.enabled = True
        root = tracer.begin_span("irq")
        child = tracer.begin_span("packet.rx")
        grandchild = tracer.begin_span("upcall:x")
        tracer.end_span(grandchild)
        tracer.end_span(child)
        tracer.end_span(root)
        tree = tracer.span_tree(root)
        assert {s.name for s in tree} == {"irq", "packet.rx", "upcall:x"}

    def test_events_in_span_covers_descendants(self):
        tracer, _ = make_tracer()
        tracer.enabled = True
        root = tracer.begin_span("packet.tx")
        tracer.emit("nic.desc")
        inner = tracer.begin_span("upcall:y")
        tracer.emit("xen.hypercall")
        tracer.end_span(inner)
        tracer.end_span(root)
        kinds = {e.kind for e in tracer.events_in_span(root)}
        assert "nic.desc" in kinds and "xen.hypercall" in kinds

    def test_out_of_order_close_drains_nested(self):
        # exception path: the outer finally fires without the inner one
        tracer, _ = make_tracer()
        tracer.enabled = True
        outer = tracer.begin_span("packet.tx")
        tracer.begin_span("upcall:z")       # never explicitly ended
        tracer.end_span(outer)
        assert tracer.current_span == 0
        assert {s.name for s in tracer.spans()} == {"packet.tx", "upcall:z"}

    def test_span_block_closes_however_it_exits(self):
        tracer, tick = make_tracer()
        with tracer.span("packet.tx") as off:     # tracing off: a no-op
            tracer.emit("svm.hit")
        assert off is None and tracer.spans() == [] and tracer.emitted == 0
        tracer.enabled = True
        try:
            with tracer.span("packet.tx", len=60) as span:
                tick(7)
                raise RuntimeError("fault mid-packet")
        except RuntimeError:
            pass
        assert tracer.current_span == 0
        assert tracer.spans() == [span] and span.duration == 7
        assert span.args == {"len": 60}

    def test_span_duration_histogram(self):
        registry = MetricsRegistry()
        clock = {"t": 0}
        tracer = Tracer(clock=lambda: clock["t"], registry=registry)
        tracer.enabled = True
        span = tracer.begin_span("packet.tx")
        clock["t"] = 42
        tracer.end_span(span)
        hist = registry.histogram("span.packet.tx.cycles")
        assert hist.count == 1 and hist.total == 42

    def test_span_capacity_bounds_completed_list(self):
        tracer, _ = make_tracer(capacity=64, span_capacity=3)
        tracer.enabled = True
        for i in range(10):
            tracer.end_span(tracer.begin_span("s", i=i))
        spans = tracer.spans()
        assert len(spans) == 3
        assert [s.args["i"] for s in spans] == [7, 8, 9]
        assert tracer.spans_dropped == 7

    def test_spans_dropped_counter_reaches_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=64, span_capacity=2, registry=registry)
        tracer.enabled = True
        for i in range(5):
            tracer.end_span(tracer.begin_span("s", i=i))
        assert tracer.spans_dropped == 3
        assert registry.counter("trace.spans_dropped").value == 3

    def test_clear_resets_span_ids(self):
        # repeated bench runs in one process must see identical span ids
        tracer, _ = make_tracer()
        tracer.enabled = True

        def run():
            tracer.end_span(tracer.begin_span("a"))
            tracer.end_span(tracer.begin_span("b"))
            return [s.id for s in tracer.spans()]

        first = run()
        tracer.clear()
        tracer.enabled = True
        assert run() == first == [1, 2]
        assert tracer.spans_dropped == 0


class TestMachineIntegration:
    def test_disabled_tracer_records_nothing_on_real_traffic(self):
        from repro.configs import build
        system = build("domU-twin", n_nics=1)
        assert system.transmit_packets(4) == 4
        tracer = system.machine.obs.tracer
        assert tracer.emitted == 0 and tracer.spans() == []
        # ...but the always-on counters did move
        counters = system.machine.obs.registry.counters_snapshot()
        assert counters["support.dma_map_single"] > 0
        assert counters["cycles.e1000"] > 0

    def test_clock_is_virtual_cycles(self):
        from repro.configs import build
        system = build("domU-twin", n_nics=1)
        obs = system.machine.obs
        obs.enable_tracing()
        system.transmit_packets(1)
        obs.disable_tracing()
        evs = obs.tracer.events()
        assert evs, "tracing enabled but nothing recorded"
        assert evs[-1].ts <= system.machine.account.total
        assert all(a.ts <= b.ts for a, b in zip(evs, evs[1:]))
