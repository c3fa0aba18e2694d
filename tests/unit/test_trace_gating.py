"""Unit tests for lazy trace recording (category gating)."""

from repro.sim import Simulator, VERBOSE_CATEGORIES
from repro.sim.trace import TraceRecord


def test_ordinary_categories_record_by_default():
    sim = Simulator()
    assert sim.trace.wants("ip")
    assert sim.trace.wants("registration")
    sim.trace.emit("ip", "send", host="a")
    assert len(sim.trace) == 1


def test_verbose_categories_are_off_by_default():
    sim = Simulator()
    for category in VERBOSE_CATEGORIES:
        assert not sim.trace.wants(category)
        sim.trace.emit(category, "noise")
    assert len(sim.trace) == 0


def test_enable_opts_verbose_category_back_in():
    sim = Simulator()
    sim.trace.enable("engine.debug")
    assert sim.trace.wants("engine.debug")
    sim.trace.emit("engine.debug", "hit", dst="36.8.0.20")
    assert sim.trace.select("engine.debug", "hit")[0]["dst"] == "36.8.0.20"


def test_disable_suppresses_any_category():
    sim = Simulator()
    sim.trace.disable("ip")
    assert not sim.trace.wants("ip")
    sim.trace.emit("ip", "send")
    assert len(sim.trace) == 0
    sim.trace.enable("ip")
    sim.trace.emit("ip", "send")
    assert len(sim.trace) == 1


def test_global_enabled_flag_overrides_everything():
    sim = Simulator()
    sim.trace.enabled = False
    assert not sim.trace.wants("ip")
    sim.trace.emit("ip", "send")
    assert len(sim.trace) == 0


def test_gated_datapath_emits_nothing_when_disabled(testbed):
    """The IP datapath goes quiet (and pays nothing) when 'ip' is off."""
    trace = testbed.sim.trace
    trace.disable("ip")
    testbed.settle(duration=1_000_000_000)
    assert trace.select("ip") == []
    # Other categories are untouched by disabling "ip".
    assert trace.wants("handoff")


def test_trace_record_mapping_interface():
    record = TraceRecord(time=5, category="ip", event="send",
                         fields={"host": "mh"})
    assert record["host"] == "mh"
    assert record.get("absent", 42) == 42
    assert record == TraceRecord(5, "ip", "send", {"host": "mh"})
    assert record != TraceRecord(6, "ip", "send", {"host": "mh"})
