"""Unit tests for demand-driven trace recording.

A trace keeps every category until :meth:`Trace.record_only` names the
ones a consumer reads; subscribers receive their categories regardless;
fields are rendered only for records that are kept or delivered.
"""

import pytest

from repro.sim import Simulator, s
from repro.sim.trace import TraceRecord
from repro.testbed import build_testbed


class Counting:
    """A field value that counts how often it is rendered."""

    def __init__(self, text: str, describes: bool) -> None:
        self.text = text
        self.calls = 0
        if describes:
            self.describe = self._describe

    def _describe(self) -> str:
        self.calls += 1
        return self.text

    def __str__(self) -> str:
        self.calls += 1
        return self.text


def test_ordinary_categories_record_by_default():
    sim = Simulator()
    sim.trace.emit("ip", "send", host="a")
    sim.trace.emit("registration", "request_sent", host="a")
    assert len(sim.trace) == 2


def test_disable_suppresses_any_category():
    sim = Simulator()
    sim.trace.record_only("handoff")
    sim.trace.emit("ip", "send")
    assert len(sim.trace) == 0
    sim.trace.record_only("handoff", "ip")
    sim.trace.emit("ip", "send")
    assert len(sim.trace) == 1


def test_record_only_with_no_category_records_nothing():
    sim = Simulator()
    sim.trace.record_only()
    sim.trace.emit("ip", "send")
    sim.trace.emit("registration", "ha_reply")
    assert len(sim.trace) == 0


def test_record_only_drops_records_outside_its_categories():
    sim = Simulator()
    sim.trace.emit("device", "address_added", interface="eth0")
    sim.trace.emit("registration", "request_sent", ident=1)
    sim.trace.record_only("registration")
    assert [record.category for record in sim.trace] == ["registration"]


def test_gated_datapath_emits_nothing_when_disabled(testbed):
    """The IP datapath records nothing when 'ip' is not declared, and the
    declared categories are untouched."""
    trace = testbed.sim.trace
    trace.record_only("device")
    testbed.visit_dept()
    testbed.sim.run_for(1_000_000_000)
    assert trace.select("ip") == []
    assert trace.select("device")


def test_subscriber_gets_its_categories_even_when_not_kept():
    sim = Simulator()
    sim.trace.record_only()
    seen = []
    sim.trace.subscribe(seen.append, "binding", "home_agent")
    sim.trace.emit("binding", "registered", agent="ha0")
    sim.trace.emit("ip", "send", host="a")
    sim.trace.emit("home_agent", "crash", host="ha0")
    sim.trace.emit("registration", "ha_reply", host="ha0")
    assert [(r.category, r.event) for r in seen] == [
        ("binding", "registered"), ("home_agent", "crash")]
    assert len(sim.trace) == 0


def test_subscribe_needs_a_category():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.trace.subscribe(lambda record: None)


def test_unread_emit_never_renders_its_fields():
    sim = Simulator()
    sim.trace.record_only("registration")
    sim.trace.subscribe(lambda record: None, "binding")
    packet = Counting("36.8.0.20->36.135.0.10", describes=True)
    address = Counting("36.8.0.20", describes=False)
    sim.trace.emit("ip", "send", packet=packet, address=address)
    assert packet.calls == 0 and address.calls == 0


def test_kept_or_delivered_emit_renders_each_field_once():
    sim = Simulator()
    sim.trace.record_only("registration")
    delivered = []
    sim.trace.subscribe(delivered.append, "binding")
    packet = Counting("36.8.0.20->36.135.0.10", describes=True)
    address = Counting("36.8.0.20", describes=False)
    sim.trace.emit("registration", "request_sent", packet=packet,
                   target=address, ident=7, ok=True, cost=1.5, note=None)
    sim.trace.emit("binding", "registered", care_of=address)
    (kept,) = sim.trace.select("registration")
    assert kept.fields == {"packet": "36.8.0.20->36.135.0.10",
                           "target": "36.8.0.20", "ident": 7, "ok": True,
                           "cost": 1.5, "note": None}
    assert delivered[0]["care_of"] == "36.8.0.20"
    assert packet.calls == 1 and address.calls == 2


def test_trace_record_mapping_interface():
    record = TraceRecord(time=5, category="ip", event="send",
                         fields={"host": "mh"})
    assert record["host"] == "mh"
    assert record.get("absent", 42) == 42
    assert record == TraceRecord(5, "ip", "send", {"host": "mh"})
    assert record != TraceRecord(6, "ip", "send", {"host": "mh"})


def test_live_follows_keep_all_record_only_and_subscribe_in_either_order():
    sim = Simulator()
    trace = sim.trace
    assert "ip" in trace.live and "anything" in trace.live
    trace.subscribe(lambda record: None, "binding")
    assert "ip" in trace.live
    trace.record_only("registration")
    assert set(trace.live) == {"registration", "binding"}

    other = Simulator().trace
    other.record_only()
    assert set(other.live) == set()
    delivered = []
    other.subscribe(delivered.append, "ip")
    assert set(other.live) == {"ip"}
    other.emit("ip", "send", host="a")
    other.emit("arp", "gratuitous", interface="eth0")
    assert [(r.category, r.event) for r in delivered] == [("ip", "send")]
    assert len(other) == 0


#: The (category, event) of every site that tests ``trace.live`` first.
GUARDED = {("ip", "send"), ("ip", "receive"),
           ("tunnel", "encapsulated"), ("tunnel", "decapsulated"),
           ("policy", "decision"),
           ("registration", "request_start"), ("registration", "request_sent"),
           ("registration", "reply_received"), ("registration", "ha_received"),
           ("registration", "ha_reply"),
           ("arp", "proxy_added"), ("arp", "gratuitous")}


def _guarded_emits(*read):
    """The guarded emits of a register-and-ping run that reads *read*."""
    testbed = build_testbed(Simulator(seed=77), with_remote_correspondent=False,
                            with_dhcp=False)
    trace = testbed.sim.trace
    trace.record_only(*read)
    emitted = []
    trace.emit = lambda category, event, **fields: emitted.append(
        (category, event))
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    replies = []
    testbed.correspondent.icmp.ping(testbed.addresses.mh_home,
                                    on_reply=replies.append,
                                    on_timeout=lambda: replies.append(None))
    testbed.sim.run_for(s(2))
    assert replies and replies[0] is not None
    return {pair for pair in emitted if pair in GUARDED}


def test_guarded_sites_skip_emit_when_nobody_reads():
    """With nothing kept or subscribed, a register-and-ping run through
    the tunnel calls emit at none of the guarded sites; keeping their
    categories reaches every one of them."""
    assert _guarded_emits() == set()
    assert _guarded_emits("ip", "tunnel", "policy", "registration",
                          "arp") == GUARDED
