"""Unit tests for the network-change notification API (Section 6)."""

from repro.core.notify import (
    EventKind,
    LinkProfile,
    NetworkChangeNotifier,
    profile_of,
)
from repro.sim import s

ALL_KINDS = list(EventKind)


def eth_profile(name="eth0", bandwidth=10_000_000.0, up=True):
    return LinkProfile(interface_name=name, technology="ethernet",
                       bandwidth_bps=bandwidth, latency_ns=150_000, is_up=up)


def radio_profile():
    return LinkProfile(interface_name="strip0", technology="radio",
                       bandwidth_bps=34_000.0, latency_ns=78_000_000,
                       is_up=True)


class TestSubscriptions:
    def test_subscriber_receives_published_events(self, sim):
        notifier = NetworkChangeNotifier(sim)
        events = []
        notifier.subscribe(events.append, kinds=ALL_KINDS)
        notifier.attachment_changed(eth_profile())
        assert len(events) == 1
        assert events[0].kind is EventKind.ATTACHMENT_CHANGED
        assert events[0].new.technology == "ethernet"

    def test_kind_filter(self, sim):
        notifier = NetworkChangeNotifier(sim)
        events = []
        notifier.subscribe(events.append,
                           kinds=[EventKind.CONNECTIVITY_LOST])
        notifier.attachment_changed(eth_profile())
        notifier.connectivity_lost()
        assert [event.kind for event in events] == [EventKind.CONNECTIVITY_LOST]

    def test_bandwidth_threshold_filter(self, sim):
        """An application only interested in big QoS shifts (e.g. video)
        ignores ethernet->ethernet reattachments but hears about the
        radio."""
        notifier = NetworkChangeNotifier(sim)
        coarse, fine = [], []
        notifier.subscribe(coarse.append, kinds=ALL_KINDS,
                           min_bandwidth_change=0.5)
        notifier.subscribe(fine.append, kinds=ALL_KINDS)
        notifier.attachment_changed(eth_profile("eth0"))
        notifier.attachment_changed(eth_profile("eth1"))   # same bandwidth
        notifier.attachment_changed(radio_profile())        # 300x drop
        assert len(fine) == 3
        # The coarse subscriber sees the first attachment (no old profile,
        # ratio defaults to 1.0 -> filtered? no: old is None -> ratio 1.0
        # -> change 0 -> filtered) and the radio cliff.
        assert [event.new.technology for event in coarse] == ["radio"]

    def test_quality_change_same_interface(self, sim):
        notifier = NetworkChangeNotifier(sim)
        events = []
        notifier.subscribe(events.append, kinds=ALL_KINDS)
        notifier.attachment_changed(eth_profile(bandwidth=10_000_000.0))
        notifier.attachment_changed(eth_profile(bandwidth=5_000_000.0))
        assert [event.kind for event in events] == [
            EventKind.ATTACHMENT_CHANGED, EventKind.QUALITY_CHANGED]

    def test_identical_reattachment_publishes_nothing(self, sim):
        notifier = NetworkChangeNotifier(sim)
        events = []
        notifier.subscribe(events.append, kinds=ALL_KINDS)
        notifier.attachment_changed(eth_profile())
        notifier.attachment_changed(eth_profile())
        assert len(events) == 1

    def test_event_carries_timestamps(self, sim):
        notifier = NetworkChangeNotifier(sim)
        events = []
        notifier.subscribe(events.append, kinds=ALL_KINDS)
        sim.call_at(s(5), lambda: notifier.attachment_changed(eth_profile()))
        sim.run()
        assert events[0].time == s(5)


class TestProfileOf:
    def test_profiles_reflect_physical_links(self, testbed):
        eth = profile_of(testbed.mh_eth)
        assert eth.technology == "ethernet"
        assert eth.bandwidth_bps == testbed.config.ethernet.bandwidth_bps
        radio = profile_of(testbed.mh_radio)
        assert radio.technology == "radio"
        assert radio.bandwidth_bps == testbed.config.radio.bandwidth_bps
        lo = profile_of(testbed.mobile.loopback)
        assert lo.technology == "loopback"


class TestMobileHostIntegration:
    def test_visiting_publishes_attachment_change(self, testbed):
        events = []
        testbed.mobile.notifier.subscribe(events.append, kinds=ALL_KINDS)
        testbed.visit_dept(register=False)
        assert any(event.kind is EventKind.ATTACHMENT_CHANGED
                   for event in events)

    def test_device_switch_reports_bandwidth_cliff(self, testbed):
        """The adaptive-application scenario: an app subscribed with a
        bandwidth threshold hears about the ethernet->radio move."""
        from repro.core.handoff import DeviceSwitcher

        testbed.visit_dept()
        testbed.connect_radio(register=False)
        testbed.sim.run_for(s(1))
        cliffs = []
        testbed.mobile.notifier.subscribe(cliffs.append, kinds=ALL_KINDS,
                                          min_bandwidth_change=0.5)
        DeviceSwitcher(testbed.mobile).hot_switch(
            testbed.mh_radio, testbed.addresses.mh_radio,
            testbed.addresses.radio_net, testbed.addresses.router_radio,
            on_done=lambda timeline: None)
        testbed.sim.run_for(s(2))
        assert cliffs
        assert cliffs[0].new.technology == "radio"
        assert cliffs[0].bandwidth_ratio < 0.01
