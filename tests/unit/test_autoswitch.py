"""Unit tests for the connectivity manager (Section 6's 'when to switch')."""

import pytest

from repro.core.autoswitch import (
    UP_THRESHOLD,
    AttachmentOption,
    ConnectivityManager,
)
from repro.net.addressing import ip
from repro.sim import ms, s
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME = ip("36.135.0.10")


@pytest.fixture
def managed(testbed):
    """MH visiting the dept net over Ethernet, radio also up, manager
    provisioned with both options."""
    testbed.visit_dept()
    testbed.connect_radio(register=False)
    testbed.sim.run_for(s(1))
    manager = ConnectivityManager(testbed.mobile,
                                  probe_interval=ms(200),
                                  probe_timeout=ms(150))
    a = testbed.addresses
    manager.add_option(AttachmentOption(
        name="ethernet", interface=testbed.mh_eth,
        care_of=a.mh_dept_care_of, subnet=a.dept_net,
        gateway=a.router_dept))
    manager.add_option(AttachmentOption(
        name="radio", interface=testbed.mh_radio,
        care_of=a.mh_radio, subnet=a.radio_net, gateway=a.router_radio,
        # The real radio RTT (~200 ms) exceeds a snappy probe timeout, so
        # score/probe the radio with a generous timeout via its own score.
        score=1.0))
    return testbed, manager


def test_probing_marks_reachable_options_eligible(managed):
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    manager.start()
    testbed.sim.run_for(s(3))
    assert manager.option("ethernet").eligible
    assert manager.option("radio").eligible
    assert manager.option("ethernet").probes_answered > 0


def test_prefers_highest_score_and_stays_there(managed):
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    manager.start()
    testbed.sim.run_for(s(3))
    # Ethernet scores by bandwidth (10 Mbit/s) >> radio's explicit 1.0.
    assert manager.best_option().name == "ethernet"
    assert manager.current_option().name == "ethernet"
    # Already attached there: no switch was needed.
    assert manager.switches_performed == 0


def test_fails_over_when_current_network_dies(managed):
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    manager.start()
    testbed.sim.run_for(s(3))
    assert manager.current_option().name == "ethernet"
    # The building's Ethernet dies.
    testbed.mh_eth.detach()
    testbed.sim.run_for(s(4))
    assert not manager.option("ethernet").eligible
    assert manager.current_option().name == "radio"
    assert manager.switches_performed == 1
    assert testbed.home_agent.current_care_of(HOME) == \
        testbed.addresses.mh_radio


def test_switches_back_when_better_network_returns(managed):
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    manager.start()
    testbed.sim.run_for(s(3))
    testbed.mh_eth.detach()
    testbed.sim.run_for(s(4))
    assert manager.current_option().name == "radio"
    # Ethernet comes back.
    testbed.mh_eth.attach(testbed.dept_segment)
    testbed.sim.run_for(s(4))
    assert manager.current_option().name == "ethernet"
    assert manager.switches_performed == 2


def test_hysteresis_tolerates_single_probe_loss(managed):
    """One lost probe must not trigger a switch (DOWN_THRESHOLD=2)."""
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    manager.start()
    testbed.sim.run_for(s(3))
    option = manager.option("ethernet")
    # Simulate one lost probe.
    option.consecutive_failures = 1
    option.consecutive_successes = 0
    manager._apply_hysteresis(option)
    assert option.eligible
    assert manager.switches_performed == 0


def test_traffic_continues_across_automatic_failover(managed):
    """The paper's 'sufficient warning' scenario end-to-end: the manager
    hot-switches, so the stream sees only the failed network's gap."""
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    manager.start()
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(250))
    stream.start()
    testbed.sim.run_for(s(3))
    testbed.mh_eth.detach()
    testbed.sim.run_for(s(8))
    stream.stop()
    testbed.sim.run_for(s(3))
    assert manager.current_option().name == "radio"
    # Loss is bounded by the detection time (a few probe intervals), not
    # by any device bring-up: the radio was already hot.
    assert stream.lost_count() <= 8
    # And traffic genuinely resumed after the failover.
    post_switch_losses = stream.lost_sequences(since=s(7))
    assert post_switch_losses == []


def test_unknown_option_name_raises(managed):
    _testbed, manager = managed
    with pytest.raises(KeyError):
        manager.option("token-ring")


def _connmgr_events(testbed, event):
    return [record.fields["option"]
            for record in testbed.sim.trace.select("connmgr", event)]


def test_candidate_down_at_decision_is_demoted_then_promoted(managed):
    """The preferred candidate's interface dies between its last good
    probe and the switch decision: the manager demotes it instead of
    hot-switching onto a dead device, stays on the next preference, and
    promotes the candidate again once it re-earns UP_THRESHOLD probe
    successes."""
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    manager.start()
    testbed.sim.run_for(s(3))
    ethernet, radio = manager.option("ethernet"), manager.option("radio")
    assert ethernet.eligible and radio.eligible
    assert manager.current_option() is ethernet
    radio.score = 1e12  # the radio is now the preferred network
    testbed.mh_radio.bring_down(on_done=lambda: None)
    manager._reconsider()
    assert not radio.eligible
    assert radio.consecutive_successes == 0
    assert _connmgr_events(testbed, "demoted") == ["radio"]
    assert manager.current_option() is ethernet
    assert manager.switches_performed == 0
    testbed.sim.run_for(s(1))
    testbed.mh_radio.bring_up()
    testbed.sim.run_for(s(4))
    assert radio.eligible
    assert radio.consecutive_successes >= UP_THRESHOLD
    assert _connmgr_events(testbed, "eligible").count("radio") == 2
    assert manager.current_option() is radio
    assert manager.switches_performed == 1
    assert manager.failed_switches == 0


def test_failed_switch_demotes_and_falls_back(managed):
    """A hot switch whose registration is never answered fails: the
    candidate is demoted, the manager switches to the next preference,
    and the candidate is promoted (and switched to) again after
    UP_THRESHOLD probe successes."""
    testbed, manager = managed
    manager.probe_timeout = ms(600)
    ethernet, radio = manager.option("ethernet"), manager.option("radio")
    radio.score = 1e12
    home_agent = testbed.home_agent
    home_agent.reply_filter = lambda reply: False  # every reply is lost
    outcomes = []

    def on_switch(timeline):
        outcomes.append(timeline.success)
        home_agent.reply_filter = None

    manager.on_switch = on_switch
    manager.start()
    testbed.sim.run_for(s(40))
    assert manager.failed_switches == 1
    assert _connmgr_events(testbed, "demoted") == ["radio"]
    # Demoted radio falls back to ethernet, the next preference; radio
    # re-earns eligibility and wins once more.
    assert outcomes == [False, True, True]
    assert _connmgr_events(testbed, "switching") == [
        "radio", "ethernet", "radio"]
    assert _connmgr_events(testbed, "eligible").count("radio") == 2
    assert radio.eligible and ethernet.eligible
    assert manager.current_option() is radio
    assert testbed.home_agent.current_care_of(HOME) == \
        testbed.addresses.mh_radio
