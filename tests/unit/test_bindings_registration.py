"""Unit tests for the binding table and the registration protocol."""

import pytest

from repro.core.bindings import MobilityBindingTable
from repro.core.registration import (
    BACKOFF_MULTIPLIER,
    CODE_ACCEPTED,
    REGISTRATION_PORT,
    RegistrationClient,
    RegistrationReply,
    RegistrationRequest,
)
from repro.net.addressing import ip
from repro.net.packet import AppData
from repro.sim import s

HOME = ip("36.135.0.10")
CARE_OF = ip("36.8.0.50")
AGENT = ip("36.135.0.1")


class TestBindingTable:
    def test_register_and_get(self, sim):
        table = MobilityBindingTable(sim)
        binding = table.register(HOME, CARE_OF, lifetime=s(60))
        assert table.get(HOME) is binding
        assert HOME in table
        assert len(table) == 1

    def test_reregistration_replaces(self, sim):
        table = MobilityBindingTable(sim)
        table.register(HOME, CARE_OF, lifetime=s(60))
        table.register(HOME, ip("36.134.0.77"), lifetime=s(60))
        assert table.get(HOME).care_of_address == ip("36.134.0.77")
        assert len(table) == 1

    def test_deregister_removes(self, sim):
        table = MobilityBindingTable(sim)
        table.register(HOME, CARE_OF, lifetime=s(60))
        removed = table.deregister(HOME)
        assert removed is not None
        assert table.get(HOME) is None

    def test_expiry_fires_callback(self, sim):
        expired = []
        table = MobilityBindingTable(sim, on_expire=expired.append)
        table.register(HOME, CARE_OF, lifetime=s(2))
        sim.run_for(s(3))
        assert [binding.home_address for binding in expired] == [HOME]
        assert table.get(HOME) is None

    def test_renewal_cancels_previous_expiry(self, sim):
        expired = []
        table = MobilityBindingTable(sim, on_expire=expired.append)
        table.register(HOME, CARE_OF, lifetime=s(2))
        sim.run_for(s(1))
        table.register(HOME, CARE_OF, lifetime=s(5))
        sim.run_for(s(3))
        assert expired == []
        assert table.get(HOME) is not None

    def test_remaining_and_activity(self, sim):
        table = MobilityBindingTable(sim)
        binding = table.register(HOME, CARE_OF, lifetime=s(10))
        sim.run_for(s(4))
        assert binding.remaining(sim.now) == pytest.approx(s(6))
        assert binding.is_active(sim.now)


class TestMessages:
    def test_deregistration_detection(self):
        by_lifetime = RegistrationRequest(HOME, CARE_OF, AGENT, lifetime=0,
                                          identification=1)
        by_address = RegistrationRequest(HOME, HOME, AGENT, lifetime=s(60),
                                         identification=2)
        normal = RegistrationRequest(HOME, CARE_OF, AGENT, lifetime=s(60),
                                     identification=3)
        assert by_lifetime.is_deregistration
        assert by_address.is_deregistration
        assert not normal.is_deregistration

    def test_reply_accept_flag(self):
        good = RegistrationReply(CODE_ACCEPTED, HOME, CARE_OF, s(60), 1)
        bad = RegistrationReply(128, HOME, CARE_OF, 0, 1)
        assert good.accepted and not bad.accepted

    def test_wire_sizes(self):
        request = RegistrationRequest(HOME, CARE_OF, AGENT, s(60), 1)
        assert request.wrap().size_bytes == 52
        reply = RegistrationReply(CODE_ACCEPTED, HOME, CARE_OF, s(60), 1)
        assert reply.wrap().size_bytes == 44


class TestClientRetransmission:
    def _client_with_fake_agent(self, lan, drop_first: int):
        """A registration client against a scripted agent on host b."""
        client = RegistrationClient(lan.a, HOME, ip("10.0.0.2"))
        seen = {"count": 0}
        agent_socket = lan.b.udp.open(REGISTRATION_PORT)

        def agent(data: AppData, src, src_port, dst):
            seen["count"] += 1
            if seen["count"] <= drop_first:
                return  # swallow it: simulates loss
            request = data.content
            reply = RegistrationReply(CODE_ACCEPTED, request.home_address,
                                      request.care_of_address,
                                      request.lifetime,
                                      request.identification)
            agent_socket.sendto(reply.wrap(), src, src_port)

        agent_socket.on_datagram(agent)
        return client, seen

    def test_reply_on_first_try(self, lan):
        client, seen = self._client_with_fake_agent(lan, drop_first=0)
        outcomes = []
        client.register(CARE_OF, on_done=outcomes.append,
                        via=lan.a.interfaces[1])
        lan.run(3000)
        assert outcomes and outcomes[0].accepted
        assert outcomes[0].transmissions == 1
        assert outcomes[0].round_trip > 0

    def test_retransmits_until_replied(self, lan):
        client, seen = self._client_with_fake_agent(lan, drop_first=2)
        outcomes = []
        client.register(CARE_OF, on_done=outcomes.append,
                        via=lan.a.interfaces[1])
        lan.sim.run_for(s(6))
        assert outcomes and outcomes[0].accepted
        assert outcomes[0].transmissions == 3
        assert seen["count"] == 3

    def test_gives_up_after_max_transmissions(self, lan):
        # Under capped exponential backoff (1 s, 2 s, 4 s between the four
        # transmissions, then an 8 s give-up wait) terminal failure lands
        # just past 15 s instead of the old fixed-interval 4 s.
        client, seen = self._client_with_fake_agent(lan, drop_first=99)
        failures = []
        client.register(CARE_OF, on_done=lambda outcome: failures.append("done"),
                        on_fail=lambda: failures.append("fail"),
                        via=lan.a.interfaces[1])
        lan.sim.run_for(s(20))
        assert failures == ["fail"]
        assert seen["count"] == lan.config.registration.max_transmissions

    def test_backoff_schedule_is_capped_exponential(self, lan):
        client, _seen = self._client_with_fake_agent(lan, drop_first=99)
        client.register(CARE_OF, on_done=lambda outcome: None,
                        via=lan.a.interfaces[1])
        lan.sim.run_for(s(20))
        sends = [record.time for record in lan.sim.trace.records
                 if record.category == "registration"
                 and record.event == "request_sent"]
        assert len(sends) == lan.config.registration.max_transmissions
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        timings = lan.config.registration
        # First retransmission waits exactly retransmit_interval; each
        # later one doubles, clamped at backoff_cap.
        expected = []
        delay = timings.retransmit_interval
        for _ in gaps:
            expected.append(min(delay, timings.backoff_cap))
            delay *= BACKOFF_MULTIPLIER
        assert gaps == expected

    def test_give_up_fires_terminal_hook(self, lan):
        client, seen = self._client_with_fake_agent(lan, drop_first=99)
        terminal = []
        client.register(CARE_OF, on_done=lambda outcome: None,
                        on_fail=lambda: terminal.append(lan.sim.now),
                        via=lan.a.interfaces[1])
        lan.sim.run_for(s(20))
        assert len(terminal) == 1
        assert client.failures == 1
        assert seen["count"] == lan.config.registration.max_transmissions

    def test_deregister_carries_home_as_care_of(self, lan):
        client, _seen = self._client_with_fake_agent(lan, drop_first=0)
        outcomes = []
        request = client.deregister(on_done=outcomes.append,
                                    via=lan.a.interfaces[1])
        assert request.is_deregistration
        lan.run(3000)
        assert outcomes and outcomes[0].accepted
