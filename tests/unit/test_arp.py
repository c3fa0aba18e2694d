"""Unit tests for ARP: resolution, proxy ARP and gratuitous ARP.

Proxy and gratuitous ARP are the home agent's interception mechanism
(Section 3.1), so their exact semantics matter to the reproduction.
"""

from repro.net.addressing import IPAddress, ip
from repro.net.packet import AppData
from repro.sim import ms


def _ping(lan, source, target):
    results = []
    source.icmp.ping(ip(target), on_reply=results.append,
                     on_timeout=lambda: results.append(None))
    lan.run(1000)
    return results


def test_ping_populates_arp_caches(lan):
    """RFC 826's merge rule: only the target of a request learns its
    sender, and the reply teaches the requester."""
    bystander = lan.host("10.0.0.3").interfaces[1]
    results = _ping(lan, lan.a, "10.0.0.2")
    assert results and results[0] is not None
    iface_a = lan.a.interfaces[1]
    iface_b = lan.b.interfaces[1]
    # Requester learned the responder; responder learned the requester
    # from the broadcast request, so it never asked back.
    assert iface_a.arp.lookup(ip("10.0.0.2")) == iface_b.mac
    assert iface_b.arp.lookup(ip("10.0.0.1")) == iface_a.mac
    assert not lan.sim.trace.select("arp", "request", interface=iface_b.name)
    # The bystander heard the request but was not its target.
    assert bystander.arp.lookup(ip("10.0.0.1")) is None
    assert bystander.arp.lookup(ip("10.0.0.2")) is None


def test_packets_queue_during_resolution_and_flush_in_order(lan):
    got = []
    server = lan.b.udp.open(9).on_datagram(
        lambda d, s, sp, dst: got.append(d.content))
    assert server is not None
    client = lan.a.udp.open(0)
    for index in range(3):
        client.sendto(AppData(index, 10), ip("10.0.0.2"), 9)
    lan.run(1000)
    assert got == [0, 1, 2]


def test_resolution_failure_drops_queued_packets(lan):
    client = lan.a.udp.open(0)
    client.sendto(AppData("x", 10), ip("10.0.0.99"), 9)  # nobody home
    lan.run(10_000)
    failures = lan.sim.trace.select("arp", "failed")
    assert len(failures) == 1
    assert failures[0]["dropped"] == 1
    # Retries happened before giving up.
    requests = lan.sim.trace.select("arp", "request", target="10.0.0.99")
    assert len(requests) == lan.config.arp_max_attempts


def test_cache_entries_expire(lan):
    iface_a = lan.a.interfaces[1]
    results = []
    lan.a.icmp.ping(ip("10.0.0.2"), on_reply=results.append,
                    on_timeout=lambda: None)
    lan.run(1000)
    assert iface_a.arp.lookup(ip("10.0.0.2")) is not None
    lan.sim.run_for(lan.config.arp_timeout + ms(1))
    assert iface_a.arp.lookup(ip("10.0.0.2")) is None


def test_proxy_arp_answers_for_third_party(lan):
    """A host proxying for an absent address answers requests for it,
    and as their target learns the requester."""
    bystander = lan.host("10.0.0.3").interfaces[1]
    iface_b = lan.b.interfaces[1]
    iface_b.arp.add_proxy(ip("10.0.0.50"))  # 10.0.0.50 does not exist
    entries = iface_b.arp.proxy_entries()
    assert entries == {ip("10.0.0.50")}
    assert all(type(entry) is IPAddress for entry in entries)
    client = lan.a.udp.open(0)
    client.sendto(AppData("x", 10), ip("10.0.0.50"), 9)
    lan.run(1000)
    iface_a = lan.a.interfaces[1]
    assert iface_a.arp.lookup(ip("10.0.0.50")) == iface_b.mac
    assert iface_b.arp.lookup(ip("10.0.0.1")) == iface_a.mac
    assert bystander.arp.lookup(ip("10.0.0.1")) is None


def test_proxy_removal_stops_answering(lan):
    iface_b = lan.b.interfaces[1]
    iface_b.arp.add_proxy(ip("10.0.0.50"))
    iface_b.arp.remove_proxy(ip("10.0.0.50"))
    assert iface_b.arp.proxy_entries() == set()
    client = lan.a.udp.open(0)
    client.sendto(AppData("x", 10), ip("10.0.0.50"), 9)
    lan.run(10_000)
    assert lan.a.interfaces[1].arp.lookup(ip("10.0.0.50")) is None


def test_gratuitous_arp_updates_existing_entries_only(lan):
    """Section 3.1: gratuitous ARP voids stale entries; it must not
    create fresh ones."""
    iface_a = lan.a.interfaces[1]
    iface_b = lan.b.interfaces[1]
    third = lan.host("10.0.0.3")
    iface_c = third.interfaces[1]

    # a has a stale entry for 10.0.0.9 pointing at b.
    iface_a.arp.learn(ip("10.0.0.9"), iface_b.mac)
    # c announces itself as 10.0.0.9.
    iface_c.arp.send_gratuitous(ip("10.0.0.9"))
    lan.run(100)
    assert iface_a.arp.lookup(ip("10.0.0.9")) == iface_c.mac
    # b had no entry for 10.0.0.9; the gratuitous ARP must not create one.
    assert iface_b.arp.lookup(ip("10.0.0.9")) is None


def test_bystander_refreshes_an_entry_it_already_has(lan):
    bystander = lan.host("10.0.0.3").interfaces[1]
    iface_a = lan.a.interfaces[1]
    stale_mac = lan.b.interfaces[1].mac
    bystander.arp.learn(ip("10.0.0.1"), stale_mac)
    lan.sim.run_for(lan.config.arp_timeout // 2)
    _ping(lan, lan.a, "10.0.0.2")
    assert bystander.arp.lookup(ip("10.0.0.1")) == iface_a.mac
    # Past the original expiry, the refreshed entry is still fresh.
    lan.sim.run_for(lan.config.arp_timeout // 2 + ms(1))
    assert bystander.arp.lookup(ip("10.0.0.1")) == iface_a.mac


def test_unspecified_probe_creates_nothing(lan):
    prober = lan.host("10.0.0.3").interfaces[1]
    prober.arp.send_probe(ip("10.0.0.2"))
    lan.run(100)
    for iface in (lan.a.interfaces[1], lan.b.interfaces[1], prober):
        assert iface.arp.lookup(IPAddress(0)) is None
        assert iface.arp.lookup(ip("10.0.0.3")) is None
    assert lan.a.interfaces[1].arp.lookup(ip("10.0.0.2")) is None
    # Only the owner's reply lands, in the prober's cache.
    assert prober.arp.lookup(ip("10.0.0.2")) == lan.b.interfaces[1].mac


def test_flush_clears_cache(lan):
    iface_a = lan.a.interfaces[1]
    iface_a.arp.learn(ip("10.0.0.2"), lan.b.interfaces[1].mac)
    iface_a.arp.flush(ip("10.0.0.2"))
    assert iface_a.arp.lookup(ip("10.0.0.2")) is None
    iface_a.arp.learn(ip("10.0.0.2"), lan.b.interfaces[1].mac)
    iface_a.arp.flush()
    assert iface_a.arp.lookup(ip("10.0.0.2")) is None
