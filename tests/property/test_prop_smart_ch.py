"""Property tests for the smart-correspondent binding cache."""

from hypothesis import given, settings, strategies as st

from repro.core.registration import RegistrationRequest
from repro.core.smart_correspondent import SmartCorrespondent
from repro.net.addressing import IPAddress, ip
from repro.sim import Simulator, s
from repro.testbed import build_testbed

HOME = ip("36.135.0.10")
AGENT = ip("36.135.0.1")
care_ofs = st.integers(min_value=1, max_value=0xFFFFFFFE).map(IPAddress)


@given(st.lists(st.tuples(st.booleans(), care_ofs), min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_cache_reflects_last_update(operations):
    """Feed any sequence of updates/invalidations straight into the
    correspondent's handler: the cache always equals the last operation."""
    sim = Simulator(seed=3)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    smart = SmartCorrespondent(testbed.correspondent)
    expected = None
    for ident, (register, care_of) in enumerate(operations, start=1):
        if register and care_of != HOME:
            message = RegistrationRequest(HOME, care_of, AGENT,
                                          lifetime=s(60),
                                          identification=ident)
            expected = care_of
        else:
            message = RegistrationRequest(HOME, HOME, AGENT, lifetime=0,
                                          identification=ident)
            expected = None
        smart._on_datagram(message.wrap(), ip("36.8.0.50"), 434,
                           ip("36.8.0.20"))
    assert smart.cached_care_of(HOME) == expected


@given(st.lists(care_ofs, min_size=1, max_size=10, unique=True))
@settings(max_examples=20, deadline=None)
def test_route_hook_only_fires_for_cached_destinations(cached_homes):
    """The hook tunnels exactly the cached destinations; everything else
    falls through to ordinary routing."""
    sim = Simulator(seed=4)
    testbed = build_testbed(sim, with_remote_correspondent=False,
                            with_dhcp=False)
    smart = SmartCorrespondent(testbed.correspondent)
    for index, home in enumerate(cached_homes):
        smart.bindings.register(home, ip("36.8.0.50"), lifetime=s(60),
                                identification=index)
    for home in cached_homes:
        route = testbed.correspondent.ip.ip_rt_route(home)
        assert route is not None and route.interface is smart.vif
    # An uncached destination routes normally.
    other = ip("36.40.0.9")
    if other not in cached_homes:
        route = testbed.correspondent.ip.ip_rt_route(other)
        assert route is None or route.interface is not smart.vif
