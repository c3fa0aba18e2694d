"""The package root's exports and constructor defaults."""

from repro import Simulator
from repro.config import DEFAULT_CONFIG
from repro.core.autoswitch import (
    DEFAULT_PROBE_INTERVAL,
    DEFAULT_PROBE_TIMEOUT,
    DOWN_THRESHOLD,
    UP_THRESHOLD,
    ConnectivityManager,
)
from repro.core.mobile_host import MobileHost
from repro.net.addressing import IPAddress, Subnet
from repro.sim.units import ms


# ----------------------------------------------------------- package root

def test_fault_types_are_importable_from_package_root():
    import repro

    for name in ("FaultPlan", "FaultInjector", "LossBurst",
                 "GilbertElliottPhase", "InterfaceFlap", "HomeAgentRestart",
                 "DhcpOutage", "ReplyDropWindow"):
        assert hasattr(repro, name), name
        assert name in repro.__all__


# ---------------------------------------------------------- constructors

def _home_pieces(sim):
    return (IPAddress.parse("36.123.0.10"), Subnet.parse("36.123.0.0/24"),
            IPAddress.parse("36.123.0.1"))


def test_connectivity_manager_defaults_come_from_config():
    sim = Simulator()
    home, subnet, agent = _home_pieces(sim)
    mh = MobileHost(sim, "mh", home, subnet, agent, config=DEFAULT_CONFIG)
    manager = ConnectivityManager(mh)
    assert manager.probe_interval == DEFAULT_PROBE_INTERVAL == ms(500)
    assert manager.probe_timeout == DEFAULT_PROBE_TIMEOUT == ms(400)
    assert UP_THRESHOLD == DOWN_THRESHOLD == 2
