"""Reproduction of "Supporting Mobility in MosquitoNet" (USENIX 1996).

Public API overview
-------------------

The package splits the way the paper does:

* :mod:`repro.sim` — the deterministic discrete-event kernel.
* :mod:`repro.net` — the substrate: links, interfaces, ARP, IP, ICMP,
  UDP, TCP, DHCP, routers.
* :mod:`repro.core` — the contribution: mobile host, home agent, VIF and
  IP-in-IP tunneling, the Mobile Policy Table, handoff engines, plus the
  foreign-agent baseline and the implemented extensions (smart
  correspondents, auto-switching, notifications).
* :mod:`repro.obs` — observability: the metrics registry every simulator
  owns (``sim.metrics``), engine profiling, exporters.
* :mod:`repro.testbed` — the paper's Figure-5 environment, pre-wired.
* :mod:`repro.workloads` — the measurement traffic.
* :mod:`repro.experiments` — one harness per table/figure
  (``python -m repro.experiments``; add ``--metrics`` for counters).

Sixty-second tour: build a simulator and the testbed, move the mobile
host, run, and ask the home agent where it is::

    from repro import Simulator, build_testbed, s
    from repro.obs import format_report

    sim = Simulator(seed=42)
    testbed = build_testbed(sim)
    testbed.visit_dept()
    sim.run_for(s(5))
    print(testbed.home_agent.current_care_of(testbed.addresses.mh_home))
    print(format_report(sim.metrics))
"""

from repro.config import DEFAULT_CONFIG, Config
from repro.core.home_agent import HomeAgentService
from repro.faults import (
    DhcpOutage,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    GilbertElliottPhase,
    HomeAgentRestart,
    InterfaceFlap,
    LossBurst,
    ReplyDropWindow,
)
from repro.core.mobile_host import MobileHost
from repro.core.policy import RoutingMode
from repro.sim.engine import Simulator
from repro.sim.units import ms, s, us
from repro.testbed.topology import Testbed, build_testbed

__version__ = "1.1.0"

__all__ = [
    "Config",
    "DEFAULT_CONFIG",
    "DhcpOutage",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "GilbertElliottPhase",
    "HomeAgentRestart",
    "InterfaceFlap",
    "LossBurst",
    "ReplyDropWindow",
    "HomeAgentService",
    "MobileHost",
    "RoutingMode",
    "Simulator",
    "Testbed",
    "build_testbed",
    "ms",
    "s",
    "us",
    "__version__",
]
