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
* :mod:`repro.api` — the :class:`Scenario` builder facade, re-exported
  here so the sixty-second tour needs one import.

Sixty-second tour::

    from repro import Scenario, s

    result = (Scenario(seed=42)
              .with_testbed()
              .with_step(0, lambda tb: tb.visit_dept())
              .run(duration=s(5)))
    print(result.testbed.home_agent.current_care_of(
        result.testbed.addresses.mh_home))
    print(result.report())
"""

from repro.api import RunResult, Scenario
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

#: Alias: the paper calls the service simply "the home agent".
HomeAgent = HomeAgentService

__version__ = "1.1.0"

__all__ = [
    "Config",
    "DEFAULT_CONFIG",
    "DhcpOutage",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "GilbertElliottPhase",
    "HomeAgent",
    "HomeAgentRestart",
    "InterfaceFlap",
    "LossBurst",
    "ReplyDropWindow",
    "HomeAgentService",
    "MobileHost",
    "RoutingMode",
    "RunResult",
    "Scenario",
    "Simulator",
    "Testbed",
    "build_testbed",
    "ms",
    "s",
    "us",
    "__version__",
]
