"""MosquitoNet mobile IP: the paper's contribution.

The package mirrors Section 3's decomposition:

* :mod:`repro.core.tunnel` — the VIF virtual interface and the IP-in-IP
  (IPIP) processing module, "actually implemented as one module for
  efficiency" (Figure 4).
* :mod:`repro.core.registration` — the registration protocol between the
  mobile host and its home agent.
* :mod:`repro.core.bindings` — the home agent's mobility binding table.
* :mod:`repro.core.policy` — the Mobile Policy Table and routing modes.
* :mod:`repro.core.home_agent` — proxy-ARP intercept + tunneling (§3.4).
* :mod:`repro.core.mobile_host` — the mobile host: the hooked
  ``ip_rt_route()``, home/local roles, care-of management (§3.3, §5.2).
* :mod:`repro.core.handoff` — cold/hot device switching and same-subnet
  address switching, instrumented for the §4 experiments.
* :mod:`repro.core.foreign_agent` — the IETF-style foreign agent baseline
  the paper deliberately leaves out (§2, §5.1 ablations).
"""

from repro.core.autoswitch import AttachmentOption, ConnectivityManager
from repro.core.binding_shard import BindingShardPlane, HashRing
from repro.core.bindings import MobilityBinding, MobilityBindingTable
from repro.core.foreign_agent import ForeignAgentService
from repro.core.handoff import AddressSwitcher, DeviceSwitcher, SwitchTimeline
from repro.core.home_agent import HomeAgentService
from repro.core.mobile_host import MobileHost
from repro.core.notify import (
    EventKind,
    LinkProfile,
    NetworkChangeNotifier,
    NetworkEvent,
)
from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.core.smart_correspondent import SmartCorrespondent
from repro.core.registration import (
    CODE_ACCEPTED,
    RegistrationClient,
    RegistrationReply,
    RegistrationRequest,
)
from repro.core.tunnel import IPIPModule, VirtualInterface

__all__ = [
    "BindingShardPlane",
    "HashRing",
    "MobilityBinding",
    "MobilityBindingTable",
    "ForeignAgentService",
    "AddressSwitcher",
    "DeviceSwitcher",
    "SwitchTimeline",
    "HomeAgentService",
    "MobileHost",
    "MobilePolicyTable",
    "RoutingMode",
    "RegistrationClient",
    "RegistrationRequest",
    "RegistrationReply",
    "CODE_ACCEPTED",
    "IPIPModule",
    "VirtualInterface",
    "SmartCorrespondent",
    "NetworkChangeNotifier",
    "NetworkEvent",
    "EventKind",
    "LinkProfile",
    "ConnectivityManager",
    "AttachmentOption",
]
