"""Mobility bindings: the home agent's record of who is where.

"It adds a *mobility binding* to an internal table to record the mobile
host's care-of address and other information such as the lifetime of the
registration and any authentication information." (Section 3.1)
MosquitoNet does "not yet implement any special security measures" (§2),
so a binding here records no authentication data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.addressing import IPAddress
from repro.sim.engine import Event, Simulator


@dataclass
class MobilityBinding:
    """One registered mobile host."""

    home_address: IPAddress
    care_of_address: IPAddress
    lifetime: int
    registered_at: int
    expires_at: int
    identification: int = 0

    def is_active(self, now: int) -> bool:
        """True while the binding's lifetime has not lapsed."""
        return now < self.expires_at

    def remaining(self, now: int) -> int:
        """Nanoseconds of lifetime left at *now* (0 when expired)."""
        return max(0, self.expires_at - now)


class _Expiry:
    """A binding's expiry callback: its table and its home address.

    Two slots (~50 B) where ``lambda: table._expire(home_address)`` held
    a function and two cells (~290 B); one is queued per live binding.
    """

    __slots__ = ("table", "home_address")

    def __init__(self, table: "MobilityBindingTable",
                 home_address: IPAddress) -> None:
        self.table = table
        self.home_address = home_address

    def __call__(self) -> None:
        self.table._expire(self.home_address)


class MobilityBindingTable:
    """Home-agent binding table with lifetime expiry.

    ``on_expire`` fires when a binding lapses without renewal, letting the
    home agent tear down its proxy-ARP entry and tunnel route.
    """

    def __init__(self, sim: Simulator,
                 on_expire: Optional[Callable[[MobilityBinding], None]] = None,
                 owner: str = "") -> None:
        self._sim = sim
        self._bindings: Dict[IPAddress, MobilityBinding] = {}
        self._expiry_events: Dict[IPAddress, Event] = {}
        self.on_expire = on_expire
        #: Name of the agent holding this table; stamped on expiry trace
        #: records so plane-level auditors can attribute them.
        self.owner = owner

    def __len__(self) -> int:
        return len(self._bindings)

    def __contains__(self, home_address: object) -> bool:
        return isinstance(home_address, IPAddress) and self.get(home_address) is not None

    def get(self, home_address: IPAddress) -> Optional[MobilityBinding]:
        """The active binding for *home_address*, if any."""
        binding = self._bindings.get(home_address)
        if binding is None or not binding.is_active(self._sim.now):
            return None
        return binding

    def all_active(self) -> List[MobilityBinding]:
        """Every binding still within its lifetime."""
        now = self._sim.now
        return [binding for binding in self._bindings.values()
                if binding.is_active(now)]

    def register(self, home_address: IPAddress, care_of_address: IPAddress,
                 lifetime: int, identification: int = 0) -> MobilityBinding:
        """Insert or replace the binding for *home_address*."""
        self._cancel_expiry(home_address)
        now = self._sim.now
        binding = MobilityBinding(home_address=home_address,
                                  care_of_address=care_of_address,
                                  lifetime=lifetime, registered_at=now,
                                  expires_at=now + lifetime,
                                  identification=identification)
        self._bindings[home_address] = binding
        self._expiry_events[home_address] = self._sim.call_later(
            lifetime, _Expiry(self, home_address), label="binding-expiry")
        return binding

    def deregister(self, home_address: IPAddress) -> Optional[MobilityBinding]:
        """Remove the binding (mobile host returned home)."""
        self._cancel_expiry(home_address)
        return self._bindings.pop(home_address, None)

    def clear(self) -> List[MobilityBinding]:
        """Drop every binding and expiry timer (home-agent state loss).

        Returns the dropped bindings so the caller can tear down the
        per-binding intercept state they backed.  ``on_expire`` does *not*
        fire: this is amnesia, not lifetime expiry.
        """
        for event in self._expiry_events.values():
            event.cancel()
        self._expiry_events.clear()
        dropped = list(self._bindings.values())
        self._bindings.clear()
        return dropped

    def _expire(self, home_address: IPAddress) -> None:
        binding = self._bindings.get(home_address)
        if binding is None or binding.is_active(self._sim.now):
            return
        del self._bindings[home_address]
        self._expiry_events.pop(home_address, None)
        self._sim.trace.emit("binding", "expired",
                             agent=self.owner,
                             home_address=home_address,
                             care_of=binding.care_of_address)
        if self.on_expire is not None:
            self.on_expire(binding)

    def _cancel_expiry(self, home_address: IPAddress) -> None:
        event = self._expiry_events.pop(home_address, None)
        if event is not None:
            event.cancel()
