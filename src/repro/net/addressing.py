"""IPv4 and link-layer addressing.

Addresses are small immutable value types usable as dict keys.  The
testbed reuses the paper's actual numbering: Stanford's class-B net 36,
subnetted as 36.135 (home), 36.8 (CS department) and 36.134 (wireless).

They are ``__slots__`` classes, not frozen dataclasses: every host holds
several, and a slotted value skips the per-instance ``__dict__``.  They
keep the dataclasses' value semantics exactly -- equality within one
class, ``hash`` of the field tuple (set iteration order, and so report
text, depends on it), assignment raising :class:`AttributeError` -- and
pickle and copy through ``__reduce__``.
"""

from __future__ import annotations

from typing import Union


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


class _Frozen:
    """Makes a slotted value class's attributes read-only."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class IPAddress(_Frozen):
    """An IPv4 address stored as a 32-bit unsigned integer."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise AddressError(f"IPv4 address out of range: {value:#x}")
        object.__setattr__(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __reduce__(self):
        return (self.__class__, (self.value,))

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        """Parse dotted-quad notation, e.g. ``"36.135.0.10"``."""
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"not a dotted quad: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"bad octet {part!r} in {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def is_unspecified(self) -> bool:
        """True for 0.0.0.0, the "let the stack choose" source address."""
        return self.value == 0

    @property
    def is_limited_broadcast(self) -> bool:
        """True for 255.255.255.255."""
        return self.value == 0xFFFFFFFF

    @property
    def is_loopback(self) -> bool:
        """True for 127.0.0.0/8."""
        return (self.value >> 24) == 127

    def __str__(self) -> str:
        value = self.value
        return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"


#: The unspecified ("any" / "let the stack choose") source address.
UNSPECIFIED = IPAddress(0)
#: The limited broadcast destination.
LIMITED_BROADCAST = IPAddress(0xFFFFFFFF)


def ip(text: Union[str, IPAddress]) -> IPAddress:
    """Coerce a dotted quad or :class:`IPAddress` to an :class:`IPAddress`."""
    if isinstance(text, IPAddress):
        return text
    return IPAddress.parse(text)


#: Netmask of every prefix length, as a 32-bit integer.
PREFIX_MASKS = tuple((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
                     for length in range(33))


class Subnet(_Frozen):
    """An IPv4 prefix (network address + prefix length).

    ``mask`` (the netmask as an int) is computed once at construction,
    and ``broadcast`` on first use; neither takes part in equality or
    hashing, which read ``(network, prefix_len)`` only.
    """

    __slots__ = ("network", "prefix_len", "mask", "_broadcast")

    def __init__(self, network: IPAddress, prefix_len: int) -> None:
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"bad prefix length {prefix_len}")
        mask = PREFIX_MASKS[prefix_len]
        if network.value & ~mask:
            raise AddressError(f"{network}/{prefix_len} has host bits set")
        set_field = object.__setattr__
        set_field(self, "network", network)
        set_field(self, "prefix_len", prefix_len)
        set_field(self, "mask", mask)
        set_field(self, "_broadcast", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.network == other.network
                    and self.prefix_len == other.prefix_len)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.network, self.prefix_len))

    def __reduce__(self):
        return (self.__class__, (self.network, self.prefix_len))

    @classmethod
    def parse(cls, text: str) -> "Subnet":
        """Parse CIDR notation, e.g. ``"36.135.0.0/24"``."""
        if "/" not in text:
            raise AddressError(f"missing prefix length: {text!r}")
        addr_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise AddressError(f"bad prefix length in {text!r}")
        return cls(IPAddress.parse(addr_text), int(len_text))

    @property
    def broadcast(self) -> IPAddress:
        """The directed broadcast address of this subnet."""
        broadcast = self._broadcast
        if broadcast is None:
            broadcast = IPAddress(self.network.value
                                  | (~self.mask & 0xFFFFFFFF))
            object.__setattr__(self, "_broadcast", broadcast)
        return broadcast

    def __contains__(self, addr: object) -> bool:
        if not isinstance(addr, IPAddress):
            return False
        return (addr.value & self.mask) == self.network.value

    def host(self, index: int) -> IPAddress:
        """The *index*-th host address within the subnet (1-based)."""
        candidate = IPAddress(self.network.value + index)
        if candidate not in self or candidate == self.broadcast:
            raise AddressError(f"host index {index} outside {self}")
        return candidate

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"Subnet({str(self)!r})"


def subnet(text: Union[str, Subnet]) -> Subnet:
    """Coerce CIDR text or :class:`Subnet` to a :class:`Subnet`."""
    if isinstance(text, Subnet):
        return text
    return Subnet.parse(text)


class MACAddress(_Frozen):
    """A 48-bit link-layer address."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFFFFFF:
            raise AddressError(f"MAC address out of range: {value:#x}")
        object.__setattr__(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __reduce__(self):
        return (self.__class__, (self.value,))

    def __str__(self) -> str:
        return ":".join(
            f"{(self.value >> shift) & 0xFF:02x}" for shift in (40, 32, 24, 16, 8, 0)
        )

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"


#: The Ethernet broadcast address.
BROADCAST_MAC = MACAddress(0xFFFFFFFFFFFF)


class MACAllocator:
    """Hands out locally administered, globally unique-in-sim MACs."""

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> MACAddress:
        """Next locally administered, simulation-unique MAC."""
        value = (0x02 << 40) | self._next
        self._next += 1
        return MACAddress(value)
