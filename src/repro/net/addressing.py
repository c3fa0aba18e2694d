"""IPv4 and link-layer addressing.

Addresses are small frozen value types usable as dict keys.  The testbed
reuses the paper's actual numbering: Stanford's class-B net 36, subnetted as
36.135 (home), 36.8 (CS department) and 36.134 (wireless).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


@dataclass(frozen=True)
class IPAddress:
    """An IPv4 address stored as a 32-bit unsigned integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise AddressError(f"IPv4 address out of range: {self.value:#x}")

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


@dataclass(frozen=True)
class Subnet:
    """An IPv4 prefix (network address + prefix length).

    ``mask`` (the netmask as an int) is computed once at construction;
    it is a plain attribute, not a dataclass field, so it takes no part in
    equality, hashing or :func:`dataclasses.fields`.
    """

    network: IPAddress
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise AddressError(f"bad prefix length {self.prefix_len}")
        mask = PREFIX_MASKS[self.prefix_len]
        if self.network.value & ~mask:
            raise AddressError(
                f"{self.network}/{self.prefix_len} has host bits set"
            )
        object.__setattr__(self, "mask", mask)

    @classmethod
    def parse(cls, text: str) -> "Subnet":
        """Parse CIDR notation, e.g. ``"36.135.0.0/24"``."""
        if "/" not in text:
            raise AddressError(f"missing prefix length: {text!r}")
        addr_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise AddressError(f"bad prefix length in {text!r}")
        return cls(IPAddress.parse(addr_text), int(len_text))

    @cached_property
    def broadcast(self) -> IPAddress:
        """The directed broadcast address of this subnet."""
        return IPAddress(self.network.value | (~self.mask & 0xFFFFFFFF))

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


@dataclass(frozen=True)
class MACAddress:
    """A 48-bit link-layer address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFF:
            raise AddressError(f"MAC address out of range: {self.value:#x}")

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
