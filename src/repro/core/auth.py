"""Registration authentication (the paper's named-but-unimplemented need).

Section 5.1: "The only security problem that is truly unique to mobile
hosts is the registration of the temporary care-of address with the home
agent and with smart correspondent hosts.  These registrations should be
authenticated with S-key, Kerberos, PGP, or some other similar strong
authentication mechanism to protect against denial-of-service attacks in
the form of malicious fraudulent registrations."

The paper stops there ("we do not yet implement any special security
measures"); this module implements the mechanism it calls for, as an
optional extension that slots into the authenticator field the registration
messages already carry:

* a shared secret per (mobile host, home agent) pair;
* a keyed MAC over the security-relevant request fields (home address,
  care-of address, lifetime, identification);
* replay protection through strictly increasing identification numbers,
  which the base protocol already generates.

The MAC is HMAC-SHA256 from the standard library — the *construction*
(keyed MAC over canonical fields + anti-replay counter) is what the paper
asks for; the particular primitive is incidental.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict

from repro.core.registration import RegistrationRequest
from repro.net.addressing import IPAddress

#: Reply code for a failed authentication (IETF: 131 "mobile node failed
#: authentication").
CODE_DENIED_AUTHENTICATION = 131


def _canonical_bytes(request: RegistrationRequest) -> bytes:
    """The byte string the MAC covers: every field an attacker could
    usefully forge, in a fixed order."""
    return "|".join([
        str(request.home_address),
        str(request.care_of_address),
        str(request.home_agent),
        str(request.lifetime),
        str(request.identification),
    ]).encode()


def compute_authenticator(key: bytes, request: RegistrationRequest) -> bytes:
    """The MAC a legitimate mobile host attaches to *request*."""
    return hmac.new(key, _canonical_bytes(request), hashlib.sha256).digest()


@dataclass
class _Principal:
    key: bytes
    #: Highest identification accepted so far (anti-replay).
    last_identification: int = 0


class RegistrationAuthenticator:
    """Home-agent side: per-mobile keys, verification, replay rejection."""

    def __init__(self) -> None:
        self._principals: Dict[IPAddress, _Principal] = {}
        self.rejected_bad_mac = 0
        self.rejected_replay = 0

    def provision(self, home_address: IPAddress, key: bytes) -> None:
        """Install the shared secret for one mobile host."""
        if not key:
            raise ValueError("empty authentication key")
        self._principals[home_address] = _Principal(key=key)

    def revoke(self, home_address: IPAddress) -> None:
        """Remove the shared secret; the host becomes unauthenticated-open."""
        self._principals.pop(home_address, None)

    def verify(self, request: RegistrationRequest) -> bool:
        """True if the request is authentic and fresh.

        Hosts without a provisioned key are accepted (authentication is
        opt-in, as it was in the paper's deployment plans); provisioned
        hosts must present a valid, non-replayed MAC.
        """
        principal = self._principals.get(request.home_address)
        if principal is None:
            return True
        if request.authenticator is None:
            self.rejected_bad_mac += 1
            return False
        expected = compute_authenticator(principal.key, request)
        if not hmac.compare_digest(expected, request.authenticator):
            self.rejected_bad_mac += 1
            return False
        if request.identification <= principal.last_identification:
            self.rejected_replay += 1
            return False
        principal.last_identification = request.identification
        return True


class AuthenticatedRegistrationSigner:
    """Mobile-host side: attach the MAC to outgoing requests.

    Installed on a :class:`~repro.core.registration.RegistrationClient`
    via :meth:`install`, which wraps the client's dispatch path so every
    request (registration and deregistration alike) carries a valid
    authenticator, transparently to the rest of the mobile host.
    """

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("empty authentication key")
        self._key = key

    def sign(self, request: RegistrationRequest) -> RegistrationRequest:
        """Return a copy of *request* carrying a valid authenticator."""
        from dataclasses import replace

        return replace(request,
                       authenticator=compute_authenticator(self._key, request))

    def install(self, client) -> None:
        """Wrap *client* so all its requests are signed."""
        original = client._dispatch

        def signing_dispatch(request, on_done, on_fail, via, destination):
            signed = self.sign(request)
            # Keep the client's pending-table keyed by the same ident.
            original(signed, on_done, on_fail, via, destination)

        client._dispatch = signing_dispatch
