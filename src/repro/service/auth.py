"""Bearer-token authentication for the HTTP service plane.

Every enrolled client holds a per-enrollment bearer token; the operator
holds one with the ``operator`` role. Tokens are opaque strings of the
form ``<principal-b64>.<secret-hex>`` — the principal rides inside the
token so the book can look up the *expected* token and compare the
UTF-8 bytes of the two full strings with :func:`hmac.compare_digest`,
keeping the comparison constant-time regardless of where the presented
token diverges (bytes, because the string form refuses non-ASCII text
and a header may carry any latin-1 character).

Lifecycle rules the protocol imposes:

* one principal, one live token — re-enrolling an already-active
  principal is refused (a second mint would quietly hijack the first
  enrollment's identity);
* a leave revokes: when an epoch advance removes a user, the app layer
  calls :meth:`TokenBook.revoke` and the departed token stops
  authenticating immediately — enrollment tokens are not usable across
  epochs after a leave.

Every authentication failure maps to HTTP 401 via
:class:`~repro.service.http.HttpError`, raised *before* any route
handler runs, so a rejected request can never mutate protocol state.
"""

from __future__ import annotations

import base64
import binascii
import hmac
import secrets
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.service.http import HttpError

#: Roles a token can carry.
ROLE_OPERATOR = "operator"
ROLE_CLIENT = "client"


@dataclass(frozen=True)
class Principal:
    """Who a valid token belongs to."""

    name: str
    role: str


def _unauthorized(detail: str) -> HttpError:
    return HttpError(401, f"unauthorized: {detail}")


class TokenBook:
    """Mint, authenticate and revoke the service's bearer tokens."""

    def __init__(self) -> None:
        self._tokens: Dict[str, str] = {}
        self._roles: Dict[str, str] = {}
        # Compared against when the principal is unknown, so the
        # unknown-principal path costs one compare_digest like every
        # other rejection instead of returning early.
        self._decoy = self._encode("\x00decoy", secrets.token_hex(16))

    @staticmethod
    def _encode(principal: str, secret: str) -> str:
        prefix = base64.urlsafe_b64encode(
            principal.encode("utf-8")).decode("ascii")
        return f"{prefix}.{secret}"

    # ------------------------------------------------------------------
    # Minting and revocation
    # ------------------------------------------------------------------
    def mint(self, principal: str, role: str) -> str:
        """Issue a fresh token for ``principal``; refuses a live one."""
        if principal in self._tokens:
            raise HttpError(
                409, f"{principal!r} already holds a live token; a second "
                     f"enrollment would hijack the first (leave and rejoin "
                     f"to rotate it)")
        token = self._encode(principal, secrets.token_hex(16))
        self._tokens[principal] = token
        self._roles[principal] = role
        return token

    def adopt(self, principal: str, role: str, secret: str) -> str:
        """Install a caller-chosen secret (the CLI's ``--operator-token``).

        The caller picks the secret half; the stored (and returned) form
        still embeds the principal — ``<principal-b64>.<secret>`` — so
        authentication stays a single constant-time comparison of full
        tokens. Present the *returned* token, not the bare secret. A
        secret that is not printable ASCII without whitespace could never
        arrive intact in a header, so it is refused.
        """
        if not all("!" <= c <= "~" for c in secret):
            raise ConfigurationError(
                f"the secret for {principal!r} must be printable ASCII "
                f"without whitespace")
        if principal in self._tokens:
            raise HttpError(409, f"{principal!r} already holds a live token")
        token = self._encode(principal, secret)
        self._tokens[principal] = token
        self._roles[principal] = role
        return token

    def revoke(self, principal: str) -> bool:
        """Invalidate ``principal``'s token; True if one was live."""
        self._roles.pop(principal, None)
        return self._tokens.pop(principal, None) is not None

    def is_active(self, principal: str) -> bool:
        return principal in self._tokens

    # ------------------------------------------------------------------
    # Authentication
    # ------------------------------------------------------------------
    def _principal_of(self, token: str) -> Optional[str]:
        prefix, sep, _secret = token.partition(".")
        if not sep:
            return None
        try:
            return base64.urlsafe_b64decode(
                prefix.encode("ascii")).decode("utf-8")
        except (binascii.Error, ValueError, UnicodeError):
            return None

    def authenticate(self, authorization: Optional[str]) -> Principal:
        """Validate an ``Authorization`` header value -> :class:`Principal`.

        Raises :class:`~repro.service.http.HttpError` 401 for a missing
        header, a malformed scheme or token, an unknown/revoked
        principal, or a wrong secret. The token comparison is a single
        :func:`hmac.compare_digest` over the UTF-8 bytes of the full
        expected and presented tokens, so timing does not reveal where
        they diverge.
        """
        if authorization is None:
            raise _unauthorized("missing bearer token")
        scheme, sep, presented = authorization.partition(" ")
        if not sep or scheme.lower() != "bearer" or not presented.strip():
            raise _unauthorized("malformed Authorization header "
                                "(expected 'Bearer <token>')")
        presented = presented.strip()
        principal = self._principal_of(presented)
        expected = self._tokens.get(principal) if principal else None
        # Unknown principals compare against a decoy so the rejection
        # path does the same constant-time work as the happy path.
        if not hmac.compare_digest((expected or self._decoy).encode("utf-8"),
                                   presented.encode("utf-8")):
            raise _unauthorized("unknown, revoked or wrong token")
        assert principal is not None
        return Principal(name=principal, role=self._roles[principal])

    def require(self, principal: Principal, role: str) -> Principal:
        """403 unless ``principal`` carries ``role``."""
        if principal.role != role:
            raise HttpError(
                403, f"this route needs the {role!r} role; "
                     f"{principal.name!r} holds {principal.role!r}")
        return principal
