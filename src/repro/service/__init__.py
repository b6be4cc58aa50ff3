"""The HTTP service plane: the reproduction as a deployable service.

The paper's deployment story is a *service*: browser-extension clients
enroll with an operator, submit blinded reports over the network, and
query the resulting thresholds. This package is that shape for the
reproduction — the top rung of the transport fidelity ladder (see
:mod:`repro.protocol` for the full ladder):

* :mod:`repro.service.http` — a threaded stdlib HTTP/1.1 server with
  the frames-layer reader discipline (length checked before allocation,
  truncation raises, one deadline per whole request);
* :mod:`repro.service.auth` — per-enrollment bearer tokens, compared in
  constant time, revoked on leave;
* :mod:`repro.service.state` — the operator: a
  :class:`~repro.api.ProtocolSession` over remote members, stepped by
  HTTP requests, over the byte-exact transport every protocol message
  still crosses (HTTP bodies carry the wire encoding; the bytes are
  billed at the ``_ship``/``_carry`` seam, so HTTP-vs-socket byte
  parity is assertable and chaos fault plans inject *under* it);
* :mod:`repro.service.app` — the JSON route layer and
  :class:`~repro.service.app.ReproService`, the composed stack that
  ``repro serve`` boots;
* :mod:`repro.service.client` — :class:`~repro.service.client.
  RemoteClient` and :class:`~repro.service.client.OperatorClient`, the
  other-process side: a real :class:`~repro.protocol.client.
  ProtocolClient` rebuilt deterministically from the enrollment spec
  and driven entirely through the API.
"""

from repro.service.app import OPERATOR_PRINCIPAL, ReproService, ServiceApp
from repro.service.auth import (
    ROLE_CLIENT,
    ROLE_OPERATOR,
    Principal,
    TokenBook,
)
from repro.service.client import (
    OperatorClient,
    RemoteClient,
    ServiceAPIError,
    ServiceHTTP,
    run_remote_round,
)
from repro.service.http import HttpError, HttpServer, Request, Response
from repro.service.state import SERVICE_TRANSPORTS, ServiceState

__all__ = [
    "OPERATOR_PRINCIPAL",
    "ROLE_CLIENT",
    "ROLE_OPERATOR",
    "SERVICE_TRANSPORTS",
    "HttpError",
    "HttpServer",
    "OperatorClient",
    "Principal",
    "RemoteClient",
    "ReproService",
    "Request",
    "Response",
    "ServiceAPIError",
    "ServiceApp",
    "ServiceHTTP",
    "ServiceState",
    "TokenBook",
    "run_remote_round",
]
