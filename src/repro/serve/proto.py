"""The serving wire protocol, shared by the stdio and network front-ends.

Both ``python -m repro.serve`` (stdio JSON-lines) and
:class:`repro.serve.net.NetServer` (TCP/HTTP) speak the same frames:

Request::

    {"id": 1, "program": "normalize", "value": {"orset": [...]}}
    {"id": 2, "program": "normalize", "values": [{...}, {...}]}
    {"id": 3, "op": "count", "program": "normalize", "value": {...}}
    {"id": 4, "op": "stats"}

Response::

    {"id": 1, "result": {...}}
    {"id": 2, "results": [{...}, {...}]}
    {"id": 3, "result": {"count": 4, "approximate": false}}
    {"id": 4, "stats": {...}}
    {"id": 1, "error": "...", "code": "overloaded", "retry_after": 0.05}

Every failure is a *structured* error frame: the ``code`` names which
admission or evaluation guard fired (``overloaded`` / ``deadline`` /
``cost`` / ``closed`` / ``malformed`` / ``oversized`` / ``error``), and
overload frames carry the ``retry_after`` hint clients should back off
by.  :func:`error_frame` is the single exception→frame mapping;
:data:`HTTP_STATUS` maps the same codes onto HTTP status lines for the
network front-end's ``POST /run`` path.
"""

from __future__ import annotations

import json

from repro.errors import (
    CostBudgetExceeded,
    DeadlineExceeded,
    Overloaded,
    OrNRAError,
    OrNRAValueError,
)
from repro.serve.server import ServerClosed

__all__ = ["DEFAULT_MAX_LINE", "error_frame", "HTTP_STATUS", "loads_frame"]

#: Default cap on one request line (1 MiB of text).
DEFAULT_MAX_LINE = 1 << 20

#: Error-frame ``code`` → HTTP status for the network front-end.
HTTP_STATUS = {
    "malformed": 400,
    "cost": 413,
    "overloaded": 429,
    "error": 500,
    "closed": 503,
    "deadline": 504,
    "oversized": 431,
}


def loads_frame(text: "str | bytes") -> object:
    """Parse one request frame's JSON text.

    Nesting too deep for the JSON decoder itself is a malformed frame,
    like nesting past :data:`repro.io.MAX_VALUE_DEPTH` at value decode.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise OrNRAValueError("malformed request frame: nested too deep") from None


def error_frame(exc: BaseException) -> dict:
    """The structured error payload for one failed request."""
    if isinstance(exc, Overloaded):
        return {
            "error": str(exc),
            "code": "overloaded",
            "retry_after": exc.retry_after,
        }
    if isinstance(exc, DeadlineExceeded):
        return {"error": str(exc), "code": "deadline"}
    if isinstance(exc, CostBudgetExceeded):
        return {"error": str(exc), "code": "cost"}
    if isinstance(exc, ServerClosed):
        return {"error": str(exc), "code": "closed"}
    if isinstance(exc, (json.JSONDecodeError, KeyError, OrNRAError)):
        return {"error": str(exc), "code": "malformed"}
    return {"error": str(exc), "code": "error"}
