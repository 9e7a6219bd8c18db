"""repro.service — a long-running sweep server and its clients.

The paper's deliverable is a *function*: ``(problem size, machine,
stencil) → optimal allocation and speedup``.  This package serves that
function over JSON-over-HTTP with nothing beyond the standard library:

* :class:`SweepServer` (``repro serve``) — a threaded daemon holding
  one shared, size-bounded :class:`repro.batch.SweepCache`.  Identical
  concurrent requests coalesce on their cache fingerprint (one compute,
  many answers); every other cold request is computed at once in its
  own thread, bit-identical to the offline analysis layer.
* :class:`ServiceCore` — the socket-free request handler underneath:
  ``(method, path, headers, body)`` in, a response out.  Tests drive it
  without a network.
* :class:`ServiceClient` — typed requests (allocation curves, capacity
  plans, raw sweeps) with exact ``float`` round-tripping, so a curve
  fetched from the daemon equals the offline computation byte for byte.
  Transport is a thread-safe keep-alive connection pool with stale-
  socket replay and bounded exponential-backoff retry; array responses
  negotiate the zero-copy binary frame (:mod:`repro.service.frame`,
  ``Accept: application/x-repro-frame``); ``binary=False`` asks for
  base64-JSON instead.
* :class:`RemoteSweepCache` — a :class:`~repro.batch.SweepCache` whose
  slow tier is the daemon instead of a local directory; the experiment
  runner's ``--server`` routes every worker's sweeps through one warm,
  deduplicated store and still reports true hit/miss totals.

Usage::

    # one terminal (or a background thread in tests):
    #   python -m repro serve --port 8733 --cache-dir results/cache \
    #       --max-cache-mb 64
    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8733")
    curve = client.allocation_curve(
        "paper-bus", "5-point", "square", range(64, 4096, 64), integer=True
    )

The server answers from the shared cache whenever it can; the
response's ``served`` field says how (``memory``/``disk``/``coalesced``
/``computed``).
"""

from repro.service.client import RemoteSweepCache, ServiceClient, ServiceError
from repro.service.frame import FRAME_CONTENT_TYPE, FrameError, decode_frame, encode_frame, frame_bytes
from repro.service.schema import decode_arrays, encode_arrays
from repro.service.server import ServiceCore, SweepServer

__all__ = [
    "FRAME_CONTENT_TYPE",
    "FrameError",
    "RemoteSweepCache",
    "ServiceClient",
    "ServiceCore",
    "ServiceError",
    "SweepServer",
    "decode_arrays",
    "decode_frame",
    "encode_arrays",
    "encode_frame",
    "frame_bytes",
]
