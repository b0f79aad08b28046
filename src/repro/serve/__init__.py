"""Long-running ingest service: ``repro serve`` (see docs/SERVE.md).

The batch CLI replays a pre-materialized stream; this package accepts the
stream *live*.  An asyncio TCP server (:mod:`repro.serve.server`) takes
line-JSON edge submissions from many concurrent clients, admits them
through one pending window (:mod:`repro.serve.admission`: a submission
that would overfill the window of admitted-but-not-yet-visible edges
waits), cuts them into micro-batches (at a size cap, or at once when the
pipeline is idle), and drives the existing
:class:`~repro.pipeline.runner.StreamingPipeline` one
:meth:`~repro.pipeline.runner.StreamingPipeline.step` at a time on a
dedicated thread.  Queries (PageRank top-k, triangle count, vertex degree)
are answered between steps from the latest completed snapshot, stamped
with an ingest-to-visible watermark.

:mod:`repro.serve.client` provides the protocol client and the load
generator behind ``repro loadgen``; :mod:`repro.serve.smoke` is the
end-to-end smoke (``make serve-smoke``).
"""

from .admission import AdmissionController, MicroBatcher
from .client import ServeClient, run_loadgen
from .server import ServeServer, ServeSettings, start_server_thread

__all__ = [
    "AdmissionController",
    "MicroBatcher",
    "ServeClient",
    "ServeServer",
    "ServeSettings",
    "run_loadgen",
    "start_server_thread",
]
