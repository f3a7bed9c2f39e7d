"""Start ``repro.serve`` and leave no process behind when it stops.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py [--spans FILE] [repro.serve options]

The launcher calls ``repro.serve.main`` with the remaining options.  When
the server shuts down it stops the ``multiprocessing`` resource tracker
(started by the process tier's shared-memory segments) and waits for it,
so the server exits with no child of its own still running.

With ``--spans FILE`` it first wraps each service layer's public function
at the attribute its caller looks up, and on shutdown writes every span and
the server's peak resident set size to FILE as one JSON document.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro.core.backends  # noqa: E402
import repro.serve  # noqa: E402
import repro.service.server as server  # noqa: E402
import repro.service.service as service  # noqa: E402

from common import Spans, peak_rss_mb, stop_resource_tracker  # noqa: E402


def _backend(args, kwargs):
    return {"backend": kwargs.get("backend")}


def _install_spans() -> Spans:
    spans = Spans()
    for fn in ("parse_request", "graph_from_wire", "delta_from_wire"):
        spans.wrap(server, fn, "service.protocol.parse")
    spans.wrap(server, "encode", "service.encode")
    spans.wrap(service, "request_key", "service.fingerprint")
    spans.wrap(service, "apply_delta", "incremental.apply")
    spans.wrap(service, "color_bgpc", "service.run", attrs_of=_backend)
    spans.wrap(service, "recolor_incremental", "service.run", attrs_of=_backend)
    spans.wrap_engine(repro.core.backends)
    return spans


def main(argv: list[str]) -> int:
    spans_path = None
    if "--spans" in argv:
        at = argv.index("--spans")
        spans_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    spans = _install_spans() if spans_path is not None else None
    try:
        rc = repro.serve.main(argv)
    finally:
        stop_resource_tracker()
    if spans is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans.records, "peak_rss_mb": peak_rss_mb()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
