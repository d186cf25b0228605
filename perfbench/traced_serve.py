"""Adapter server entry point for traced pet-adapter runs.

Serves the default toy backend over stdio, as
``python -m pairshot.backend.serve`` does, with the backend shims
installed and ``BackendServer.handle`` timed: its spans are the
server's busy time.  When the client closes the pipe or terminates the
server, the span summary and the spans are written to the given files.
"""

import argparse
import json
import signal
import sys
from pathlib import Path

from tracer import HANDLE, Shims, Tracer, install_backend_shims


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    shims = Shims(tracer)
    install_backend_shims(shims)
    from pairshot.backend.serve import BackendServer, serve_stdio

    original = BackendServer.handle

    def handle(self, request):
        index = tracer.begin(HANDLE)
        if isinstance(request, dict):
            tracer.annotate(request=request.get("id"), verb=request.get("verb"))
        try:
            return original(self, request)
        finally:
            tracer.end(index)

    shims.replace(BackendServer, "handle", handle)
    # SubprocessTransport.close() terminates the server; leave through
    # the finally block below so the trace is written.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    try:
        serve_stdio(BackendServer())
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        summary = Path(args.summary)
        tmp = summary.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.summary()), encoding="utf-8")
        tmp.replace(summary)
        tracer.write_spans(Path(args.spans), "server")
    return 0


if __name__ == "__main__":
    sys.exit(main())
