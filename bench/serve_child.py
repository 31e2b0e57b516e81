"""The HTTP server of ``serve-16k``, in a process of its own.

Started by ``bench/serve.py`` as ``python -m bench.serve_child``.  Prints one
JSON line with the bound port once it serves, then obeys lines on standard
input: ``install`` / ``uninstall`` switch the span wrappers, ``stop`` (or
end of input, should the parent die) shuts everything down.  Spans are
written to ``--spans`` on the way out.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import common, serve
from bench.trace import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    common.pin_threads()

    from repro.serving import QueryServer, ServerConfig

    tracer = Tracer()
    if args.spans:
        tracer.install()  # set-up spans: generate, scores, CSR build
    net, _ = serve.build_session(args.scale, args.seed, tracer if args.spans else None)
    tracer.uninstall()
    server = QueryServer(net, ServerConfig(replicas=2, service={"workers": 1}))
    try:
        server.start()
        print(json.dumps({"port": server.address[1]}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "install":
                tracer.install()
            elif command == "uninstall":
                tracer.uninstall()
            elif command == "stop":
                break
            print("ok", flush=True)
    finally:
        server.close()
        net.close()
        tracer.uninstall()
        if args.spans:
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
