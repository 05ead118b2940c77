"""Serve one ``ServiceSpec`` overlay over TCP until stdin closes.

Run by the wire benchmark as a child process::

    PYTHONPATH=src python3 wirebench/server.py --n 200

It builds the service (imports, dataset, framework placement,
distances, substrate), binds an ephemeral port on 127.0.0.1, prints
``READY <port>`` and serves until its stdin reaches end of file.
"""

from __future__ import annotations

import argparse
import sys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True, help="overlay size")
    args = parser.parse_args()

    from repro.net import ServiceSpec, serve_in_background

    service = ServiceSpec(n=args.n).build()
    service.prepare()
    with serve_in_background(service) as handle:
        print(f"READY {handle.address[1]}", flush=True)
        sys.stdin.buffer.read()


if __name__ == "__main__":
    main()
