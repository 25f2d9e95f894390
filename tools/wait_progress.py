#!/usr/bin/env python3
"""Block until a running audit_server or audit_router has done enough work.

The CI drills kill a process mid-run. A fixed sleep before the kill races
the load generator: on a fast machine the whole run can finish first. This
script polls the `stats` verb instead and returns once a counter reaches a
target, so the kill lands while traffic is still flowing:

    python3 tools/wait_progress.py --port=7460 \\
        --key=router.forwarded_requests --at=2880
    python3 tools/wait_progress.py --port=7457 --key=shards.processed --at=192

`--key` is a dotted path into the stats response; a list along the path is
summed over its elements (`shards.processed` adds up every shard). Frames
are a 4-byte big-endian payload length followed by the JSON payload.

Exit codes: 0 target reached, 1 not reached within 60 s, 2 bad arguments.
"""

import argparse
import json
import socket
import struct
import sys
import time

TIMEOUT_S = 60.0  # a drill whose run stalls this long has failed anyway
POLL_S = 0.05


def read_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("connection closed")
        data += chunk
    return data


def query_stats(port):
    with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
        payload = json.dumps({"verb": "stats", "id": 1}).encode()
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        (length,) = struct.unpack(">I", read_exact(sock, 4))
        return json.loads(read_exact(sock, length))


def lookup(node, parts):
    if not parts:
        return float(node)
    if isinstance(node, list):
        return sum(lookup(item, parts) for item in node)
    return lookup(node[parts[0]], parts[1:])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--key", required=True,
                        help="dotted path of the counter in the stats reply")
    parser.add_argument("--at", type=float, required=True,
                        help="return once the counter is at least this")
    args = parser.parse_args()

    parts = args.key.split(".")
    deadline = time.monotonic() + TIMEOUT_S
    value = None
    while time.monotonic() < deadline:
        try:
            value = lookup(query_stats(args.port), parts)
        except (OSError, ValueError, KeyError, TypeError, struct.error):
            value = None
        if value is not None and value >= args.at:
            print(f"wait_progress: {args.key} = {value:.0f} >= {args.at:.0f}")
            return 0
        time.sleep(POLL_S)
    print(f"wait_progress: {args.key} never reached {args.at:.0f} within "
          f"{TIMEOUT_S:.0f}s (last {value})", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
