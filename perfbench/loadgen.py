"""Open-loop HTTP client for the ``serve`` workload; runs as its own process.

    python3 perfbench/loadgen.py PLAN.json RESULT.json

``PLAN.json`` names the server and lists, per connection, requests as
``[offset_s, key_class, path]``.  Each connection is one keep-alive
socket driven by one thread.  A request goes out at its due time, or as
soon as the previous response is in if that is later, and its latency
is measured from the due time, so a stall also charges every request
queued behind it.  ``RESULT.json`` holds one record per request:
connection, index, key class, path, status, ``X-Serve-Source``, body
sha256, then the due, sent and done offsets in seconds (``null`` when
never sent) and an error message.
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Tuple


def _read_response(sock: socket.socket, buf: bytes) -> Tuple[int, str, bytes, bytes]:
    """One HTTP/1.1 response: status, source header, body, leftover bytes."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    head, _, buf = buf.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length, source = 0, ""
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
        elif name == b"x-serve-source":
            source = value.strip().decode("latin-1")
    while len(buf) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-body")
        buf += chunk
    return status, source, buf[:length], buf[length:]


def _drive(conn_id: int, schedule: List[list], plan: Dict[str, Any],
           t0: float, deadline: float, out: List[list]) -> None:
    host, port, key = plan["host"], plan["port"], plan["api_key"]
    sock = None
    buf = b""
    for index, (offset, cls, path) in enumerate(schedule):
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        if sent > deadline:
            out.append([conn_id, index, cls, path, 0, "", "", offset, None,
                        None, "deadline passed before sending"])
            continue
        request = (f"GET {path} HTTP/1.1\r\nhost: {host}\r\n"
                   f"x-api-key: {key}\r\n\r\n").encode("latin-1")
        try:
            if sock is None:
                sock = socket.create_connection((host, port),
                                                timeout=deadline - sent)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(max(deadline - sent, 0.001))
            sock.sendall(request)
            status, source, body, buf = _read_response(sock, buf)
        except (OSError, ValueError, IndexError) as exc:
            out.append([conn_id, index, cls, path, 0, "", "", offset,
                        sent - t0, time.perf_counter() - t0, repr(exc)])
            if sock is not None:
                sock.close()
            sock, buf = None, b""
            continue
        done = time.perf_counter()
        out.append([conn_id, index, cls, path, status, source,
                    hashlib.sha256(body).hexdigest(), offset, sent - t0,
                    done - t0, ""])
    if sock is not None:
        sock.close()


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    t0 = time.perf_counter() + 0.2
    deadline = t0 + plan["duration_s"] + plan["grace_s"]
    outs: List[List[list]] = [[] for _ in plan["connections"]]
    threads = [
        threading.Thread(target=_drive,
                         args=(i, schedule, plan, t0, deadline, outs[i]))
        for i, schedule in enumerate(plan["connections"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump({"records": [r for out in outs for r in out]}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
