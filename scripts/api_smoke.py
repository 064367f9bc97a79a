"""CI smoke for the serving layer: auth, replay, rate limit, restart.

Boots the bundled HTTP server on an ephemeral port (the same
:class:`repro.serve.BackgroundServer` the benchmarks use) against
throwaway cache/run-store roots, then checks the acceptance bar from
``docs/serving.md`` over real sockets with the standard library's
``http.client``:

* ``/healthz`` answers without credentials; everything else is 401
  without (or with a wrong) API key.
* An authenticated seeded request computes once, and the identical
  request replays **byte-identical** from the in-process memo
  (``X-Serve-Source: memo``).
* A *fresh server process state* on the same directories replays the
  same bytes from the persistent run store (``X-Serve-Source: store``)
  without recomputing.
* A burst beyond the token bucket draws 429 with an integral
  ``Retry-After``.
* Unknown slices are 404, oversized scales 400.
* The real ``python -m repro serve`` CLI, booted once in a child
  process, answers ``/healthz`` and exits 0 within 5 s of SIGTERM (the
  shutdown path a supervisor or the benchmark's server harness uses).

Run via ``make api-smoke``; any failed check exits non-zero.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

import repro
from repro.serve import BackgroundServer, ServeSettings, create_app

KEY = "smoke-key"
MARKET = "scale=0.004&seed=9&posts=false"
SUMMARY = f"/v1/dataset/summary?{MARKET}"
SLICE = f"/v1/slices/growth?{MARKET}"


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


class Client:
    """A tiny keep-alive HTTP client for one server."""

    def __init__(self, server):
        self.connection = http.client.HTTPConnection(
            server.host, server.port, timeout=600
        )

    def get(self, path, key=None):
        headers = {"x-api-key": key} if key else {}
        self.connection.request("GET", path, headers=headers)
        response = self.connection.getresponse()
        body = response.read()
        headers_map = {
            name.lower(): value for name, value in response.getheaders()
        }
        return response.status, headers_map, body

    def close(self):
        self.connection.close()


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="api-smoke-")
    settings = ServeSettings(
        api_keys=(KEY,),
        rate_capacity=30,
        rate_refill_per_second=2.0,
        cache_dir=f"{workdir}/cache",
        runs_dir=f"{workdir}/runs",
        use_fork=False,
    )

    with BackgroundServer(create_app(settings)) as server:
        client = Client(server)
        try:
            status, _, body = client.get("/healthz")
            check(status == 200 and json.loads(body)["status"] == "ok",
                  "/healthz answers without credentials")

            status, _, _ = client.get("/v1/meta")
            check(status == 401, "missing API key draws 401")
            status, _, _ = client.get("/v1/meta", key="wrong-key")
            check(status == 401, "wrong API key draws 401")

            status, headers, first_body = client.get(SUMMARY, key=KEY)
            check(status == 200
                  and headers.get("x-serve-source") == "computed",
                  "authenticated seeded request computes (200)")
            run_key = headers.get("x-run-key", "")
            check(len(run_key) == 64, "response names its run key")

            status, headers, replay_body = client.get(SUMMARY, key=KEY)
            check(status == 200 and headers.get("x-serve-source") == "memo",
                  "identical request replays from the memo")
            check(replay_body == first_body,
                  "memo replay is byte-identical")

            status, _, slice_body = client.get(SLICE, key=KEY)
            check(status == 200, "streaming slice endpoint answers")

            status, _, _ = client.get(f"/v1/slices/nope?{MARKET}", key=KEY)
            check(status == 404, "unknown slice draws 404")
            status, _, _ = client.get("/v1/dataset/summary?scale=9", key=KEY)
            check(status == 400, "oversized scale draws 400")

            limited = None
            for _ in range(40):
                status, headers, _ = client.get("/v1/meta", key=KEY)
                if status == 429:
                    limited = headers
                    break
            check(limited is not None, "burst beyond the bucket draws 429")
            check(int(limited.get("retry-after", "0")) >= 1,
                  "429 carries an integral Retry-After")
        finally:
            client.close()

    # A fresh app on the same directories: the persistent run store must
    # answer with the same bytes, without recomputing.
    with BackgroundServer(create_app(settings)) as server:
        client = Client(server)
        try:
            status, headers, body = client.get(SUMMARY, key=KEY)
            check(status == 200 and headers.get("x-serve-source") == "store",
                  "fresh server replays from the run store")
            check(body == first_body, "store replay is byte-identical")
            status, headers, body = client.get(SLICE, key=KEY)
            check(status == 200 and body == slice_body,
                  "slice replay is byte-identical across restart")
        finally:
            client.close()

    cli_shutdown(workdir)
    print("api smoke: all checks passed")


def cli_shutdown(workdir):
    """Boot ``python -m repro serve``, wait for ``/healthz``, SIGTERM it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--no-auth",
         "--port", str(port), "--cache-dir", f"{workdir}/cli-cache",
         "--runs-dir", f"{workdir}/cli-runs"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        healthy = False
        while (not healthy and proc.poll() is None
               and time.monotonic() < deadline):
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=5
            )
            try:
                connection.request("GET", "/healthz")
                healthy = connection.getresponse().status == 200
            except OSError:
                time.sleep(0.1)
            finally:
                connection.close()
        check(healthy, "the repro serve CLI answers /healthz")
        proc.terminate()
        try:
            code = proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            code = None
        check(code == 0, "the repro serve CLI exits 0 within 5 s of SIGTERM")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())
