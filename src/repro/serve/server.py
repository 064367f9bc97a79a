"""A small asyncio HTTP/1.1 server for the bundled ASGI app.

No third-party server is available in this environment, so this module
speaks just enough HTTP/1.1 to run :mod:`repro.serve` for real:
request-line + header parsing, ``Content-Length`` bodies, keep-alive
with an idle timeout, and a bounded header/body size.  The app is never
trusted to be fast — the server only *awaits* it, and the app pushes
blocking work to its executor — and never trusted to be correct: any
exception escaping the app becomes a plain 500 and the connection
closes.

:class:`BackgroundServer` runs the same loop on a daemon thread for the
benchmark harness and smoke tests (``port=0`` picks a free port).
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from .asgi import App

__all__ = ["serve_forever", "BackgroundServer"]

#: Read limits: a request line + headers block, and a JSON body.
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds an idle keep-alive connection is held open.
_IDLE_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; ``None`` on EOF/timeout/overflow/garbage."""
    try:
        blob = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=_IDLE_TIMEOUT
        )
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        asyncio.TimeoutError,
        ConnectionError,
    ):
        return None
    try:
        head = blob.decode("latin-1")
        request_line, *header_lines = head.split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        return None
    headers: Dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        return None
    if length < 0 or length > _MAX_BODY_BYTES:
        return None
    body = b""
    if length:
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=_IDLE_TIMEOUT
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            return None
    return method, target, headers, body


async def _run_app(
    app: App,
    method: str,
    target: str,
    headers: Dict[str, str],
    body: bytes,
    client: Tuple[str, int],
) -> Tuple[int, List[Tuple[bytes, bytes]], bytes]:
    """Drive the ASGI app for one request; always returns a response."""
    path, _, query = target.partition("?")
    scope = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": method.upper(),
        "path": path,
        "raw_path": path.encode("latin-1"),
        "query_string": query.encode("latin-1"),
        "headers": [
            (name.encode("latin-1"), value.encode("latin-1"))
            for name, value in headers.items()
        ],
        "client": client,
    }
    messages: List[Dict[str, Any]] = []
    delivered = {"done": False}

    async def receive() -> Dict[str, Any]:
        if delivered["done"]:
            return {"type": "http.disconnect"}
        delivered["done"] = True
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message: Dict[str, Any]) -> None:
        messages.append(message)

    try:
        await app(scope, receive, send)
    except Exception:  # robust: the app already converts its own errors; this guards the server against a broken app so one connection failure cannot kill the accept loop
        return 500, [(b"content-type", b"application/json")], (
            b'{"error":"internal server error","status":500}'
        )
    status = 500
    response_headers: List[Tuple[bytes, bytes]] = [
        (b"content-type", b"application/json")
    ]
    chunks: List[bytes] = []
    for message in messages:
        if message["type"] == "http.response.start":
            status = int(message["status"])
            response_headers = list(message.get("headers") or [])
        elif message["type"] == "http.response.body":
            chunks.append(message.get("body") or b"")
    return status, response_headers, b"".join(chunks)


def _connection_handler(
    app: App,
) -> Callable[[asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]]:
    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername") or ("", 0)
        client = (str(peer[0]), int(peer[1])) if len(peer) >= 2 else ("", 0)
        try:
            while True:
                parsed = await _read_request(reader)
                if parsed is None:
                    break
                method, target, headers, body = parsed
                status, response_headers, payload = await _run_app(
                    app, method, target, headers, body, client
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                head_lines = [
                    f"HTTP/1.1 {status} {_reason(status)}".encode("latin-1")
                ]
                for name, value in response_headers:
                    head_lines.append(name + b": " + value)
                head_lines.append(
                    b"content-length: " + str(len(payload)).encode("ascii")
                )
                head_lines.append(
                    b"connection: "
                    + (b"keep-alive" if keep_alive else b"close")
                )
                writer.write(b"\r\n".join(head_lines) + b"\r\n\r\n" + payload)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # a client hanging up mid-write is routine under load
        finally:
            try:
                writer.close()
            except Exception:  # robust: double-close on an already-reset socket raises on some platforms; shutdown must be quiet
                pass

    return handle


async def _serve(app: App, host: str, port: int, stop_event: asyncio.Event,
                 started: Optional["_StartedCallback"] = None) -> None:
    server = await asyncio.start_server(
        _connection_handler(app),
        host=host,
        port=port,
        limit=_MAX_HEADER_BYTES,
        backlog=1024,
    )
    sockets = server.sockets or []
    bound_port = sockets[0].getsockname()[1] if sockets else port
    if started is not None:
        started(bound_port)
    async with server:
        await stop_event.wait()


_StartedCallback = Callable[[int], None]


def serve_forever(app: App, host: str = "127.0.0.1", port: int = 8151) -> None:
    """Run the server until SIGINT or SIGTERM (the CLI entry point).

    Both signals get loop handlers that end the server cleanly, also
    when SIGINT was inherited as ignored, as it is for a background job
    of a non-interactive shell.
    """

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await _serve(app, host, port, stop)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # Ctrl-C before the loop's handlers are installed


class BackgroundServer:
    """The same server on a daemon thread, for harnesses and tests.

    Use as a context manager; ``port=0`` binds an ephemeral port,
    exposed as :attr:`port` / :attr:`base_url` once ``__enter__``
    returns.
    """

    def __init__(
        self, app: App, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _main(self) -> None:
        async def runner() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def started(bound_port: int) -> None:
                self.port = bound_port
                self._ready.set()

            await _serve(
                self.app, self.host, self.port, self._stop, started=started,
            )

        asyncio.run(runner())

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-bg", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("background server failed to start")
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        return False
