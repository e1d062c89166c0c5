"""Asyncio JSON-lines front end for the admission-control engine.

One :class:`ServeServer` owns a :class:`~repro.serve.engine.RequestEngine`
and exposes it over a line-delimited JSON socket protocol (one request
object per line, one response object per line, answered in request order
per connection) plus the in-process API the engine itself provides.

Protocol (requests)::

    {"op": "admit", "id": 7, "od": [0, 3], "u": 0.42, "t": 12.5, "w": 1}
    {"op": "release", "id": 7, "t": 13.1}
    {"op": "metrics"}                  -> {"op": "metrics", "text": ..., ...}
    {"op": "drain"}                    -> {"op": "drain", "ok": true}
    {"op": "ping"}                     -> {"op": "pong"}

Admit/release answers are the engine's :class:`Decision` as JSON.  ``t``
is the request's virtual timestamp (trace time under replay); omit it for
wall-clock operation.

Requests from *all* connections funnel through one micro-batcher: what
is submitted in one event-loop turn is decided in one
:meth:`~repro.serve.engine.RequestEngine.decide_batch` call on the next
turn (at once if ``max_batch`` queue up), so batches grow with load while
a lone request waits only for the work ahead of it.  If the queue is
already at the overload control's hard limit the request is answered
``shed`` immediately — the queue never grows without bound.

Lifecycle: :meth:`start` binds and serves; :meth:`drain` stops accepting
new connections and flushes every queued request; :meth:`stop` drains,
then closes live connections.  ``async with ServeServer(...)`` wraps the
pair.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from .engine import AdmitRequest, Decision, ReleaseRequest, RequestEngine

__all__ = ["ServeServer", "parse_request"]


def parse_request(message: dict) -> AdmitRequest | ReleaseRequest:
    """Build an engine request from one decoded protocol object."""
    op = message.get("op")
    if op == "admit":
        od = message["od"]
        if not isinstance(od, (list, tuple)) or len(od) != 2:
            raise ValueError(f"od must be a [origin, destination] pair, got {od!r}")
        return AdmitRequest(
            id=message["id"],
            od=(int(od[0]), int(od[1])),
            uniform=float(message.get("u", 0.0)),
            time=None if message.get("t") is None else float(message["t"]),
            width=int(message.get("w", 1)),
        )
    if op == "release":
        return ReleaseRequest(
            id=message["id"],
            time=None if message.get("t") is None else float(message["t"]),
        )
    raise ValueError(f"unknown op {op!r}")


class _MicroBatcher:
    """Accumulate requests across connections; flush when ``max_batch``
    queue up or on the event loop's next turn, whichever comes first."""

    def __init__(self, engine: RequestEngine):
        self.engine = engine
        self._pending: list[tuple[AdmitRequest | ReleaseRequest, asyncio.Future]] = []

    def submit(self, request: AdmitRequest | ReleaseRequest) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        engine = self.engine
        overload = engine.overload
        if (
            overload is not None
            and len(self._pending) >= overload.config.queue_limit
        ):
            # Hard bound: answer shed without queueing (and record it).
            now = request.time if request.time is not None else engine.clock()
            overload.classify(now, queue_depth=len(self._pending))
            engine.telemetry.counter("serve_rejected_total", reason="shed").inc()
            future.set_result(
                Decision(request.id, False, None, "none", "shed")
            )
            return future
        self._pending.append((request, future))
        engine.queue_depth = len(self._pending)
        if len(self._pending) >= engine.batch.max_batch:
            self.flush()
        elif len(self._pending) == 1:
            # First of a batch: decided, with whatever joins it this turn,
            # on the next turn (a call after an earlier flush finds nothing).
            loop.call_soon(self.flush)
        return future

    def flush(self) -> None:
        """Decide everything queued right now, resolving the futures."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        # The batch has left the queue: the depth the overload control sees
        # is the backlog still waiting behind it.
        self.engine.queue_depth = len(self._pending)
        decisions = self.engine.decide_batch([request for request, __ in batch])
        for (__, future), decision in zip(batch, decisions):
            if not future.done():
                future.set_result(decision)


class ServeServer:
    """The long-lived service: engine + micro-batcher + socket listener.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  ``publish_interval`` (seconds) periodically snapshots
    the engine's telemetry onto its bound event bus while serving.

    Two per-connection abuse bounds: a line longer than
    ``max_line_bytes`` or (with ``read_timeout`` set) a connection idle
    past the timeout gets one final error response and is disconnected —
    a stalled or hostile client never holds a reader task forever.
    """

    def __init__(
        self,
        engine: RequestEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        publish_interval: float | None = None,
        read_timeout: float | None = None,
        max_line_bytes: int = 1 << 16,
    ):
        if read_timeout is not None and read_timeout <= 0:
            raise ValueError("read_timeout must be positive when set")
        if max_line_bytes < 2:
            raise ValueError("max_line_bytes must allow at least one byte + newline")
        self.engine = engine
        self.host = host
        self.port = port
        self.publish_interval = publish_interval
        self.read_timeout = read_timeout
        self.max_line_bytes = max_line_bytes
        self.batcher = _MicroBatcher(engine)
        self._server: asyncio.AbstractServer | None = None
        self._publisher: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=self.max_line_bytes
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.publish_interval is not None:
            self._publisher = asyncio.create_task(self._publish_loop())
        self.engine.publish_metrics(phase="startup")
        return self.host, self.port

    async def drain(self) -> None:
        """Stop accepting connections and flush every queued request."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.batcher.flush()
        self.engine.publish_metrics(phase="drain")

    async def stop(self) -> None:
        """Drain, then close live connections and the telemetry publisher."""
        await self.drain()
        if self._publisher is not None:
            self._publisher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._publisher
            self._publisher = None
        for task in list(self._connections):
            task.cancel()
        for task in list(self._connections):
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._server = None
        self.engine.publish_metrics(phase="shutdown")

    async def __aenter__(self) -> "ServeServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _publish_loop(self) -> None:
        while True:
            await asyncio.sleep(self.publish_interval)
            self.engine.publish_metrics(phase="serving")

    # ----------------------------------------------------------- connection

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        outbox: asyncio.Queue = asyncio.Queue()
        pump = asyncio.create_task(self._pump(outbox, writer))
        try:
            while True:
                try:
                    if self.read_timeout is None:
                        line = await reader.readline()
                    else:
                        line = await asyncio.wait_for(
                            reader.readline(), self.read_timeout
                        )
                except TimeoutError:
                    await outbox.put({
                        "error": f"connection idle past {self.read_timeout:g}s"
                    })
                    break
                except ValueError:
                    # StreamReader's limit tripped: the line would exceed
                    # max_line_bytes.  One error answer, then disconnect.
                    await outbox.put({
                        "error": f"line exceeds {self.max_line_bytes} bytes"
                    })
                    break
                if not line:
                    break
                payload = self._receive(line)
                if payload is not None:
                    await outbox.put(payload)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            await outbox.put(None)
            with contextlib.suppress(Exception):
                await pump
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            self._connections.discard(task)

    def _receive(self, line: bytes):
        """One inbound line -> a response dict or an awaitable of one."""
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"error": f"malformed JSON: {exc.msg}"}
        op = message.get("op")
        if op == "ping":
            return {"op": "pong"}
        if op == "metrics":
            snapshot = self.engine.telemetry.snapshot()
            return {"op": "metrics", "text": self.engine.metrics_text(),
                    "snapshot": snapshot}
        if op == "drain":
            self.batcher.flush()
            return {"op": "drain", "ok": True}
        if self._draining:
            return {"error": "draining", "id": message.get("id")}
        try:
            request = parse_request(message)
        except (KeyError, TypeError, ValueError) as exc:
            return {"error": str(exc), "id": message.get("id")}
        return self.batcher.submit(request)

    @staticmethod
    async def _pump(outbox: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        """Write responses in request order; decisions resolve in batches."""
        while True:
            item = await outbox.get()
            if item is None:
                break
            if isinstance(item, asyncio.Future):
                decision: Decision = await item
                payload = decision.to_json()
            else:
                payload = item
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
