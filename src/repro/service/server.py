"""Asyncio NDJSON server wrapping a :class:`ColoringService`.

One :class:`ColoringServer` owns one service instance and speaks the
protocol in :mod:`repro.service.protocol` over ``asyncio.start_server``
streams: one JSON object per line in, one response line per request out,
in request order per connection.  Multiple connections are served
concurrently, and because they share the service they share its cache and
in-flight dedup — two clients asking for the same coloring at the same
time cost one backend run.

Malformed lines are answered with an error response (the connection stays
open); a ``shutdown`` request is acknowledged and then stops the accept
loop so :meth:`ColoringServer.serve_until_shutdown` returns cleanly.
"""

from __future__ import annotations

import asyncio

from repro.errors import ServiceError
from repro.service.protocol import (
    delta_from_wire,
    encode,
    error_response,
    graph_from_wire,
    ok_response,
    parse_request,
)
from repro.service.service import (
    ColoringRequest,
    ColoringService,
    DeltaRequest,
)

__all__ = ["ColoringServer", "STREAM_LIMIT"]

#: Per-connection stream buffer: request lines carry whole graphs, so the
#: asyncio default of 64 KiB would reject moderate instances.
STREAM_LIMIT = 2**26


class ColoringServer:
    """Serve a :class:`ColoringService` over newline-delimited JSON.

    Parameters
    ----------
    service:
        The (started or not-yet-started) service to expose.
    host / port:
        Bind address; ``port=0`` picks a free port, readable from
        :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        service: ColoringService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._handlers: set[asyncio.Task] = set()
        self._closing = False
        self.connections = 0

    async def start(self) -> "ColoringServer":
        """Start the service and begin accepting connections."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=STREAM_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop accepting, drop the listener, and close the service."""
        if self._server is not None:
            self._server.close()
            self._closing = True
            # End connections still open (a client idle in readline) here:
            # left to the event loop's teardown, their cancellation would be
            # reported as an unhandled error.
            for task in self._handlers:
                task.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self.service.close()
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`close`) arrives."""
        await self._shutdown.wait()
        await self.close()

    async def __aenter__(self) -> "ColoringServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    # -- connection handling ------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.connections += 1
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            if not self._closing:
                raise
            # Cancelled by close(): end the connection quietly.
        finally:
            self._handlers.discard(task)

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Line over STREAM_LIMIT or peer reset: drop connection.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self._respond(line)
                writer.write(encode(response))
                await writer.drain()
                if self._shutdown.is_set():
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, line: bytes) -> dict:
        try:
            request = parse_request(line)
        except ServiceError as exc:
            return error_response(None, str(exc))
        request_id = request.get("id")
        try:
            return await self._dispatch(request_id, request)
        except ServiceError as exc:
            return error_response(request_id, str(exc))

    async def _dispatch(self, request_id, request: dict) -> dict:
        op = request["op"]
        if op == "ping":
            return ok_response(request_id, pong=True)
        if op == "stats":
            return ok_response(request_id, stats=self.service.stats())
        if op == "shutdown":
            self._shutdown.set()
            return ok_response(request_id, shutting_down=True)
        if op == "delta":
            if "fingerprint" not in request:
                raise ServiceError("delta request is missing 'fingerprint'")
            if "delta" not in request:
                raise ServiceError("delta request is missing 'delta'")
            delta_request = DeltaRequest(
                fingerprint=request["fingerprint"],
                delta=delta_from_wire(request["delta"]),
                algorithm=request.get("algorithm", "V-V"),
                backend=request.get("backend"),
                threads=request.get("threads"),
                policy=request.get("policy", "U"),
            )
            delta_request.threads = self._coerce_threads(delta_request.threads)
            response = await self.service.submit_delta(delta_request)
            result = response.result
            return ok_response(
                request_id,
                colors=result.colors.tolist(),
                num_colors=result.num_colors,
                iterations=result.num_iterations,
                backend=response.backend,
                threads=response.threads,
                cached=response.cached,
                coalesced=response.coalesced,
                work_metrics=response.work_metrics,
                key=response.key,
                # The mutated graph's fingerprint: chain the next delta
                # off this value.
                fingerprint=response.key.split(":", 1)[0],
                frontier_size=response.frontier_size,
            )
        # op == "color"
        if "graph" not in request:
            raise ServiceError("color request is missing 'graph'")
        graph = graph_from_wire(request["graph"])
        coloring_request = ColoringRequest(
            graph=graph,
            algorithm=request.get("algorithm", "N1-N2"),
            backend=request.get("backend"),
            threads=request.get("threads"),
            policy=request.get("policy", "U"),
            ordering=request.get("ordering", "natural"),
            fastpath_mode=request.get("fastpath_mode", "exact"),
        )
        coloring_request.threads = self._coerce_threads(
            coloring_request.threads
        )
        response = await self.service.submit(coloring_request)
        result = response.result
        return ok_response(
            request_id,
            colors=result.colors.tolist(),
            num_colors=result.num_colors,
            iterations=result.num_iterations,
            backend=response.backend,
            threads=response.threads,
            cached=response.cached,
            coalesced=response.coalesced,
            work_metrics=response.work_metrics,
            key=response.key,
            # The graph's content fingerprint: send edge changes as delta
            # requests against this value (docs/incremental.md).
            fingerprint=response.key.split(":", 1)[0],
        )

    @staticmethod
    def _coerce_threads(threads):
        if threads is None:
            return None
        try:
            return int(threads)
        except (TypeError, ValueError):
            raise ServiceError(
                f"threads must be an integer, got {threads!r}"
            ) from None
