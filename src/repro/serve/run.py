"""Lifecycle glue: boot the full serve stack, drain it, run it forever.

One canonical way to stand the service up, shared by the CLI
(``repro-hadoop serve``), the in-process spawn mode of
``repro-hadoop loadtest --spawn``, the ``serve.qps`` bench scenario,
and the tests — so every consumer gets the same drain semantics.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from ..mapreduce.config import DEFAULT_CONF, JobConf
from ..obs import slog
from .app import SimulationApp
from .http import HTTPServer
from .service import ServiceConfig, SimulationService

__all__ = ["ServerHandle", "start_stack", "stop_stack", "serve_forever"]


@dataclass
class ServerHandle:
    """A running server stack (use :func:`stop_stack` to tear down)."""

    service: SimulationService
    app: SimulationApp
    server: HTTPServer
    host: str
    port: int


async def start_stack(config: ServiceConfig,
                      host: str = "127.0.0.1", port: int = 0,
                      conf: JobConf = DEFAULT_CONF) -> ServerHandle:
    """Start service + HTTP server; returns the handle (real port)."""
    service = SimulationService(config, conf=conf)
    await service.start()
    app = SimulationApp(service)
    server = HTTPServer(app.handle)
    bound = await server.start(host, port)
    return ServerHandle(service=service, app=app, server=server,
                        host=host, port=bound)


async def stop_stack(handle: ServerHandle, graceful: bool = True) -> None:
    """Drain (or hard-stop) the HTTP layer, then the service."""
    if graceful:
        handle.service.draining = True       # healthz flips to 503 first
        await handle.server.drain(
            timeout_s=handle.service.config.drain_timeout_s)
        await handle.service.drain()
    else:
        await handle.server.close()
        await handle.service.stop()


async def serve_forever(config: ServiceConfig, host: str, port: int,
                        log: Callable[[str], None] = lambda m: print(
                            m, file=sys.stderr),
                        install_signals: bool = True,
                        ready: Optional[asyncio.Event] = None) -> int:
    """Run until SIGTERM/SIGINT, then drain gracefully; returns 0."""
    handle = await start_stack(config, host, port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:      # pragma: no cover - non-POSIX
                pass
    log(f"repro-hadoop serve: listening on http://{handle.host}:"
        f"{handle.port} ({config.workers} workers, "
        f"queue limit {config.queue_limit}, batch max {config.batch_max}, "
        f"{config.shards} cache shards"
        f"{', cache off' if config.no_cache else ''})")
    slog.emit("serve.start", host=handle.host, port=handle.port,
              workers=config.workers, queue_limit=config.queue_limit,
              batch_max=config.batch_max, telemetry=config.telemetry)
    if ready is not None:
        ready.set()
    await stop.wait()
    log("repro-hadoop serve: draining...")
    slog.emit("serve.drain.begin")
    await stop_stack(handle, graceful=True)
    stats = handle.service.stats
    served = int(sum(child.value for _labels, child
                     in stats.requests.children()))
    coalesced, shed = int(stats.coalesced.value), int(stats.shed.value)
    log(f"repro-hadoop serve: drained ({served} requests served, "
        f"{coalesced} coalesced, {shed} shed)")
    slog.emit("serve.drain.end", served=served,
              coalesced=coalesced, shed=shed)
    return 0
