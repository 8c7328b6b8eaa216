"""The asyncio job server: admission, dispatch, streaming, recovery.

One :class:`JobServer` owns the whole serving stack:

* an asyncio TCP listener speaking the :mod:`~repro.serve.protocol`
  NDJSON dialect, with ``GET /metrics`` HTTP scrapes detected on the
  same port;
* an :class:`~repro.serve.admission.AdmissionController` bounding
  queued-plus-running work, rejecting the overflow with 429-style
  responses carrying ``retry_after``;
* ``exec_threads`` dispatcher coroutines feeding a thread pool that
  runs :func:`~repro.serve.jobs.execute_job` — the journaled, retried,
  degradable execution core;
* one :class:`~repro.core.shared.SharedPrefixStore` passed to every
  eligible job, so concurrent jobs on the same circuit family adopt
  each other's prefix states bit-identically instead of recomputing;
* crash recovery: on startup every job directory with a committed spec
  but no terminal file is re-admitted (``force=True``, its admission
  was already journaled) and resumes from its run journal with zero
  recompute of committed trials.

Deadlines: a job with ``timeout`` is raced against the clock; on expiry
the server sets the job's cooperative stop event and waits for
:class:`~repro.core.executor.RunInterrupted`, which by contract arrives
only after the journal tail is committed — a timed-out job is marked
``interrupted`` and is resumable, never torn.

Shutdown: ``request_shutdown("drain")`` stops admitting and lets the
backlog finish; ``"stop"`` additionally fires every running job's stop
event.  SIGTERM/SIGINT map to ``"stop"`` — kill-resumable beats
drain-forever for an operator signal.  A SIGKILL, of course, runs none
of this; that is what the recovery scan is for, and what the chaos
suite proves.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..core.atomicio import atomic_write_json
from ..core.executor import RunInterrupted
from ..core.shared import SharedPrefixStore
from .admission import AdmissionController, QueueFull
from .jobs import JobRecord, JobSpec, JobStore, execute_job
from .protocol import (
    OPENMETRICS_CONTENT_TYPE,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    http_response,
    ok_response,
)
from .registry import (
    JOBS_FAMILY,
    QUEUE_FAMILY,
    RUNNING_FAMILY,
    SECONDS_FAMILY,
    TRIALS_FAMILY,
    build_serve_registry,
    render_serve_metrics,
)

__all__ = ["ServeConfig", "JobServer", "run_server"]


class ServeConfig:
    """Everything a :class:`JobServer` needs, with service defaults.

    ``exec_threads`` defaults to 1: a single executor maximizes
    cross-job prefix-store hits (jobs on the same family run back to
    back against a warm store) and keeps trial streams strictly
    ordered.  Raise it for throughput when jobs rarely share circuits.
    ``shared_budget_bytes`` caps the cross-job prefix store, which evicts
    its least-recently-used entries past the cap (``None``: unbounded).
    """

    def __init__(
        self,
        state_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 16,
        exec_threads: int = 1,
        shared_budget_bytes: Optional[int] = 256 * 1024 * 1024,
        retry_base: float = 0.05,
        retry_cap: float = 1.0,
        install_signal_handlers: bool = False,
    ) -> None:
        self.state_dir = os.fspath(state_dir)
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.exec_threads = exec_threads
        self.shared_budget_bytes = shared_budget_bytes
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.install_signal_handlers = install_signal_handlers


class JobServer:
    """The long-lived serving process (one per state directory)."""

    def __init__(self, config: ServeConfig, chaos=None) -> None:
        self.config = config
        self.chaos = chaos
        self.store = JobStore(config.state_dir)
        self.registry = build_serve_registry()
        self.admission = AdmissionController(
            max_pending=config.max_pending,
            exec_threads=config.exec_threads,
        )
        self.shared = SharedPrefixStore(config.shared_budget_bytes)
        self.jobs: Dict[str, JobRecord] = {}
        self._stops: Dict[str, threading.Event] = {}
        self._streams: Dict[str, List[asyncio.Queue]] = {}
        self._done_events: Dict[str, asyncio.Event] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._closing = False
        self._stop_mode = "drain"
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatchers: List[asyncio.Task] = []
        self.port: Optional[int] = None

    # -- metrics helpers ---------------------------------------------------

    def _count_job(self, state: str, value: int = 1) -> None:
        self.registry.counter(JOBS_FAMILY, labels=("state",)).inc(
            value, state=state
        )

    def _update_load_gauges(self) -> None:
        queue = self.registry.gauge(QUEUE_FAMILY, labels=("cls",))
        queue.set(self.admission.depth("interactive"), cls="interactive")
        queue.set(self.admission.depth("batch"), cls="batch")
        self.registry.gauge(RUNNING_FAMILY).set(self.admission.running)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Recover, bind, publish the endpoint, start dispatching."""
        loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.exec_threads,
            thread_name_prefix="repro-serve",
        )
        pending, finished = self.store.recover()
        for record in finished:
            self.jobs[record.job_id] = record
            self._done_events[record.job_id] = asyncio.Event()
            self._done_events[record.job_id].set()
        for record in pending:
            self.jobs[record.job_id] = record
            self._done_events[record.job_id] = asyncio.Event()
            self.admission.submit(record, force=True)
            self._count_job("recovered")
        self._update_load_gauges()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        atomic_write_json(
            self.store.endpoint_path(),
            {"host": self.config.host, "port": port, "pid": os.getpid()},
        )
        # Publish the port only after endpoint.json exists: anyone who
        # sees a bound server can rely on discovery working.
        self.port = port
        for _ in range(self.config.exec_threads):
            self._dispatchers.append(loop.create_task(self._dispatch()))
        if self.config.install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    sig, self.request_shutdown, "stop"
                )
        if pending:
            self._wakeup.set()

    def request_shutdown(self, mode: str = "drain") -> None:
        """Begin shutdown: ``drain`` finishes the backlog, ``stop``
        interrupts running jobs at their next instruction boundary."""
        if mode not in ("drain", "stop"):
            raise ValueError(f"unknown shutdown mode {mode!r}")
        self._closing = True
        self._stop_mode = mode
        if mode == "stop":
            for stop in self._stops.values():
                stop.set()
        if self._wakeup is not None:
            self._wakeup.set()

    async def serve_forever(self) -> None:
        """Run until a shutdown request fully lands, then clean up."""
        assert self._server is not None, "call start() first"
        try:
            while self._dispatchers:
                done, _ = await asyncio.wait(
                    self._dispatchers, return_when=asyncio.FIRST_COMPLETED
                )
                self._dispatchers = [
                    task for task in self._dispatchers if task not in done
                ]
                for task in done:
                    task.result()  # surface dispatcher crashes loudly
        finally:
            self._server.close()
            await self._server.wait_closed()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self.shared.close()
            try:
                os.remove(self.store.endpoint_path())
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self) -> None:
        assert self._wakeup is not None
        loop = asyncio.get_running_loop()
        while True:
            record = self.admission.pop()
            if record is None:
                self._wakeup.clear()
                # Re-check after clearing: a submit may have raced it.
                if self.admission.depth() == 0:
                    if self._closing and self.admission.running == 0:
                        return
                    await self._wakeup.wait()
                continue
            self._update_load_gauges()
            record.state = "running"
            stop = threading.Event()
            if self._closing and self._stop_mode == "stop":
                stop.set()
            self._stops[record.job_id] = stop
            started = time.monotonic()
            try:
                await self._run_one(loop, record, stop)
            finally:
                self._stops.pop(record.job_id, None)
                self.admission.finished()
                self._update_load_gauges()
                self.registry.histogram(
                    SECONDS_FAMILY, labels=("priority",)
                ).observe(
                    time.monotonic() - started,
                    priority=record.spec.priority,
                )
                self._done_events[record.job_id].set()
                self._wakeup.set()

    async def _run_one(
        self, loop: asyncio.AbstractEventLoop, record: JobRecord, stop
    ) -> None:
        def on_trial(index: int, bits: str) -> None:
            loop.call_soon_threadsafe(
                self._broadcast,
                record.job_id,
                {
                    "event": "trial",
                    "job_id": record.job_id,
                    "trial": index,
                    "bits": bits,
                },
            )

        future = loop.run_in_executor(
            self._pool,
            lambda: execute_job(
                record,
                self.store,
                shared=self.shared,
                stop=stop,
                on_trial=on_trial,
                chaos=self.chaos,
                retry_base=self.config.retry_base,
                retry_cap=self.config.retry_cap,
            ),
        )
        deadline_fired = False
        try:
            if record.spec.timeout is None:
                payload = await future
            else:
                try:
                    payload = await asyncio.wait_for(
                        asyncio.shield(future), record.spec.timeout
                    )
                except asyncio.TimeoutError:
                    # Ask the run to stop; one that returns anyway
                    # finished first and is reported as a completion.
                    deadline_fired = True
                    stop.set()
                    payload = await future
        except RunInterrupted as exc:
            cause = (
                f"deadline of {record.spec.timeout}s exceeded"
                if deadline_fired
                else "interrupted by shutdown"
            )
            record.state = "interrupted"
            record.error = f"{cause} ({exc.trials_completed} trials committed)"
            self._report_error(record)
            return
        except Exception as exc:  # noqa: BLE001 - execute_job's terminal raise
            record.state = "failed"
            if record.error is None:
                record.error = f"{type(exc).__name__}: {exc}"
            self._report_error(record)
            return
        self._count_job("completed")
        trials = self.registry.counter(TRIALS_FAMILY, labels=("kind",))
        trials.inc(record.trials_streamed, kind="streamed")
        journal = payload.get("journal") or {}
        if journal.get("replayed_trials"):
            trials.inc(journal["replayed_trials"], kind="replayed")
        self._broadcast(
            record.job_id,
            {"event": "done", "job_id": record.job_id, "result": payload},
        )

    def _report_error(self, record: JobRecord) -> None:
        self._count_job(record.state)
        self._broadcast(
            record.job_id,
            {
                "event": "error",
                "job_id": record.job_id,
                "state": record.state,
                "message": record.error,
            },
        )

    # -- streaming ---------------------------------------------------------

    def _broadcast(self, job_id: str, event: Dict[str, Any]) -> None:
        for queue in self._streams.get(job_id, []):
            queue.put_nowait(event)

    def _subscribe(self, job_id: str) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._streams.setdefault(job_id, []).append(queue)
        return queue

    def _unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        queues = self._streams.get(job_id)
        if queues and queue in queues:
            queues.remove(queue)
            if not queues:
                self._streams.pop(job_id, None)

    # -- connections -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            if line.startswith(b"GET ") or line.startswith(b"HEAD "):
                await self._handle_http(line, reader, writer)
                return
            while line:
                keep_open = await self._handle_request(line, reader, writer)
                if not keep_open:
                    return
                line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; jobs are unaffected
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # Drain the header block; the scrape dialect ignores it.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        parts = request_line.decode("ascii", "replace").split()
        path = parts[1] if len(parts) > 1 else "/"
        if path.split("?")[0] == "/metrics":
            body = render_serve_metrics(self.registry, shared=self.shared)
            writer.write(http_response(200, body, OPENMETRICS_CONTENT_TYPE))
        else:
            writer.write(
                http_response(404, "not found\n", "text/plain; charset=utf-8")
            )
        await writer.drain()

    async def _handle_request(
        self,
        line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Process one NDJSON request; returns False to close the socket."""
        try:
            payload = decode_line(line)
        except ProtocolError as exc:
            await self._send(writer, error_response("bad_request", str(exc)))
            return True
        op = payload.get("op")
        if op == "ping":
            await self._send(
                writer, ok_response(pong=True, pid=os.getpid())
            )
            return True
        if op == "submit":
            return await self._handle_submit(payload, writer)
        if op == "status":
            record = self.jobs.get(str(payload.get("id")))
            if record is None:
                await self._send(
                    writer, error_response("not_found", "unknown job id")
                )
            else:
                await self._send(writer, ok_response(**record.status()))
            return True
        if op == "result":
            return await self._handle_result(payload, writer)
        if op == "list":
            await self._send(
                writer,
                ok_response(
                    jobs=[
                        self.jobs[job_id].status()
                        for job_id in sorted(self.jobs)
                    ],
                    queue_depth=self.admission.depth(),
                    running=self.admission.running,
                ),
            )
            return True
        if op == "metrics":
            await self._send(
                writer,
                ok_response(
                    metrics=render_serve_metrics(
                        self.registry, shared=self.shared
                    )
                ),
            )
            return True
        if op == "shutdown":
            mode = str(payload.get("mode", "drain"))
            try:
                self.request_shutdown(mode)
            except ValueError as exc:
                await self._send(
                    writer, error_response("bad_request", str(exc))
                )
                return True
            await self._send(writer, ok_response(shutting_down=True, mode=mode))
            return False
        await self._send(
            writer, error_response("bad_request", f"unknown op {op!r}")
        )
        return True

    async def _handle_submit(
        self, payload: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        if self._closing:
            await self._send(
                writer,
                error_response(
                    "shutting_down",
                    "server is draining and admits no new jobs",
                ),
            )
            return True
        try:
            spec = JobSpec.from_dict(payload.get("spec") or {})
        except (ValueError, TypeError) as exc:
            await self._send(writer, error_response("bad_request", str(exc)))
            return True
        record = self.store.admit(spec)
        try:
            position = self.admission.submit(record)
        except QueueFull as exc:
            # The spec directory stays on disk but holds no journal and
            # no terminal file; mark it rejected so recovery skips it.
            self.store.commit_error(
                record.job_id,
                {
                    "job_id": record.job_id,
                    "message": "rejected: queue full",
                    "attempts": 0,
                },
            )
            self._count_job("rejected")
            await self._send(
                writer,
                error_response(
                    "queue_full", str(exc), retry_after=exc.retry_after
                ),
            )
            return True
        self.jobs[record.job_id] = record
        self._done_events[record.job_id] = asyncio.Event()
        self._count_job("accepted")
        self._update_load_gauges()
        stream = bool(payload.get("stream"))
        queue = self._subscribe(record.job_id) if stream else None
        assert self._wakeup is not None
        self._wakeup.set()
        await self._send(
            writer,
            ok_response(
                job_id=record.job_id,
                position=position,
                queue_depth=self.admission.depth(),
                stream=stream,
            ),
        )
        if queue is None:
            return True
        try:
            while True:
                event = await queue.get()
                await self._send(writer, event)
                if event.get("event") in ("done", "error"):
                    return False
        except (ConnectionError, OSError):
            # Client disconnected mid-stream: drop the subscription; the
            # job keeps executing and its result stays fetchable.
            return False
        finally:
            self._unsubscribe(record.job_id, queue)

    async def _handle_result(
        self, payload: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        job_id = str(payload.get("id"))
        record = self.jobs.get(job_id)
        if record is None:
            await self._send(
                writer, error_response("not_found", "unknown job id")
            )
            return True
        if bool(payload.get("wait")) and record.state in ("queued", "running"):
            await self._done_events[job_id].wait()
        if record.state == "done":
            result = record.result or self.store.load_result(job_id)
            await self._send(
                writer, ok_response(ready=True, state="done", result=result)
            )
        elif record.state in ("failed", "interrupted"):
            await self._send(
                writer,
                ok_response(
                    ready=True, state=record.state, message=record.error
                ),
            )
        else:
            await self._send(
                writer, ok_response(ready=False, state=record.state)
            )
        return True

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        writer.write(encode_message(payload))
        await writer.drain()


async def _serve_async(config: ServeConfig) -> None:
    server = JobServer(config)
    await server.start()
    await server.serve_forever()


def run_server(config: ServeConfig) -> None:
    """Blocking entry point for the ``repro serve`` CLI."""
    asyncio.run(_serve_async(config))
