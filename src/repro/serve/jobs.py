"""Job specifications, the on-disk job store, and the execution core.

This module is the service tier's synchronous heart — everything here
runs without an event loop, so the chaos tests can drive the exact code
path the async server schedules, minus the sockets:

:class:`JobSpec`
    A validated, JSON-round-trippable description of one simulation
    request: circuit (benchmark name or inline QASM), noise model,
    trial count, seed, engine options, priority class and deadline.
:class:`JobStore`
    The crash-safe state directory.  Every accepted job gets
    ``jobs/<id>/spec.json`` written **atomically before execution**, its
    run journal lives beside it, and the terminal ``result.json`` /
    ``error.json`` is the commit point.  :meth:`JobStore.recover` scans
    the directory on startup and returns every job that was accepted but
    never reached a terminal file — exactly the set a kill -9'd server
    must resume.
:func:`execute_job`
    Runs one job through :class:`~repro.core.runner.NoisySimulator` with
    the journal tee, the cross-job :class:`~repro.core.shared.
    SharedPrefixStore`, a cooperative ``stop`` event and the incremental
    ``on_trial`` stream wired in; applies the service retry discipline
    (capped exponential backoff, graceful degradation to the inline
    engine when the fork pool keeps failing).

Job identity is ``j<seq:06d>-<digest8>``: the monotone sequence number
keeps concurrent submissions of *identical* specs in distinct journal
directories (no fingerprint collision can alias two live jobs), while
the spec digest makes directories self-describing.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..circuits.qasm import parse_qasm
from ..core.atomicio import atomic_write_json, fsync_directory
from ..core.executor import RunInterrupted
from ..core.options import accepts, validate
from ..core.resilience import JournalError
from ..core.runner import NoisySimulator, SimulationResult
from ..noise.devices import artificial_model, ibm_yorktown
from ..noise.model import NoiseModel

__all__ = [
    "PRIORITIES",
    "JOB_STATES",
    "JobSpec",
    "JobRecord",
    "JobStore",
    "execute_job",
    "resolve_circuit",
    "resolve_noise",
]

#: Admission classes, highest priority first.
PRIORITIES: Tuple[str, ...] = ("interactive", "batch")

#: Lifecycle states a job record can be in.  ``interrupted`` means a
#: stop/deadline ended the run after a committed journal tail — the job
#: is resumable, not lost.
JOB_STATES: Tuple[str, ...] = (
    "queued",
    "running",
    "done",
    "failed",
    "interrupted",
)


def resolve_circuit(payload: Dict[str, Any]):
    """Build the job's circuit from its wire form.

    ``{"benchmark": name}`` resolves through the compiled Table I suite;
    ``{"qasm": text}`` parses an inline OpenQASM 2.0 body.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"circuit must be an object, got {type(payload).__name__}"
        )
    if "benchmark" in payload:
        from ..bench import build_compiled_benchmark

        return build_compiled_benchmark(str(payload["benchmark"]))
    if "qasm" in payload:
        return parse_qasm(str(payload["qasm"]))
    raise ValueError(
        "circuit needs a 'benchmark' name or an inline 'qasm' body, "
        f"got keys {sorted(payload)}"
    )


def resolve_noise(payload: Any) -> NoiseModel:
    """Build the job's noise model from its wire form.

    A string names a built-in device model (``"ibm_yorktown"``); an
    object is either ``{"artificial": rate}`` or ``{"model": ...}`` with
    a full :meth:`~repro.noise.model.NoiseModel.to_dict` payload.
    """
    if isinstance(payload, str):
        if payload == "ibm_yorktown":
            return ibm_yorktown()
        raise ValueError(f"unknown named noise model {payload!r}")
    if isinstance(payload, dict):
        if "artificial" in payload:
            return artificial_model(float(payload["artificial"]))
        if "model" in payload:
            return NoiseModel.from_dict(payload["model"])
    raise ValueError(
        "noise must be a model name, {'artificial': rate} or "
        "{'model': {...}}"
    )


class JobSpec:
    """One validated simulation request, canonically serializable."""

    def __init__(
        self,
        circuit: Dict[str, Any],
        noise: Any,
        trials: int,
        seed: int,
        mode: str = "optimized",
        backend: str = "statevector",
        workers: int = 0,
        hybrid: bool = False,
        max_cache_bytes: Optional[int] = None,
        priority: str = "interactive",
        timeout: Optional[float] = None,
        retries: int = 1,
        journal: bool = True,
        share: bool = True,
        label: str = "",
    ) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.circuit = dict(circuit)
        self.noise = noise
        self.trials = int(trials)
        self.seed = int(seed)
        self.mode = mode
        self.backend = backend
        self.workers = int(workers)
        self.hybrid = bool(hybrid)
        self.max_cache_bytes = max_cache_bytes
        self.priority = priority
        self.timeout = timeout
        self.retries = int(retries)
        self.journal = bool(journal)
        self.share = bool(share)
        self.label = str(label)
        # The circuit and noise model admission resolved; kept outside
        # to_dict(), so digests, spec.json and journals never see it.
        self._resolved: Optional[Tuple[Any, NoiseModel]] = None

    # -- wire form ---------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError(
                f"job spec must be an object, got {type(payload).__name__}"
            )
        known = {
            "circuit", "noise", "trials", "seed", "mode", "backend",
            "workers", "hybrid", "max_cache_bytes",
            "priority", "timeout", "retries", "journal", "share", "label",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job spec fields {unknown}")
        for field in ("circuit", "noise", "trials", "seed"):
            if field not in payload:
                raise ValueError(f"job spec is missing required {field!r}")
        spec = cls(**payload)
        # Fail malformed circuits/noise and option combinations the
        # engine rejects at admission, not mid-execution.
        validate(**spec.engine_options())
        spec.resolved()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "noise": self.noise,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "backend": self.backend,
            "workers": self.workers,
            "hybrid": self.hybrid,
            "max_cache_bytes": self.max_cache_bytes,
            "priority": self.priority,
            "timeout": self.timeout,
            "retries": self.retries,
            "journal": self.journal,
            "share": self.share,
            "label": self.label,
        }

    def digest(self) -> str:
        """8-hex-digit content digest of the canonical spec form."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"

    # -- engine eligibility ------------------------------------------------

    def engine_options(self) -> Dict[str, Any]:
        """The ``NoisySimulator.run`` options this spec fixes."""
        return {
            "mode": self.mode,
            "backend": self.backend,
            "workers": self.workers,
            "hybrid": self.hybrid,
            "max_cache_bytes": self.max_cache_bytes,
        }

    @property
    def journal_eligible(self) -> bool:
        """Journaling was asked for and the options table accepts it."""
        return self.journal and accepts(journal=True, **self.engine_options())

    @property
    def share_eligible(self) -> bool:
        """Cross-job sharing was asked for and the options table accepts it."""
        return self.share and accepts(shared=True, **self.engine_options())

    def resolved(self) -> Tuple[Any, NoiseModel]:
        """The job's circuit and noise model, resolved once per spec:
        admission resolves them to validate them, and every attempt of
        the job (retries and recovery included) reuses them."""
        if self._resolved is None:
            self._resolved = (resolve_circuit(self.circuit), resolve_noise(self.noise))
        return self._resolved

    def release(self) -> None:
        """Drop the resolved circuit and model (a few tens of KB), so a
        daemon's finished jobs do not hold them; :meth:`resolved`
        builds them again if asked."""
        self._resolved = None

    def build_simulator(self) -> NoisySimulator:
        circuit, noise = self.resolved()
        return NoisySimulator(circuit, noise, seed=self.seed)

    def __repr__(self) -> str:
        return (
            f"JobSpec(label={self.label!r}, trials={self.trials}, "
            f"priority={self.priority!r}, workers={self.workers})"
        )


class JobRecord:
    """Runtime view of one job: spec + lifecycle state + counters."""

    def __init__(self, job_id: str, seq: int, spec: JobSpec) -> None:
        self.job_id = job_id
        self.seq = seq
        self.spec = spec
        self.state = "queued"
        self.error: Optional[str] = None
        self.attempts = 0
        self.degraded = False
        self.recovered = False
        self.trials_streamed = 0
        self.result: Optional[Dict[str, Any]] = None

    def status(self) -> Dict[str, Any]:
        """The wire-form status object clients poll."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "label": self.spec.label,
            "priority": self.spec.priority,
            "trials": self.spec.trials,
            "trials_streamed": self.trials_streamed,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "recovered": self.recovered,
            "error": self.error,
        }


class JobStore:
    """The service's crash-safe state directory.

    Layout::

        <root>/endpoint.json          # written by the server after bind
        <root>/jobs/<job_id>/spec.json
        <root>/jobs/<job_id>/run.journal
        <root>/jobs/<job_id>/result.json   (terminal: success)
        <root>/jobs/<job_id>/error.json    (terminal: permanent failure)

    ``spec.json`` is written atomically at admission, strictly before
    any execution; a job directory with a spec but no terminal file is
    by definition in-flight and must be resumed after a crash.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self.jobs_root = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_root, exist_ok=True)
        self._next_seq = self._scan_next_seq()

    def _scan_next_seq(self) -> int:
        highest = -1
        for name in os.listdir(self.jobs_root):
            if name.startswith("j") and "-" in name:
                try:
                    highest = max(highest, int(name[1:].split("-", 1)[0]))
                except ValueError:
                    continue
        return highest + 1

    # -- paths -------------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_root, job_id)

    def spec_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "spec.json")

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "run.journal")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def error_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "error.json")

    def endpoint_path(self) -> str:
        return os.path.join(self.root, "endpoint.json")

    # -- admission / terminal commits -------------------------------------

    def admit(self, spec: JobSpec) -> JobRecord:
        """Assign an id and journal the acceptance before execution."""
        seq = self._next_seq
        self._next_seq += 1
        job_id = f"j{seq:06d}-{spec.digest()}"
        os.makedirs(self.job_dir(job_id), exist_ok=True)
        fsync_directory(self.jobs_root)
        atomic_write_json(
            self.spec_path(job_id),
            {"job_id": job_id, "seq": seq, "spec": spec.to_dict()},
        )
        return JobRecord(job_id, seq, spec)

    def commit_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        atomic_write_json(self.result_path(job_id), payload)

    def commit_error(self, job_id: str, payload: Dict[str, Any]) -> None:
        atomic_write_json(self.error_path(job_id), payload)

    def load_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        path = self.result_path(job_id)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def load_error(self, job_id: str) -> Optional[Dict[str, Any]]:
        path = self.error_path(job_id)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- crash recovery ----------------------------------------------------

    def recover(self) -> Tuple[List[JobRecord], List[JobRecord]]:
        """Scan the directory into (in-flight, terminal) job records.

        In-flight records (spec committed, no terminal file) come back in
        admission order with ``recovered=True`` so the server re-enqueues
        them; their journals make the re-run resume instead of recompute.
        A spec stored with the retired ``batch_size`` field loads without
        it: that executor's payloads equaled serial DFS's, and such a job
        kept no journal, so running it on DFS returns the same result.
        """
        pending: List[JobRecord] = []
        finished: List[JobRecord] = []
        for name in sorted(os.listdir(self.jobs_root)):
            spec_path = self.spec_path(name)
            if not os.path.exists(spec_path):
                continue
            try:
                with open(spec_path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                stored = payload["spec"]
                if isinstance(stored, dict):
                    stored.pop("batch_size", None)
                spec = JobSpec.from_dict(stored)
                seq = int(payload["seq"])
            except (ValueError, KeyError, json.JSONDecodeError):
                continue  # torn spec: never admitted, nothing to resume
            record = JobRecord(name, seq, spec)
            result = self.load_result(name)
            error = self.load_error(name)
            if result is not None:
                record.state = "done"
                record.result = result
                finished.append(record)
                spec.release()
            elif error is not None:
                record.state = "failed"
                record.error = str(error.get("message", "failed"))
                finished.append(record)
                spec.release()
            else:
                record.recovered = True
                pending.append(record)
        return pending, finished


# ---------------------------------------------------------------------------
# Execution core
# ---------------------------------------------------------------------------


def _result_payload(
    record: JobRecord, result: SimulationResult
) -> Dict[str, Any]:
    metrics = result.metrics
    journal = None
    if result.journal is not None:
        journal = {
            "resumed": result.journal.resumed,
            "replayed_finishes": result.journal.replayed_finishes,
            "replayed_trials": result.journal.replayed_trials,
            "recorded_finishes": result.journal.recorded_finishes,
            "truncated_tail": result.journal.truncated_tail,
        }
    return {
        "job_id": record.job_id,
        "label": record.spec.label,
        "counts": dict(result.counts),
        "num_trials": metrics.num_trials,
        "ops_applied": metrics.optimized_ops,
        "ops_shared": result.ops_shared,
        "baseline_ops": metrics.baseline_ops,
        "peak_msv": metrics.peak_msv,
        "journal": journal,
        "attempts": record.attempts,
        "degraded": record.degraded,
    }


def execute_job(
    record: JobRecord,
    store: JobStore,
    shared=None,
    stop=None,
    on_trial: Optional[Callable[[int, str], None]] = None,
    chaos=None,
    retry_base: float = 0.05,
    retry_cap: float = 1.0,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Run one admitted job; returns the terminal result payload.

    Retry discipline: up to ``spec.retries`` re-attempts with capped
    exponential backoff (``min(retry_cap, retry_base * 2**attempt)``);
    if the *last* allowed attempt still fails and the spec asked for
    fork-pool workers, one final attempt degrades gracefully to the
    inline serial engine (``workers=0``) — the fork pool being broken
    must not take correct-but-slower service down with it.

    ``RunInterrupted`` (stop event / deadline) and ``BaseException``
    chaos kills propagate immediately — both leave the committed journal
    tail intact, which is the resume contract the chaos suite proves.
    A recovered job whose journal its first attempt refuses
    (:class:`~repro.core.resilience.JournalError`: the journal holds other
    trials than the spec now draws) moves that journal to
    ``run.journal.stale`` and runs from scratch in the same attempt.
    The result payload is committed to the store before returning.
    """
    spec = record.spec
    journal = store.journal_path(record.job_id) if spec.journal_eligible else None
    use_shared = shared if spec.share_eligible else None

    def tracked_on_trial(index: int, bits: str) -> None:
        if chaos is not None:
            chaos.on_trial(record, index)
        record.trials_streamed += 1
        if on_trial is not None:
            on_trial(index, bits)

    # A counting-backend job has no readout to stream; it still runs.
    stream = (
        tracked_on_trial
        if accepts(on_trial=tracked_on_trial, **spec.engine_options())
        else None
    )

    def run(workers: int) -> SimulationResult:
        return spec.build_simulator().run(
            num_trials=spec.trials,
            mode=spec.mode,
            backend=spec.backend,
            workers=workers,
            hybrid=spec.hybrid,
            max_cache_bytes=spec.max_cache_bytes,
            journal=journal,
            shared=use_shared,
            stop=stop,
            on_trial=stream,
        )

    attempts_allowed = spec.retries + 1
    last_error: Optional[BaseException] = None
    for attempt in range(attempts_allowed + 1):
        degrade = attempt >= attempts_allowed
        workers = 0 if degrade else spec.workers
        if degrade:
            if not spec.workers:
                break  # no pool to degrade from; the retries were it
            record.degraded = True
        record.attempts += 1
        try:
            try:
                result = run(workers)
            except JournalError:
                # A recovered job's journal that the run refuses (P019) was
                # written for other trials: by a version that drew another
                # random stream (docs/architecture.md §7, pin 4).  It can
                # never resume, so it moves aside and the job starts over.
                recovered = record.recovered and not attempt
                if not (recovered and journal and os.path.exists(journal)):
                    raise
                os.replace(journal, journal + ".stale")
                result = run(workers)
        except RunInterrupted:
            raise
        except Exception as exc:  # noqa: BLE001 - service retry boundary
            last_error = exc
            if attempt + 1 < attempts_allowed:
                sleep(min(retry_cap, retry_base * (2 ** attempt)))
            continue
        payload = _result_payload(record, result)
        store.commit_result(record.job_id, payload)
        record.result = payload
        record.state = "done"
        spec.release()
        return payload
    record.state = "failed"
    spec.release()
    record.error = f"{type(last_error).__name__}: {last_error}"
    store.commit_error(
        record.job_id,
        {
            "job_id": record.job_id,
            "message": record.error,
            "attempts": record.attempts,
        },
    )
    raise RuntimeError(
        f"job {record.job_id} failed after {record.attempts} attempts: "
        f"{record.error}"
    ) from last_error
