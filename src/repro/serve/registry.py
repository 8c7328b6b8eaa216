"""The service tier's metric families, exposed over ``GET /metrics``.

Builds on the PR 8 observatory: a :class:`~repro.obs.metrics.
MetricRegistry` holds the serving totals and the existing OpenMetrics
renderer/validator pair emits them — the scrape body is exactly what
:func:`repro.obs.metrics.validate_openmetrics` accepts, which the serve
tests assert on a live endpoint.

Families:

``repro_serve_jobs`` (counter, label ``state``)
    Admission and terminal transitions: ``accepted``, ``rejected``
    (backpressure 429s), ``completed``, ``failed``, ``interrupted``,
    ``recovered`` (re-admitted after a crash).
``repro_serve_trials`` (counter, label ``kind``)
    ``streamed`` per-trial results delivered to clients and ``replayed``
    trials recovered from journals at zero recompute.
``repro_serve_queue_depth`` (gauge, label ``class``)
    Current admission backlog per priority class (peak is retained).
``repro_serve_running`` (gauge)
    Jobs currently occupying an executor.
``repro_serve_shared`` (gauge, label ``stat``)
    Cross-job prefix store counters (hits, publishes, ops_saved, ...),
    refreshed from :meth:`~repro.core.shared.SharedPrefixStore.stats`
    at scrape time.
``repro_serve_job_seconds`` (histogram, label ``priority``)
    Wall-clock of each completed job execution.
"""

from __future__ import annotations

from ..obs.metrics import (
    MetricRegistry,
    render_openmetrics,
    validate_openmetrics,
)

__all__ = ["build_serve_registry", "render_serve_metrics"]

JOBS_FAMILY = "repro_serve_jobs"
TRIALS_FAMILY = "repro_serve_trials"
QUEUE_FAMILY = "repro_serve_queue_depth"
RUNNING_FAMILY = "repro_serve_running"
SHARED_FAMILY = "repro_serve_shared"
SECONDS_FAMILY = "repro_serve_job_seconds"


def build_serve_registry() -> MetricRegistry:
    """A registry with every serve family pre-declared (zero-valued)."""
    registry = MetricRegistry()
    registry.counter(
        JOBS_FAMILY,
        "Job admission and terminal-state transitions.",
        labels=("state",),
    )
    registry.counter(
        TRIALS_FAMILY,
        "Per-trial results streamed to clients or replayed from journals.",
        labels=("kind",),
    )
    registry.gauge(
        QUEUE_FAMILY,
        "Admission backlog per priority class.",
        labels=("cls",),
    )
    registry.gauge(RUNNING_FAMILY, "Jobs currently executing.")
    registry.gauge(
        SHARED_FAMILY,
        "Cross-job shared prefix store counters.",
        labels=("stat",),
    )
    registry.histogram(
        SECONDS_FAMILY,
        "Wall-clock seconds per completed job execution.",
        labels=("priority",),
    )
    return registry


def render_serve_metrics(registry: MetricRegistry, shared=None) -> str:
    """Validated OpenMetrics text for a scrape.

    Refreshes the shared-store gauges first (they mirror live store
    state rather than accumulating), then renders and schema-checks the
    exposition — an invalid document is an exporter bug and raises
    instead of being served.
    """
    if shared is not None:
        stats = shared.stats()
        gauge = registry.gauge(
            SHARED_FAMILY,
            "Cross-job shared prefix store counters.",
            labels=("stat",),
        )
        for stat in (
            "entries",
            "resident_bytes",
            "hits",
            "misses",
            "publishes",
            "drops",
            "ops_saved",
        ):
            gauge.set(float(getattr(stats, stat)), stat=stat)
    text = render_openmetrics(registry.snapshot())
    problems = validate_openmetrics(text)
    if problems:
        raise ValueError(
            "serve registry rendered invalid OpenMetrics: "
            + "; ".join(problems)
        )
    return text
