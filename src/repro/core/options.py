"""The execution-options table and the one dispatcher that reads it.

Every reordered executor must return the serial-DFS payloads, so what
varies between them is only which options each honours.  This module
declares that once, as plain data: :data:`OPTIONS` gives every
:meth:`~repro.core.runner.NoisySimulator.run` keyword its default, its
domain and the modes, backends and other options it needs or excludes;
:data:`EXECUTORS` lists the executors in the order options pick them,
with the options each honours.  :func:`validate` checks a set of options
against both and returns the executor they pick; :func:`execute`
validates, then runs trials on that executor.  ``NoisySimulator.run``,
the remaining-trials run of a journaled resume and ``repro bench`` all
call it (see ``docs/architecture.md``, section 18).
"""

from __future__ import annotations

import numbers
import operator
from typing import Any, Callable, Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple

from ..circuits.layers import LayeredCircuit
from .events import Trial
from .executor import ExecutionOutcome, FinishCallback, run_baseline, run_optimized

__all__ = [
    "BACKENDS",
    "EXECUTORS",
    "MODES",
    "OPTIONS",
    "Executor",
    "Option",
    "OptionError",
    "accepts",
    "execute",
    "expect",
    "validate",
]

MODES: Tuple[str, ...] = ("optimized", "baseline")
BACKENDS: Tuple[str, ...] = ("statevector", "statevector-interpreted", "counting", "stabilizer")
#: Backends whose states are dense amplitude vectors.
STATEVECTOR_FAMILY: Tuple[str, ...] = BACKENDS[:2]
#: The compiled backend, the only one with a batched kernel surface.
COMPILED: Tuple[str, ...] = BACKENDS[:1]
#: Backends that sample measurements; ``counting`` only counts operations.
READOUT: Tuple[str, ...] = ("statevector", "statevector-interpreted", "stabilizer")


class OptionError(ValueError):
    """An option value, or a combination of options, the table rejects."""


def _at_least(low: int) -> Callable[[Any], bool]:
    def check(value: Any) -> bool:
        try:
            return operator.index(value) >= low
        except TypeError:
            return False

    return check


def _positive(value: Any) -> bool:
    return isinstance(value, numbers.Real) and value > 0


class Option(NamedTuple):
    """One ``NoisySimulator.run`` keyword and its constraints.

    Constraints apply only when the option is *set* (differs from
    ``default``): ``valid`` bounds its value, ``modes`` and ``backends``
    say where it may be used, ``excludes`` names options that must stay
    at their default beside it and ``requires`` options that must be set.
    Each constraint carries the message its violation raises, with
    ``{value}`` and ``{backend}`` filled in.
    """

    name: str
    default: Any
    domain: str
    valid: Optional[Callable[[Any], bool]] = None
    invalid: str = ""
    modes: Tuple[str, ...] = MODES
    wrong_mode: str = ""
    backends: Tuple[str, ...] = BACKENDS
    wrong_backend: str = ""
    excludes: Tuple[Tuple[str, str], ...] = ()
    requires: Tuple[Tuple[str, str], ...] = ()


_OPTIMIZED = ("optimized",)
_SERIAL_ONLY = (
    "shared requires the serial per-trial executor (workers=0, batch_size=0, hybrid=False); "
    "the batched and partitioned executors do not walk the provenance keys the store is "
    "shared under"
)

# Declaration order is check order, and the first failed check names the
# error.  The first eight entries keep the order in which run() always
# checked them, so every combination it rejected keeps its message.
_DECLARED: Tuple[Option, ...] = (
    Option(
        "mode", "optimized", "'optimized' or 'baseline'",
        valid=MODES.__contains__,
        invalid=f"unknown mode {{value!r}}; choose from {MODES}",
    ),
    Option(
        "workers", 0, "int >= 0; 0 runs serially",
        valid=_at_least(1),
        invalid="workers must be >= 1 (0 runs serially), got {value}",
        modes=_OPTIMIZED,
        wrong_mode="workers requires mode='optimized' (the baseline has no plan to partition)",
        backends=STATEVECTOR_FAMILY,
        wrong_backend="workers requires a statevector-family backend, got {backend!r}",
    ),
    Option(
        "journal", None, "journal path or None",
        modes=_OPTIMIZED,
        wrong_mode=(
            "journal requires mode='optimized' (the baseline streams no resumable finish "
            "payloads)"
        ),
        backends=STATEVECTOR_FAMILY,
        wrong_backend=(
            "journal requires a statevector-family backend (payload amplitudes are recorded), "
            "got {backend!r}"
        ),
    ),
    Option(
        "max_cache_bytes", None, "int >= 0 or None",
        valid=_at_least(0),
        invalid="max_cache_bytes must be an int >= 0, got {value!r}",
        backends=STATEVECTOR_FAMILY,
        wrong_backend="max_cache_bytes requires a statevector-family backend, got {backend!r}",
    ),
    Option(
        "batch_size", 0, "int >= 0; 0 keeps the per-trial walk",
        valid=_at_least(1),
        invalid="batch_size must be >= 1, got {value}",
        modes=_OPTIMIZED,
        wrong_mode="batch_size requires mode='optimized' (the baseline has no plan to batch over)",
        backends=COMPILED,
        wrong_backend=(
            "batch_size requires the compiled 'statevector' backend (batched kernel surface), "
            "got {backend!r}"
        ),
        excludes=((
            "journal",
            "batch_size is incompatible with journal: the wavefront interleaves trials, so the "
            "trial-ordered resume log cannot be replayed against it",
        ),),
    ),
    Option(
        "hybrid", False, "bool",
        modes=_OPTIMIZED,
        wrong_mode=(
            "hybrid requires mode='optimized' (the fast path rewrites the optimized plan's trie "
            "spans)"
        ),
        backends=COMPILED,
        wrong_backend=(
            "hybrid requires the compiled 'statevector' backend (anchor derivation and dense "
            "handoff), got {backend!r}"
        ),
        excludes=(
            (
                "journal",
                "hybrid is incompatible with journal: symbolic spans produce no trial-ordered "
                "finish stream to journal",
            ),
            (
                "max_cache_bytes",
                "hybrid is incompatible with max_cache_bytes: symbolic snapshots are O(n) Pauli "
                "frames, not budgetable statevectors",
            ),
        ),
    ),
    Option(
        "shared", None, "SharedPrefixStore or None",
        modes=_OPTIMIZED,
        wrong_mode=(
            "shared requires mode='optimized' (the baseline walks no prefix states to share)"
        ),
        backends=STATEVECTOR_FAMILY,
        wrong_backend=(
            "shared requires a statevector-family backend (amplitudes are published), "
            "got {backend!r}"
        ),
        excludes=tuple((other, _SERIAL_ONLY) for other in ("workers", "batch_size", "hybrid")),
    ),
    Option(
        "on_trial", None, "callable (trial_index, bits) or None",
        backends=READOUT,
        wrong_backend="on_trial requires a backend with readout, got {backend!r}",
    ),
    Option(
        "backend", "statevector", ", ".join(BACKENDS),
        valid=BACKENDS.__contains__,
        invalid=f"unknown backend {{value!r}}; choose from {BACKENDS}",
    ),
    Option("num_trials", 1024, "int >= 1; ignored when trials is given"),
    Option("trials", None, "pre-sampled trials or None"),
    Option(
        "collect_final_states", False, "bool",
        backends=READOUT,
        wrong_backend="collect_final_states requires a backend with readout, got {backend!r}",
    ),
    Option("check", False, "bool"),
    Option("recorder", None, "TraceRecorder or None"),
    Option(
        "partition_depth", 1, "int >= 1",
        valid=_at_least(1),
        invalid="partition_depth must be >= 1, got {value}",
        requires=((
            "workers",
            "partition_depth requires workers: only the parallel executor partitions the plan",
        ),),
    ),
    Option(
        "cache_degrade", "spill", "'spill' or 'drop'",
        valid=("spill", "drop").__contains__,
        invalid="unknown cache degradation mode {value!r} (expected 'spill' or 'drop')",
        requires=((
            "max_cache_bytes",
            "cache_degrade requires max_cache_bytes: it picks what happens to snapshots over "
            "the budget",
        ),),
    ),
    Option(
        "task_timeout", None, "seconds > 0 or None",
        valid=_positive,
        invalid="task_timeout must be a number of seconds > 0, got {value!r}",
        requires=((
            "workers", "task_timeout requires workers: it bounds a parallel worker's task",
        ),),
    ),
    Option(
        "retries", 2, "int >= 0",
        valid=_at_least(0),
        invalid="retries must be >= 0, got {value}",
        requires=(("workers", "retries requires workers: it is the parallel task retry budget"),),
    ),
    Option(
        "task_weights", None, "one weight per partition task, or None",
        requires=((
            "workers", "task_weights requires workers: it weights the parallel task schedule",
        ),),
    ),
    Option("stop", None, "threading.Event or None"),
)

#: Every ``NoisySimulator.run`` keyword, in check order.
OPTIONS: Dict[str, Option] = {option.name: option for option in _DECLARED}


class Executor(NamedTuple):
    """One executor: what picks it and which options it honours.

    ``picked_by`` is the option whose setting picks it, and the executor
    runs on that option's backends; the two executors with ``None`` run on
    every backend and are picked by ``mode`` once no such option is set.
    """

    name: str
    picked_by: Optional[str]
    mode: str
    honours: FrozenSet[str]


#: Options ``run()`` applies around the executor, which ``execute()`` never sees.
_READOUT_SIDE = frozenset({"num_trials", "trials", "collect_final_states", "on_trial"})
_EVERY = _READOUT_SIDE | {"mode", "backend", "recorder", "stop"}
_PLANNED = _EVERY | {"check"}
_BUDGET = frozenset({"max_cache_bytes", "cache_degrade"})
_POOL = frozenset({"workers", "partition_depth", "task_timeout", "retries"})

#: The executors in the order options pick them.
EXECUTORS: Tuple[Executor, ...] = (
    Executor("journal", "journal", "optimized", _PLANNED | _BUDGET | _POOL | {"journal", "shared"}),
    Executor(
        "parallel", "workers", "optimized",
        _PLANNED | _BUDGET | _POOL | {"task_weights", "batch_size", "hybrid"},
    ),
    Executor("hybrid", "hybrid", "optimized", _PLANNED | {"hybrid"}),
    Executor("wavefront", "batch_size", "optimized", _PLANNED | _BUDGET | {"batch_size"}),
    Executor("dfs", None, "optimized", _PLANNED | _BUDGET | {"shared"}),
    Executor("baseline", None, "baseline", _EVERY),
)


def _is_set(option: Option, value: Any) -> bool:
    if option.default is None:
        return value is not None
    return bool(value != option.default)


def _check(options: Dict[str, Any]) -> Tuple[Executor, Dict[str, Any]]:
    unknown = sorted(set(options) - set(OPTIONS))
    if unknown:
        raise TypeError(f"unknown execution option(s) {unknown}")
    values = {name: options.get(name, option.default) for name, option in OPTIONS.items()}
    mode, backend = values["mode"], values["backend"]
    for option in _DECLARED:
        if not _is_set(option, values[option.name]):
            continue
        if option.valid is not None and not option.valid(values[option.name]):
            raise OptionError(option.invalid.format(value=values[option.name]))
        if mode not in option.modes:
            raise OptionError(option.wrong_mode)
        if backend not in option.backends:
            raise OptionError(option.wrong_backend.format(backend=backend))
        for other, message in option.excludes:
            if _is_set(OPTIONS[other], values[other]):
                raise OptionError(message)
        for other, message in option.requires:
            if not _is_set(OPTIONS[other], values[other]):
                raise OptionError(message)
    executor = next(
        e
        for e in EXECUTORS
        if (_is_set(OPTIONS[e.picked_by], values[e.picked_by]) if e.picked_by else mode == e.mode)
    )
    for option in _DECLARED:
        if option.name not in executor.honours and _is_set(option, values[option.name]):
            honoured_by = ", ".join(e.name for e in EXECUTORS if option.name in e.honours)
            raise OptionError(
                f"{option.name} has no effect on the {executor.name} executor; "
                f"it is honoured by: {honoured_by}"
            )
    return executor, values


def validate(**options: Any) -> Executor:
    """Check ``run()`` keywords ``options`` and return the executor they pick.

    Omitted options take their defaults.  Raises :class:`OptionError`
    with the table's message for the first failed constraint, or when a
    set option would be ignored by the picked executor.
    """
    return _check(options)[0]


def accepts(**options: Any) -> bool:
    """Whether :func:`validate` accepts ``options``."""
    try:
        _check(options)
    except OptionError:
        return False
    return True


def expect(executor: str, **options: Any) -> Executor:
    """Validate ``options`` and require that they pick ``executor``.

    For callers that name the executor to exercise (a bench section):
    when the option that picks it is left at a value that picks another
    executor, that option's domain message is raised.
    """
    picked = validate(**options)
    wanted = next(e for e in EXECUTORS if e.name == executor)
    if picked != wanted:
        option = OPTIONS[wanted.picked_by or "mode"]
        raise OptionError(option.invalid.format(value=options.get(option.name, option.default)))
    return picked


def execute(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend_factory: Callable[[], Any],
    on_finish: Optional[FinishCallback] = None,
    *,
    plan=None,
    engine=None,
    **options: Any,
) -> ExecutionOutcome:
    """Run ``trials`` on the executor :func:`validate` picks for ``options``.

    ``options`` are the executor keywords of ``NoisySimulator.run``
    (``mode``, ``backend``, ``check``, ``recorder``, ``workers``, ...);
    ``backend`` names what ``backend_factory`` builds and is only
    validated.  The pool and journal executors call ``backend_factory``
    themselves; the in-process ones run on ``engine``, built from the
    factory when not given.  ``plan`` is an optional prebuilt serial plan
    of ``trials`` for the executors that walk one (dfs, wavefront,
    hybrid).  A journaled run's outcome carries its
    :class:`~repro.core.resilience.JournalSummary` as ``journal``.
    """
    if _READOUT_SIDE & set(options):
        raise TypeError(f"execute() takes no {sorted(_READOUT_SIDE & set(options))}")
    executor, v = _check(options)
    budget = None
    if v["max_cache_bytes"] is not None:
        from .cache import CacheBudget

        budget = CacheBudget(max_bytes=v["max_cache_bytes"], mode=v["cache_degrade"])
    common = {"check": v["check"], "recorder": v["recorder"], "stop": v["stop"]}

    if executor.name == "journal":
        from .resilience import run_journaled

        rest = {name: value for name, value in options.items() if name != "journal"}
        outcome, summary = run_journaled(
            layered, trials, backend_factory, on_finish, v["journal"], **rest
        )
        outcome.journal = summary
        return outcome
    if executor.name == "parallel":
        from .parallel import run_parallel

        return run_parallel(
            layered, trials, backend_factory, on_finish, workers=v["workers"],
            depth=v["partition_depth"], cache_budget=budget, retries=v["retries"],
            task_timeout=v["task_timeout"], task_weights=v["task_weights"],
            batch_size=v["batch_size"], hybrid=v["hybrid"], **common,
        )
    if engine is None:
        engine = backend_factory()
    if executor.name == "hybrid":
        from .hybrid import run_hybrid

        return run_hybrid(layered, trials, engine, on_finish, plan=plan, **common)
    if executor.name == "wavefront":
        from .wavefront import run_wavefront

        return run_wavefront(
            layered, trials, engine, on_finish, plan=plan, batch_size=v["batch_size"],
            cache_budget=budget, **common,
        )
    if executor.name == "dfs":
        return run_optimized(
            layered, trials, engine, on_finish, plan=plan, cache_budget=budget,
            shared=v["shared"], **common,
        )
    return run_baseline(layered, trials, engine, on_finish, recorder=v["recorder"], stop=v["stop"])
