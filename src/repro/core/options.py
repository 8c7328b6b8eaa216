"""The execution-options table and the one dispatcher that reads it.

Every run executes in the calling process, on one of four executors:
journal, hybrid, serial DFS and baseline.  Every reordered executor must
return the serial-DFS payloads, so what varies between them is only
which options each honours.  This module
declares that once, as plain data: :data:`OPTIONS` gives every
:meth:`~repro.core.runner.NoisySimulator.run` keyword its default, its
domain, the modes and backends it needs and the other options it excludes;
:data:`EXECUTORS` lists the executors in the order options pick them,
with the options each honours and the checks a recorded run of each
must pass.  :func:`validate` checks a set of options against both and
returns the executor they pick.  When the options leave the executor
open, :func:`pick` decides it from the circuit and its trials (the
default pick rule: hybrid for a wide, frame-safe, lightly errored run,
serial DFS otherwise), and :func:`execute` validates, then runs trials
on the executor it picks.
``NoisySimulator.run`` and the remaining-trials run of a journaled
resume both call it (see ``docs/architecture.md``, section 18).
"""

from __future__ import annotations

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
    "frame_safe_share",
    "pick",
    "validate",
]

MODES: Tuple[str, ...] = ("optimized", "baseline")
BACKENDS: Tuple[str, ...] = ("statevector", "statevector-interpreted", "counting", "stabilizer")
#: Backends whose states are dense amplitude vectors.
STATEVECTOR_FAMILY: Tuple[str, ...] = BACKENDS[:2]
#: The compiled backend, the only one the hybrid runs on.
COMPILED: Tuple[str, ...] = BACKENDS[:1]
#: Backends that sample measurements; ``counting`` only counts operations.
READOUT: Tuple[str, ...] = ("statevector", "statevector-interpreted", "stabilizer")

#: The default pick rule's cutoffs, measured end to end on this
#: repository's workloads (docs/architecture.md §18, "Default pick"): a
#: run whose options leave the executor open takes the hybrid fast path
#: when its circuit has at least ``HYBRID_MIN_QUBITS`` qubits, at least
#: ``HYBRID_MIN_FRAME_SAFE`` of its gate occurrences are frame-safe and
#: its trials inject at most ``HYBRID_MAX_ERRORS_PER_TRIAL`` error events
#: (one-qubit Paulis) each on average.
HYBRID_MIN_QUBITS = 14
HYBRID_MIN_FRAME_SAFE = 0.9
HYBRID_MAX_ERRORS_PER_TRIAL = 1.5


class OptionError(ValueError):
    """An option value, or a combination of options, the table rejects."""


def _at_least(low: int) -> Callable[[Any], bool]:
    def check(value: Any) -> bool:
        try:
            return operator.index(value) >= low
        except TypeError:
            return False

    return check


class Option(NamedTuple):
    """One ``NoisySimulator.run`` keyword and its constraints.

    Constraints apply only when the option is *set* (differs from
    ``default`` and from every value in ``unset``): ``valid`` bounds its
    value, ``modes`` and ``backends`` say where it may be used and
    ``excludes`` names options that must stay unset beside it.
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
    unset: Tuple[Any, ...] = ()


_OPTIMIZED = ("optimized",)

# Declaration order is check order, and the first failed check names the
# error.  The first six entries keep the order in which run() always
# checked them, so every combination it rejected keeps its message.
_DECLARED: Tuple[Option, ...] = (
    Option(
        "mode", "optimized", "'optimized' or 'baseline'",
        valid=MODES.__contains__,
        invalid=f"unknown mode {{value!r}}; choose from {MODES}",
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
        "hybrid", None, "None (the default pick), True (force) or False (force serial DFS)",
        unset=(False,),
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
        excludes=((
            "hybrid",
            "shared requires the serial per-trial executor (hybrid=False); the hybrid "
            "executor does not walk the provenance keys the store is shared under",
        ),),
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
    Option("stop", None, "threading.Event or None"),
)

#: Every ``NoisySimulator.run`` keyword, in check order.
OPTIONS: Dict[str, Option] = {option.name: option for option in _DECLARED}


class Executor(NamedTuple):
    """One executor: what picks it, which options it honours and which
    checks a recorded run of it must pass.

    ``picked_by`` is the option whose setting picks it, and the executor
    runs on that option's backends; the two executors with ``None`` run on
    every backend and are picked by ``mode`` once no such option is set.
    Where the options leave the executor open, :func:`pick` may move a
    dfs run to hybrid.
    ``evidence`` names the checks :func:`repro.lint.check_recorded_run`
    runs on its recorded run, ``"replay"`` or a lint rule code.
    """

    name: str
    picked_by: Optional[str]
    mode: str
    honours: FrozenSet[str]
    evidence: Tuple[str, ...]


#: Options ``run()`` applies around the executor, which ``execute()`` never sees.
_READOUT_SIDE = frozenset({"num_trials", "trials", "collect_final_states", "on_trial"})
_EVERY = _READOUT_SIDE | {"mode", "backend", "recorder", "stop"}
_PLANNED = _EVERY | {"check"}
_BUDGET = frozenset({"max_cache_bytes"})

#: The evidence of a recorded walk of the serial plan.
_SERIAL_WALK = ("replay", "P017", "P020", "P021", "P023", "P025")

#: The executors in the order options pick them.  docs/architecture.md
#: (section 18) says why each lacks the checks its evidence leaves out.
EXECUTORS: Tuple[Executor, ...] = (
    Executor(
        "journal", "journal", "optimized", _PLANNED | _BUDGET | {"journal", "shared"},
        ("P019", "P025"),
    ),
    Executor("hybrid", "hybrid", "optimized", _PLANNED | {"hybrid"}, _SERIAL_WALK),
    Executor("dfs", None, "optimized", _PLANNED | _BUDGET | {"shared"}, _SERIAL_WALK),
    Executor("baseline", None, "baseline", _EVERY, ("replay", "P025")),
)


def _is_set(option: Option, value: Any) -> bool:
    """Whether ``value`` sets ``option``: it differs from the default and
    from every value that, like the default, carries no constraint
    (``hybrid=False`` forces serial DFS yet constrains nothing)."""
    if value in option.unset:
        return False
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
    set option would be ignored by the picked executor.  It sees no
    circuit, so where the options leave the executor open it returns
    dfs; :func:`pick` adds the default pick.
    """
    return _check(options)[0]


def accepts(**options: Any) -> bool:
    """Whether :func:`validate` accepts ``options``."""
    try:
        _check(options)
    except OptionError:
        return False
    return True


def frame_safe_share(layered: LayeredCircuit) -> float:
    """The share of ``layered``'s gate occurrences that any Pauli frame
    crosses bit-exactly (:func:`repro.sim.stabilizer.frame_safe_gate`,
    whose verdicts are memoized per matrix)."""
    from ..sim.stabilizer import frame_safe_gate

    ops = [op for layer in layered.layers for op in layer]
    return sum(frame_safe_gate(op.gate) for op in ops) / len(ops) if ops else 0.0


def _left_open(executor: Executor, values: Dict[str, Any]) -> bool:
    """Whether no option picks the executor: an optimized run on the
    compiled backend with none of the options that pick, force or
    exclude an executor set (``hybrid=False`` forces serial DFS)."""
    return (
        executor.name == "dfs"
        and values["hybrid"] is None
        and values["backend"] in COMPILED
        and values["shared"] is None
        and values["max_cache_bytes"] is None
    )


def _default_pick(layered: LayeredCircuit, trials: Sequence[Trial], recorder=None) -> Executor:
    """The pick rule: hybrid for a wide, frame-safe, lightly errored run,
    serial DFS otherwise.

    Width is checked first, so a narrow circuit costs one comparison
    unless a ``recorder`` asks for the other inputs too: a recorded run
    emits one ``run.pick`` instant with the inputs and the cutoffs.
    """
    width = layered.num_qubits
    if width < HYBRID_MIN_QUBITS and not recorder:
        return next(e for e in EXECUTORS if e.name == "dfs")
    share = frame_safe_share(layered)
    errors = sum(trial.num_errors for trial in trials) / len(trials) if trials else 0.0
    name = (
        "hybrid"
        if width >= HYBRID_MIN_QUBITS
        and share >= HYBRID_MIN_FRAME_SAFE
        and errors <= HYBRID_MAX_ERRORS_PER_TRIAL
        else "dfs"
    )
    if recorder:
        recorder.instant(
            "run.pick", cat="run", executor=name, num_qubits=width,
            frame_safe_share=share, errors_per_trial=errors,
            min_qubits=HYBRID_MIN_QUBITS, min_frame_safe=HYBRID_MIN_FRAME_SAFE,
            max_errors_per_trial=HYBRID_MAX_ERRORS_PER_TRIAL,
        )
    return next(e for e in EXECUTORS if e.name == name)


def pick(layered: LayeredCircuit, trials: Sequence[Trial], **options: Any) -> Executor:
    """The executor :func:`execute` runs ``options`` on for ``trials`` of
    ``layered``.

    :func:`validate`'s executor, unless the options leave it open (no
    option picks, forces or excludes one on the compiled backend); then
    the default pick rule decides from the input: hybrid when the
    circuit has at least ``HYBRID_MIN_QUBITS`` qubits, at least
    ``HYBRID_MIN_FRAME_SAFE`` of its gate occurrences are frame-safe and
    the trials inject at most ``HYBRID_MAX_ERRORS_PER_TRIAL`` error
    events each on average; serial DFS otherwise.
    """
    executor, values = _check(options)
    return _default_pick(layered, trials) if _left_open(executor, values) else executor


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
    """Run ``trials`` on the executor :func:`pick` picks for ``options``.

    ``options`` are the executor keywords of ``NoisySimulator.run``
    (``mode``, ``backend``, ``check``, ``recorder``, ``journal``, ...);
    ``backend`` names what ``backend_factory`` builds and is only
    validated.  The journal executor calls ``backend_factory`` itself;
    the others run on ``engine``, built from the factory when not given.
    ``plan`` is an optional prebuilt serial plan of ``trials`` for the
    executors that walk one (dfs, hybrid).  The outcome names the
    executor that ran as ``executor``, and a journaled run's outcome
    carries its :class:`~repro.core.resilience.JournalSummary` as
    ``journal``.
    """
    if _READOUT_SIDE & set(options):
        raise TypeError(f"execute() takes no {sorted(_READOUT_SIDE & set(options))}")
    executor, v = _check(options)
    if _left_open(executor, v):
        executor = _default_pick(layered, trials, v["recorder"])
    budget = None
    if v["max_cache_bytes"] is not None:
        from .cache import CacheBudget

        budget = CacheBudget(max_bytes=v["max_cache_bytes"])
    common = {"check": v["check"], "recorder": v["recorder"], "stop": v["stop"]}
    if engine is None and executor.name != "journal":
        engine = backend_factory()

    outcome: ExecutionOutcome
    if executor.name == "journal":
        from .resilience import run_journaled

        rest = {name: value for name, value in options.items() if name != "journal"}
        outcome, summary = run_journaled(
            layered, trials, backend_factory, on_finish, v["journal"], **rest
        )
        outcome.journal = summary
    elif executor.name == "hybrid":
        from .hybrid import run_hybrid

        outcome = run_hybrid(layered, trials, engine, on_finish, plan=plan, **common)
    elif executor.name == "dfs":
        outcome = run_optimized(
            layered, trials, engine, on_finish, plan=plan, cache_budget=budget,
            shared=v["shared"], **common,
        )
    else:
        outcome = run_baseline(
            layered, trials, engine, on_finish, recorder=v["recorder"], stop=v["stop"]
        )
    outcome.executor = executor.name
    return outcome
