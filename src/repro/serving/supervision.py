"""Backend health tracking and bit-identical per-step failure recovery.

The differential harness pins every backend bit-identical to the int64
oracle, which turns backend failure into a *latency* problem instead of
a correctness one: a GEMM step that raises on one backend can be
retried on another and the request's logits do not change.  This module
is the recovery half of the fault-tolerance tentpole
(``repro.faultinject`` is the injection half):

* :func:`fallback_chain` — the retry order for a failed GEMM step:
  ``blas`` (or any other backend) falls back straight to the ``packed``
  oracle; ``packed`` itself is the end of the line.
* :class:`BackendHealth` — a per-backend circuit breaker.  ``K``
  consecutive failures open the circuit (the backend is **quarantined**
  and vetoed in dispatch); after ``probe_after_s`` the circuit goes
  *half-open* and the next attempts probe it — a success closes it, a
  failure re-opens it for another cooldown.
* :class:`StepRecovery` — runs a GEMM step, or takes over one whose
  inline attempt raised, walking the fallback chain on retryable
  failures, recording outcomes into :class:`BackendHealth`, and
  optionally probing a :class:`~repro.faultinject.FaultPlan`'s
  ``kernel`` site before each attempt.

Deterministic validation errors (:class:`~repro.errors.ShapeError` and
friends — see :func:`repro.errors.is_retryable`) are never retried: the
request itself is malformed and every backend would reject it.

Example::

    health = BackendHealth(quarantine_after=3, probe_after_s=5.0)
    recovery = StepRecovery(health=health)
    result, executed, retried = recovery.run(
        lambda name: kernel.run(a, b, engine=name, plan=plan), "blas"
    )
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..errors import is_retryable
from ..telemetry import emit_event

__all__ = ["BackendHealth", "StepRecovery", "fallback_chain"]

#: Consecutive failures before a backend is quarantined.
DEFAULT_QUARANTINE_AFTER = 3
#: Seconds a quarantined backend stays vetoed before half-open probing.
DEFAULT_PROBE_AFTER_S = 5.0


def fallback_chain(backend: str) -> tuple[str, ...]:
    """The retry order for a GEMM step whose ``backend`` attempt failed.

    Returns the full attempt sequence starting with ``backend`` itself:
    every backend falls back straight to ``packed`` (the §4.2 word engine
    and the oracle), which is itself terminal.  All engines are bit-identical, so walking the chain never
    changes results, only cost.
    """
    if backend == "packed":
        return ("packed",)
    return (backend, "packed")


class _CircuitState:
    """Mutable per-backend breaker state (guarded by the owning lock)."""

    __slots__ = ("consecutive_failures", "open_until", "half_open")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.open_until: float | None = None  # None = closed
        self.half_open = False


class BackendHealth:
    """A thread-safe per-backend circuit breaker shared across an engine pool.

    States per backend: **closed** (healthy, never vetoed), **open**
    (quarantined: vetoed until the cooldown expires), **half-open**
    (cooldown expired: not vetoed, so the next dispatches probe it — a
    recorded success closes the circuit, a failure re-opens it).

    :meth:`quarantined` is the dispatch-side question: a plan compiled
    while ``blas`` is quarantined runs on ``packed``
    (:func:`~repro.plan.registry.static_backend`, which stays on ``blas``
    if *both* are, so dispatch always answers).  ``clock`` is injectable
    for tests.
    """

    def __init__(
        self,
        *,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        probe_after_s: float = DEFAULT_PROBE_AFTER_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Quarantine after ``quarantine_after`` consecutive failures for
        ``probe_after_s`` seconds; ``clock`` supplies monotonic time."""
        if quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        if probe_after_s <= 0 or probe_after_s != probe_after_s:
            raise ValueError(
                f"probe_after_s must be finite > 0, got {probe_after_s}"
            )
        self.quarantine_after = quarantine_after
        self.probe_after_s = probe_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._states: dict[str, _CircuitState] = {}
        #: Total circuit-open transitions (monotone; surfaced in PoolStats).
        self.quarantines = 0
        self.failures = 0
        self.successes = 0

    def _state(self, name: str) -> _CircuitState:
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = _CircuitState()
        return state

    def record_failure(self, name: str) -> None:
        """Record one failed attempt on ``name``; may open the circuit."""
        with self._lock:
            self.failures += 1
            state = self._state(name)
            state.consecutive_failures += 1
            if state.half_open or (
                state.consecutive_failures >= self.quarantine_after
                and state.open_until is None
            ):
                # A failure during the half-open probe window re-opens
                # immediately; K consecutive failures open a closed circuit.
                state.open_until = self._clock() + self.probe_after_s
                state.half_open = False
                self.quarantines += 1
                emit_event(__name__, "backend_quarantined", backend=name)

    def record_success(self, *names: str) -> None:
        """Record one successful attempt on each of ``names``, in order
        (a round's under one lock acquire); closes their circuits."""
        with self._lock:
            self.successes += len(names)
            for name in names:
                state = self._state(name)
                if state.half_open or state.open_until is not None:
                    emit_event(__name__, "backend_closed", backend=name)
                state.consecutive_failures = 0
                state.open_until = None
                state.half_open = False

    def vetoed(self, name: str) -> bool:
        """Whether dispatch should currently avoid ``name``.

        Open circuits are vetoed until their cooldown expires; expiry
        transitions the circuit to half-open (not vetoed), so subsequent
        traffic probes the backend and its next success/failure decides.
        """
        with self._lock:
            state = self._states.get(name)
            if state is None or state.open_until is None:
                return False
            if self._clock() >= state.open_until:
                state.open_until = None
                state.half_open = True
                emit_event(__name__, "backend_half_open", backend=name)
                return False
            return True

    def quarantined(self) -> tuple[str, ...]:
        """Names currently vetoed, sorted (for telemetry/display)."""
        return tuple(sorted(n for n in list(self._states) if self.vetoed(n)))

    def snapshot(self) -> dict[str, int]:
        """Monotone counters: ``{"quarantines", "failures", "successes"}``."""
        with self._lock:
            return {
                "quarantines": self.quarantines,
                "failures": self.failures,
                "successes": self.successes,
            }


class StepRecovery:
    """Retry a failed GEMM step along its fallback chain, bit-identically.

    ``run`` executes ``attempt(backend_name)`` for each candidate in
    :func:`fallback_chain` order until one succeeds, recording outcomes
    into ``health`` (when given) and probing ``fault_plan``'s ``kernel``
    site before each attempt (when given); a forward round makes each
    step's primary attempt itself and hands ``run`` a step whose attempt
    raised.  The fallback is the last resort, so it is attempted even when
    quarantined.  Non-retryable errors (see
    :func:`repro.errors.is_retryable`) propagate immediately."""

    def __init__(self, *, health: BackendHealth | None = None, fault_plan=None):
        """Record outcomes into ``health``; probe ``fault_plan`` per attempt."""
        self.health = health
        self.fault_plan = fault_plan

    def run(
        self,
        attempt: Callable[[str], object],
        backend: str,
        *,
        detail: str = "",
        raised: BaseException | None = None,
    ):
        """Execute one step with fallback; returns ``(result, executed,
        retried)`` where ``retried`` is the tuple of backend names that
        failed before ``executed`` succeeded.  Raises the last failure
        when the whole chain is exhausted.  ``raised``: what the caller's
        own attempt on ``backend`` raised — the walk starts at its failure."""
        failed: list[str] = []
        for name in fallback_chain(backend):
            if raised is None:
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.maybe_raise("kernel", detail=f"{detail}:{name}")
                    result = attempt(name)
                except BaseException as exc:
                    raised = exc
                else:
                    if self.health is not None:
                        self.health.record_success(name)
                    if failed:
                        emit_event(
                            __name__, "step_recovered", backend=name, failed=failed, step=detail
                        )
                    return result, name, tuple(failed)
            if not is_retryable(raised):
                raise raised
            if self.health is not None:
                self.health.record_failure(name)
            failed.append(name)
            last, raised = raised, None
        raise last
