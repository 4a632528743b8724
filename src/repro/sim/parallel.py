"""Fault-tolerant parallel job execution across worker processes.

The simulator is single-threaded Python; a full-scale sweep — every
figure of the paper's evaluation is a (workload x scheme) matrix — is
embarrassingly parallel across cells.  This module provides the
process-pool substrate the campaign engine (:mod:`repro.eval.campaign`)
builds on: :func:`execute_jobs` runs arbitrary picklable jobs on a
``ProcessPoolExecutor`` with per-job timeouts (enforced inside the
worker via ``SIGALRM``, so a runaway cell aborts itself), bounded
retries with linear backoff, and recovery from killed worker processes
(a ``BrokenProcessPool`` rebuilds the pool and re-queues the unfinished
jobs instead of aborting the sweep).

Failures never raise out of :func:`execute_jobs`: every job ends in a
:class:`JobOutcome` whose ``status`` is ``"ok"`` or ``"failed"`` and
whose ``error`` carries the worker's traceback, so a single bad cell
degrades one data point rather than the whole campaign.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its time budget."""


@dataclass
class JobOutcome:
    """Terminal state of one job submitted to :func:`execute_jobs`.

    ``status`` is ``"ok"`` (``value`` holds the worker's return) or
    ``"failed"`` (``error`` holds the traceback or a description).
    ``reason`` classifies failures: ``"exception"`` (the worker
    raised), ``"timeout"`` (the per-job budget expired) or
    ``"worker_died"`` (the process was killed — OOM, ``os._exit``,
    signal).  ``runtime`` is wall-clock seconds inside the worker.
    """

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    reason: Optional[str] = None
    attempts: int = 1
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _call(worker: Callable[[Any], Any], payload: Any,
          timeout: Optional[float] = None) -> Tuple[str, Any, float]:
    """Run ``worker(payload)`` under an optional ``SIGALRM`` budget.

    Always returns a ``(status, value_or_traceback, seconds)`` tuple —
    worker exceptions are serialised as tracebacks rather than raised,
    so the only way a future can *raise* in the parent is process
    death (``BrokenProcessPool``).
    """
    start = time.monotonic()
    use_alarm = (timeout is not None and timeout > 0
                 and hasattr(signal, "setitimer")
                 and threading.current_thread() is threading.main_thread())
    previous = None
    if use_alarm:
        def _on_alarm(signum, frame):
            raise JobTimeout(f"job exceeded its {timeout:.1f}s budget")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        value = worker(payload)
        return "ok", value, time.monotonic() - start
    except JobTimeout as exc:
        return "timeout", str(exc), time.monotonic() - start
    except BaseException:
        return "err", traceback.format_exc(), time.monotonic() - start
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def execute_jobs(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int = 4,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.25,
    on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    on_retry: Optional[Callable[[int, int, str], None]] = None,
) -> List[JobOutcome]:
    """Run ``worker(payload)`` for every payload on a process pool.

    ``jobs == 1`` runs everything in-process (no pool, no pickling),
    which the tests and ``repro campaign --jobs 1`` use; ``repro
    campaign --serial`` never comes here (``run_campaign(serial=True)``
    runs its cells through ``_SerialEvaluator``).  ``timeout``
    bounds each job's wall-clock seconds; a timed-out or crashed job
    is retried up to ``retries`` extra attempts with ``backoff *
    attempt`` seconds between waves, then recorded as failed.
    ``on_outcome`` fires once per job as it reaches a terminal state
    (the campaign CLI hangs its live progress off this); ``on_retry``
    fires ``(index, attempt, reason)`` every time a non-terminal
    attempt is re-queued (``reason`` in ``"exception"``/``"timeout"``/
    ``"worker_died"``) — the campaign manifest records each cell's
    retry reasons from it.

    Returns one :class:`JobOutcome` per payload, in payload order.
    Never raises for job failures; see :class:`JobOutcome`.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    outcomes: List[Optional[JobOutcome]] = [None] * len(payloads)

    def finish(index: int, attempts: int, status: str, value: Any = None,
               error: Optional[str] = None, reason: Optional[str] = None,
               runtime: float = 0.0) -> None:
        outcome = JobOutcome(index=index, status=status, value=value,
                             error=error, reason=reason, attempts=attempts,
                             runtime=runtime)
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    def settle(index: int, attempts: int, status: str, value: Any,
               elapsed: float, pending: List[Tuple[int, int]]) -> None:
        """Route one worker return to a terminal outcome or a retry."""
        if status == "ok":
            finish(index, attempts, "ok", value=value, runtime=elapsed)
        elif attempts > retries:
            reason = "timeout" if status == "timeout" else "exception"
            finish(index, attempts, "failed", error=value, reason=reason,
                   runtime=elapsed)
        else:
            if on_retry is not None:
                on_retry(index, attempts,
                         "timeout" if status == "timeout" else "exception")
            pending.append((index, attempts))

    if jobs == 1:
        for i, payload in enumerate(payloads):
            attempts = 0
            while outcomes[i] is None:
                attempts += 1
                status, value, elapsed = _call(worker, payload, timeout)
                one: List[Tuple[int, int]] = []
                settle(i, attempts, status, value, elapsed, one)
                if one:
                    time.sleep(backoff * attempts)
        return outcomes  # type: ignore[return-value]

    pending: List[Tuple[int, int]] = [(i, 0) for i in range(len(payloads))]
    wave = 0
    while pending:
        wave += 1
        if wave > 1:
            time.sleep(backoff * wave)
        pool = ProcessPoolExecutor(max_workers=jobs)
        futures = {
            pool.submit(_call, worker, payloads[i], timeout): (i, att + 1)
            for i, att in pending
        }
        pending = []
        try:
            for future in as_completed(futures):
                index, attempts = futures[future]
                try:
                    status, value, elapsed = future.result()
                except (BrokenProcessPool, Exception):
                    # The worker process died (or the pool collapsed
                    # under it).  Re-queue within the retry budget; the
                    # culprit cannot be told apart from its pool-mates,
                    # so each charged attempt is individually retried.
                    if attempts > retries:
                        finish(index, attempts, "failed",
                               error="worker process died "
                                     "(killed, OOM or hard crash)",
                               reason="worker_died")
                    else:
                        if on_retry is not None:
                            on_retry(index, attempts, "worker_died")
                        pending.append((index, attempts))
                    continue
                settle(index, attempts, status, value, elapsed, pending)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    return outcomes  # type: ignore[return-value]
