"""The local work-queue executor: a crash-tolerant spawn-based crew.

The robustness backend the ``pool`` executor cannot be: each worker is
a freshly spawned process the parent owns outright, so the parent can

- **enforce per-task timeouts** -- a task over ``task_timeout_s`` gets
  its worker killed, the attempt recorded as timed out, and a
  replacement worker spawned;
- **survive worker death** -- a worker that segfaults, is OOM-killed or
  SIGKILLed mid-task costs one attempt of the task it was running, not
  the sweep;
- **bound retries with backoff** -- a task is re-dispatched up to
  ``retries`` extra times, attempt ``k`` held back
  ``retry_backoff_s * 2**(k-2)`` seconds;
- **isolate per-item failures** -- with ``keep_going`` a permanently
  failed task becomes a structured :class:`~repro.exec.base.TaskFailure`
  and the rest of the queue keeps draining.

Every worker talks to the parent over its own duplex pipe, one task at
a time, so the parent always knows which task a dead or stuck worker
was holding.  The parent blocks on every pipe plus every process
sentinel at once: a worker's death shows up immediately (during spawn
boot too) and can only take its own pipe down with it -- there is no
channel shared between workers for a kill to wedge.  Results are merged
by task index, and tasks are deterministic functions of their payloads,
so scheduling nondeterminism (who ran what, in which order, after how
many crashes) never reaches the output: the merged result list is
bit-identical to the ``serial`` backend's.

``spawn`` (not ``fork``) keeps workers independent of parent state --
the same start method on every platform, and no inherited locks to
deadlock on after a kill.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.exec.base import (
    CompletionHook,
    ExecTask,
    Executor,
    TaskFailure,
    TaskOutcome,
)
from repro.parallel import default_workers

#: Grace given to a worker to exit on its own before it is killed.
_JOIN_S = 2.0

_CTX = multiprocessing.get_context("spawn")


def _worker_main(fn: Callable[[Any], Any], conn) -> None:
    """Worker loop: one payload in, ``("start", None)`` then one
    ``("ok", value)`` or ``("error", (type, message))`` reply out.
    Exits quietly once the parent closes its end of the pipe or dies."""
    try:
        while True:
            payload = conn.recv()
            # Announce pickup so the parent's task_timeout_s clock
            # measures the task itself, not this worker's spawn boot.
            conn.send(("start", None))
            try:
                reply = ("ok", fn(payload))
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                reply = ("error", (type(exc).__name__, str(exc)))
            conn.send(reply)
    except (EOFError, OSError):
        return


@dataclass
class _Worker:
    process: Any
    conn: Any
    #: The task this worker holds; None when idle.
    state: Optional["_TaskState"] = None
    #: When the held task times out; set once the worker announces
    #: pickup (None before that, or without ``task_timeout_s``).
    deadline: Optional[float] = None


class _TaskState:
    """Parent-side bookkeeping for one task."""

    __slots__ = ("task", "index", "attempts", "ready_at")

    def __init__(self, task: ExecTask, index: int) -> None:
        self.task = task
        self.index = index
        self.attempts = 0
        self.ready_at = 0.0


class LocalQueueExecutor(Executor):
    """Spawn-based worker crew with timeouts, retries and isolation."""

    name = "local-queue"

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[ExecTask],
        on_complete: Optional[CompletionHook] = None,
    ) -> List[TaskOutcome]:
        workers = (
            default_workers()
            if self.spec.max_workers is None
            else self.spec.max_workers
        )
        if not tasks:
            return []
        # No in-process degeneration even at one worker: timeouts and
        # crash isolation need a killable process, and that robustness
        # is this backend's contract (the serial backend is the
        # in-process choice).
        crew_size = min(max(1, workers), len(tasks))
        return _CrewRun(self, fn, tasks, crew_size, on_complete).run()


class _CrewRun:
    """One ``map_tasks`` call: dispatch loop, deadlines, respawns."""

    def __init__(
        self,
        executor: LocalQueueExecutor,
        fn: Callable[[Any], Any],
        tasks: Sequence[ExecTask],
        crew_size: int,
        on_complete: Optional[CompletionHook],
    ) -> None:
        self.executor = executor
        self.spec = executor.spec
        self.fn = fn
        self.crew_size = crew_size
        self.on_complete = on_complete
        self.pending = [_TaskState(t, i) for i, t in enumerate(tasks)]
        self.outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        self.unsettled = len(tasks)
        self.workers: List[_Worker] = []

    # ------------------------------------------------------------------
    # Crew lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        parent_conn, child_conn = _CTX.Pipe()
        process = _CTX.Process(
            target=_worker_main, args=(self.fn, child_conn), daemon=True
        )
        process.start()
        # Only the worker may hold the child end: once it dies, the
        # parent's end reads EOF instead of blocking forever.
        child_conn.close()
        self.workers.append(_Worker(process=process, conn=parent_conn))

    def _stop_worker(self, worker: _Worker) -> None:
        worker.conn.close()
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(_JOIN_S)

    def _replace_worker(self, worker: _Worker) -> None:
        self._stop_worker(worker)
        self.workers.remove(worker)
        if self.unsettled:
            self._spawn_worker()

    def _shutdown(self) -> None:
        # An idle worker exits on the EOF; a busy one only remains when
        # the map aborts, and its task's result is no longer wanted.
        for worker in self.workers:
            worker.conn.close()
        deadline = time.monotonic() + _JOIN_S
        for worker in self.workers:
            if worker.state is None:
                worker.process.join(max(0.0, deadline - time.monotonic()))
            self._stop_worker(worker)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> List[TaskOutcome]:
        for _ in range(self.crew_size):
            self._spawn_worker()
        try:
            while self.unsettled:
                self._dispatch()
                ready = set(wait(
                    [w.conn for w in self.workers]
                    + [w.process.sentinel for w in self.workers],
                    self._wait_timeout(),
                ))
                for worker in list(self.workers):
                    if worker.conn in ready:
                        self._drain(worker)
                    elif worker.process.sentinel in ready:
                        self._worker_died(worker)
                self._expire_deadlines()
            return self.outcomes  # type: ignore[return-value]
        finally:
            self._shutdown()

    def _dispatch(self) -> None:
        now = time.monotonic()
        idle = [w for w in self.workers if w.state is None]
        ready = [s for s in self.pending if s.ready_at <= now]
        for worker, state in zip(idle, ready):
            self.pending.remove(state)
            state.attempts += 1
            worker.state = state
            try:
                worker.conn.send(state.task.payload)
            except OSError:
                # The worker is already gone; its sentinel settles the
                # attempt on the next wait.
                pass

    def _wait_timeout(self) -> Optional[float]:
        """Seconds until the nearest task deadline or, with a worker
        idle, the nearest backoff release; None blocks until a reply or
        a death."""
        wakeups = [w.deadline for w in self.workers if w.deadline is not None]
        if any(w.state is None for w in self.workers):
            wakeups.extend(s.ready_at for s in self.pending)
        if not wakeups:
            return None
        return max(0.0, min(wakeups) - time.monotonic())

    def _drain(self, worker: _Worker) -> None:
        """Absorb every reply waiting on ``worker``'s pipe; EOF means
        the worker died."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                kind, value = worker.conn.recv()
            except (EOFError, OSError):
                self._worker_died(worker)
                return
            self._absorb(worker, kind, value)

    def _absorb(self, worker: _Worker, kind: str, value: Any) -> None:
        if kind == "start":
            if self.spec.task_timeout_s is not None:
                worker.deadline = time.monotonic() + self.spec.task_timeout_s
            return
        state = worker.state
        worker.state = worker.deadline = None
        if kind == "ok":
            self._resolve(
                TaskOutcome(
                    key=state.task.key,
                    index=state.index,
                    value=value,
                    attempts=state.attempts,
                )
            )
        else:
            self._retry_or_fail(state, value)

    def _worker_died(self, worker: _Worker) -> None:
        # Reap first so the exit code is the worker's own, not our kill's.
        worker.process.join(_JOIN_S)
        state = worker.state
        self._replace_worker(worker)
        if state is not None:
            self._retry_or_fail(state, (
                "WorkerDied",
                f"worker exited with code {worker.process.exitcode} "
                "mid-task",
            ))

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.deadline is not None and now >= worker.deadline:
                state = worker.state
                self._replace_worker(worker)
                self._retry_or_fail(state, (
                    "TimeoutError",
                    f"exceeded task_timeout_s={self.spec.task_timeout_s:g}s",
                ), timed_out=True)

    # ------------------------------------------------------------------
    # Task settlement
    # ------------------------------------------------------------------
    def _retry_or_fail(
        self, state: _TaskState, error: Tuple[str, str], timed_out: bool = False
    ) -> None:
        """Queue the task's next attempt, or settle it as failed with
        this attempt's ``(error type, message)``."""
        if state.attempts < self.spec.max_attempts:
            state.ready_at = time.monotonic() + self.spec.backoff_before(
                state.attempts + 1
            )
            self.pending.append(state)
            return
        error_type, message = error
        self._resolve(
            TaskOutcome(
                key=state.task.key,
                index=state.index,
                failure=TaskFailure(
                    key=state.task.key,
                    index=state.index,
                    error_type=error_type,
                    message=message,
                    attempts=state.attempts,
                    timed_out=timed_out,
                ),
                attempts=state.attempts,
            )
        )

    def _resolve(self, outcome: TaskOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        self.unsettled -= 1
        # Raises ExecError to abort unless failures are kept; the
        # finally-block shutdown then kills the crew.
        self.executor._settle(outcome, self.on_complete)
