"""Persistent worker pool: prime once, then index-only task messages.

The sweep engine used to create a fresh ``ProcessPoolExecutor`` per phase
and ship every task's full payload (scan circuit, state table, test set,
fault chunk) through pickle — on the small circuits of this corpus the
spawn + pickle overhead exceeded the simulation itself, which is how
``speedup_parallel_cold`` ended up *below* 1.

This pool inverts that:

* **Workers outlive a sweep.**  They are forked once (daemon processes,
  one duplex pipe each) and reused by every later phase and sweep in the
  process; :func:`get_pool` hands out the singleton.
* **Prime once per phase.**  :meth:`WorkerPool.prime` broadcasts one
  read-only snapshot (plus whether observability is on) to every worker
  and waits for acks.  Workers
  re-prime cheaply; each prime installs *fresh* obs collectors, because a
  forked worker inherits the parent's tracer state.
* **Index-only tasks.**  :meth:`WorkerPool.run` sends ``(fn, index)``
  messages; the worker applies ``fn(snapshot, index)``.  A task result
  travels back over the pipe; scheduling is dynamic (next index goes to
  the first worker that answers), so an unbalanced chunk list still packs.
* **Worker CPU rides along.**  Every result carries the worker's CPU delta
  since its previous result or prime
  (:func:`~repro.obs.resources.drain_worker_usage`), and the parent
  absorbs it on arrival, so a :class:`~repro.obs.resources.UsageProbe`
  window counts worker CPU whether or not observability is on.

Failure containment: a worker that dies mid-phase has its outstanding and
remaining work finished inline by the parent (``fn`` on the parent's own
copy of the snapshot — results are identical by construction); a machine
where ``fork`` is unavailable gets ``None`` from :func:`get_pool` and the
engine runs the same task functions inline.  Worker exceptions re-raise in
the parent.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Sequence

from repro.obs.metrics import (
    SECONDS_BUCKETS,
    counter_add,
    gauge_set,
    histogram_observe,
)
from repro.obs.resources import (
    absorb_child_usage,
    drain_worker_usage,
    reset_worker_usage,
)

__all__ = ["WorkerPool", "get_pool", "shutdown_pool"]

TaskFn = Callable[[Any, int], Any]


def _worker_main(conn: Connection) -> None:
    """Worker loop: prime installs state, tasks apply ``fn(snapshot, i)``."""
    import repro.obs as obs

    snapshot: Any = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        except Exception as error:  # unpicklable message: report, don't die
            try:
                conn.send(
                    ("err", None, RuntimeError(repr(error)), drain_worker_usage())
                )
                continue
            except Exception:
                break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "prime":
            _, obs_on, snapshot = message
            # Each result reports the worker CPU spent since this prime or
            # the previous result.
            reset_worker_usage()
            # Always reset collectors: the fork inherited the parent's
            # tracer, and a stale one would double-report or leak spans.
            if obs_on:
                obs.enable_in_worker()
            else:
                obs.disable()
            conn.send(("primed",))
            continue
        # ("task", fn, index)
        _, fn, index = message
        try:
            result = fn(snapshot, index)
        except BaseException as error:  # noqa: BLE001 — relayed to parent
            usage = drain_worker_usage()
            try:
                conn.send(("err", index, error, usage))
            except Exception:
                conn.send(("err", index, RuntimeError(repr(error)), usage))
            continue
        conn.send(("ok", index, result, drain_worker_usage()))


class _Worker:
    def __init__(self, context, index: int) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        self.process.start()
        child_conn.close()
        self.alive = True

    def kill(self) -> None:
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2)


class WorkerPool:
    """A fixed set of persistent forked workers (see module docstring)."""

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError("WorkerPool needs at least 2 jobs; run inline")
        self.jobs = jobs
        context = multiprocessing.get_context("fork")
        self._workers = [_Worker(context, i) for i in range(jobs)]
        self._snapshot: Any = None
        self._closed = False
        # Pool-lifetime utilization accumulators (parent-clock seconds).
        # Measured in the parent — dispatch-to-result per task — so the
        # numbers survive worker death and need no cross-process merge;
        # published as ``pool.worker.<i>.*`` gauges after every run.
        self._busy_s = [0.0] * jobs
        self._idle_s = [0.0] * jobs
        self._tasks = [0] * jobs
        self._queue_peak = 0

    # ------------------------------------------------------------ lifecycle

    def prime(self, snapshot: Any, *, obs_on: bool = False) -> None:
        """Broadcast the read-only snapshot; blocks until every ack.

        The parent keeps its own reference so it can finish tasks inline if
        workers die.  A worker that fails to prime is dropped.
        """
        self._snapshot = snapshot
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("prime", obs_on, snapshot))
            except (OSError, BrokenPipeError):
                worker.kill()
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                ack = worker.conn.recv()
                if ack[0] != "primed":  # pragma: no cover — protocol drift
                    worker.kill()
            except (EOFError, OSError):
                worker.kill()

    def run(
        self,
        fn: TaskFn,
        n_tasks: int,
        *,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[Any]:
        """Apply ``fn(snapshot, index)`` for every index; ordered results.

        Dynamic scheduling: each worker gets one task up front and the next
        pending index as soon as it answers.  Tasks of dead workers (and
        everything still pending once no worker is left) run inline in the
        parent on its own snapshot reference — an inline re-run records its
        spans and metrics directly into the parent's collectors, so nothing
        a dead worker was asked to do goes missing from the merged log.

        ``on_result(index, result)`` fires once per completed task (worker
        or inline), in completion order — progress heartbeats hook in here.

        Utilization telemetry (``pool.worker.<i>.busy_s/.idle_s/.tasks``
        gauges, the ``pool.task_s`` latency histogram, queue/dispatch
        counters) is recorded against the parent's metrics registry when
        observability is on; see :func:`repro.obs.pool_utilization`.
        """
        results: list[Any] = [None] * n_tasks
        pending = list(range(n_tasks - 1, -1, -1))
        outstanding: dict[int, int] = {}  # worker slot -> task index
        first_error: BaseException | None = None
        start = time.perf_counter()
        sent_at: dict[int, float] = {}  # worker slot -> dispatch time
        free_at: dict[int, float] = {}  # worker slot -> went-idle time
        dispatched = 0
        for slot, worker in enumerate(self._workers):
            if not worker.alive:
                continue
            if pending and self._send_task(worker, fn, pending[-1]):
                outstanding[slot] = pending.pop()
                sent_at[slot] = start
                dispatched += 1
            else:
                free_at[slot] = start
        self._queue_peak = max(self._queue_peak, len(pending))
        while outstanding:
            ready = connection_wait(
                [self._workers[slot].conn for slot in outstanding]
            )
            ready_ids = {id(conn) for conn in ready}
            for slot in list(outstanding):
                worker = self._workers[slot]
                if id(worker.conn) not in ready_ids:
                    continue
                index = outstanding.pop(slot)
                now = time.perf_counter()
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-task; its index goes back to pending
                    # and the parent will pick it up inline if needed.  The
                    # partial task's effort died with the process, but the
                    # inline re-run reproduces both the result and its
                    # observability in the parent.
                    worker.kill()
                    counter_add("pool.workers.dead")
                    pending.append(index)
                    self._queue_peak = max(self._queue_peak, len(pending))
                    continue
                self._busy_s[slot] += now - sent_at.get(slot, start)
                absorb_child_usage(message[3])
                if message[0] == "err":
                    # Drain the other in-flight tasks before raising so the
                    # pipes are clean for the next run; dispatch stops here.
                    first_error = first_error or message[2]
                    free_at[slot] = now
                    continue
                self._tasks[slot] += 1
                histogram_observe(
                    "pool.task_s",
                    now - sent_at.get(slot, start),
                    bounds=SECONDS_BUCKETS,
                )
                results[message[1]] = message[2]
                if on_result is not None:
                    on_result(message[1], message[2])
                if (
                    first_error is None
                    and pending
                    and self._send_task(worker, fn, pending[-1])
                ):
                    outstanding[slot] = pending.pop()
                    sent_at[slot] = now
                    dispatched += 1
                else:
                    free_at[slot] = now
        if first_error is not None:
            raise first_error
        if pending:
            counter_add("pool.tasks.inline", len(pending))
        for index in reversed(pending):
            inline_start = time.perf_counter()
            results[index] = fn(self._snapshot, index)
            histogram_observe(
                "pool.task_s",
                time.perf_counter() - inline_start,
                bounds=SECONDS_BUCKETS,
            )
            if on_result is not None:
                on_result(index, results[index])
        end = time.perf_counter()
        for slot, went_idle in free_at.items():
            if self._workers[slot].alive:
                self._idle_s[slot] += end - went_idle
        counter_add("pool.tasks.dispatched", dispatched)
        self._publish_utilization()
        return results

    def _publish_utilization(self) -> None:
        """Set the pool-lifetime ``pool.*`` gauges in the active registry."""
        for slot in range(self.jobs):
            prefix = f"pool.worker.{slot}"
            gauge_set(f"{prefix}.busy_s", self._busy_s[slot])
            gauge_set(f"{prefix}.idle_s", self._idle_s[slot])
            gauge_set(f"{prefix}.tasks", self._tasks[slot])
        gauge_set("pool.queue_depth.peak", self._queue_peak)

    def _send_task(self, worker: _Worker, fn: TaskFn, index: int) -> bool:
        try:
            worker.conn.send(("task", fn, index))
            return True
        except (OSError, BrokenPipeError):
            worker.kill()
            counter_add("pool.workers.dead")
            return False

    def utilization(self) -> dict[str, Any]:
        """Pool-lifetime utilization snapshot (JSON-ready).

        Accumulates across every :meth:`run` since the pool was forked;
        callers wanting per-phase numbers diff two snapshots.
        """
        return {
            "queue_depth_peak": self._queue_peak,
            "workers": [
                {
                    "worker": slot,
                    "tasks": self._tasks[slot],
                    "busy_s": round(self._busy_s[slot], 6),
                    "idle_s": round(self._idle_s[slot], 6),
                }
                for slot in range(self.jobs)
            ],
        }

    @property
    def n_alive(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    def shutdown(self) -> None:
        """Stop and join every worker; the pool is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
            worker.kill()
        self._snapshot = None


# --------------------------------------------------------------- singleton

_POOL: WorkerPool | None = None


def get_pool(jobs: int) -> WorkerPool | None:
    """The process-wide persistent pool, (re)sized to ``jobs`` workers.

    Returns ``None`` — meaning "run inline" — when ``jobs <= 1`` or worker
    processes cannot be created in this environment.  A live pool with a
    different size is shut down and replaced; with the same size it is
    reused as-is (that reuse is the point: sweeps after the first pay zero
    spawn cost).
    """
    global _POOL
    if jobs <= 1:
        return None
    if _POOL is not None and not _POOL._closed and _POOL.jobs == jobs:
        if _POOL.n_alive > 0:
            return _POOL
        _POOL.shutdown()
        _POOL = None
    elif _POOL is not None:
        _POOL.shutdown()
        _POOL = None
    try:
        # get_context("fork") raises ValueError where fork is unsupported;
        # restricted sandboxes raise OSError/PermissionError on spawn.
        _POOL = WorkerPool(jobs)
    except (OSError, PermissionError, ValueError):
        _POOL = None
    return _POOL


def shutdown_pool() -> None:
    """Shut the singleton down (tests, interpreter exit)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)

# Forked children of a process that owns a pool must never try to talk to
# their inherited copy of it.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: globals().__setitem__("_POOL", None))
