"""Processor-sharing CPU model.

A node has ``cores`` processors shared by any number of tasks.  With
``k`` active tasks each runs at rate ``min(1, cores / k)`` — the ideal
egalitarian processor-sharing discipline, which is what a multitasking
Linux scheduler approximates at this timescale.

The implementation is event-driven: task remaining-work values are
advanced lazily whenever the active set changes, and a single pending
completion timer is kept for the earliest-finishing task.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.sim import Event, Simulator, TimeWeightedMonitor, Timeout


class _TaskCompletion(Event):
    """Completion event of one CPU task.  Withdrawing it (the waiting
    process was cancelled) removes the task from the active set so the
    surviving tasks speed back up."""

    __slots__ = ("cpu", "tid")

    def __init__(self, cpu: "CPU", tid: int):
        super().__init__(cpu.sim)
        self.cpu = cpu
        self.tid = tid

    def withdraw(self) -> None:
        if self.triggered:
            return
        self.cancelled = True
        self.cpu._cancel_task(self.tid)


class _Task:
    __slots__ = ("remaining", "done")

    def __init__(self, cpu: "CPU", tid: int, work: float):
        self.remaining = float(work)
        self.done = _TaskCompletion(cpu, tid)


class CPU:
    """Shared processors of one node."""

    def __init__(self, sim: Simulator, cores: int = 2, name: str = "cpu"):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.sim = sim
        self.cores = cores
        self.name = name
        self._tasks: Dict[int, _Task] = {}
        self._ids = itertools.count()
        self._last_update = sim.now
        self._timer: Optional[Event] = None
        self.load = TimeWeightedMonitor(sim, name=f"{name}.load")
        self.busy_cores = TimeWeightedMonitor(sim, name=f"{name}.busy")
        self.total_work_done = 0.0
        sim.check.register(self)

    # ------------------------------------------------------------------
    @property
    def active_tasks(self) -> int:
        return len(self._tasks)

    def utilization(self) -> float:
        """Time-averaged fraction of cores busy since t=0."""
        return self.busy_cores.time_average / self.cores

    # ------------------------------------------------------------------
    def consume(self, work: float) -> Event:
        """Execute *work* seconds of CPU time; returns a completion event.

        ``work`` is wall-clock seconds the task would take if it had a
        whole core to itself.
        """
        if work < 0:
            raise ValueError("work must be >= 0")
        self._advance()
        tid = next(self._ids)
        task = _Task(self, tid, work)
        if work == 0:
            task.done.succeed()
            return task.done
        self._tasks[tid] = task
        self._update_monitors()
        self._reschedule()
        return task.done

    def run(self, work: float):
        """Generator form of :meth:`consume` for ``yield from`` use."""
        yield self.consume(work)

    # ------------------------------------------------------------------
    # The three methods below run on every task arrival, completion and
    # timer.  The per-task rate ``min(1, cores / k)`` and the busy-core
    # clamp ``min(k, cores)`` are written as comparisons that select the
    # operand ``min`` would, so every value is bit-identical to the
    # plain formulas.
    def _advance(self) -> None:
        """Charge elapsed time against every active task."""
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        tasks = self._tasks
        if dt <= 0 or not tasks:
            return
        k = len(tasks)
        progress = dt * (1.0 if k <= self.cores else self.cores / k)
        self.total_work_done += progress * k
        finished = []
        for tid, task in tasks.items():
            task.remaining -= progress
            if task.remaining <= 1e-12:
                finished.append(tid)
        for tid in finished:
            tasks.pop(tid).done.succeed()
        if finished:
            self._update_monitors()

    def _update_monitors(self) -> None:
        k = len(self._tasks)
        self.load.set(k)
        self.busy_cores.set(k if k <= self.cores else self.cores)

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the earliest finisher."""
        if self._timer is not None:
            self._timer.cancelled = True
            self._timer = None
        tasks = self._tasks
        if not tasks:
            return
        soonest = min([t.remaining for t in tasks.values()])
        k = len(tasks)
        timer = Timeout(self.sim, soonest / (1.0 if k <= self.cores
                                             else self.cores / k))
        timer.callbacks.append(self._on_timer)
        self._timer = timer

    def _cancel_task(self, tid: int) -> None:
        """Drop a task whose waiter was cancelled; remaining work is
        abandoned and the other tasks' share grows accordingly."""
        self._advance()
        if self._tasks.pop(tid, None) is not None:
            self._update_monitors()
            self._reschedule()

    # ------------------------------------------------------------------
    # Invariant hooks (see repro.sim.check)
    # ------------------------------------------------------------------
    def invariant_errors(self, strict: bool) -> list:
        errs = []
        k = len(self._tasks)
        if self.load.level != k:
            errs.append(f"cpu {self.name!r}: load monitor {self.load.level} "
                        f"!= {k} active task(s)")
        if self.busy_cores.level != min(k, self.cores):
            errs.append(f"cpu {self.name!r}: busy monitor "
                        f"{self.busy_cores.level} != min({k}, {self.cores})")
        if strict:
            # Stored remaining-work values are stale-high between lazy
            # advances but must never be meaningfully negative.
            for tid, task in self._tasks.items():
                if task.remaining < -1e-9:
                    errs.append(f"cpu {self.name!r}: task {tid} has negative "
                                f"remaining work {task.remaining}")
        return errs

    def drain_errors(self) -> list:
        errs = []
        if self._tasks:
            errs.append(f"cpu {self.name!r}: {len(self._tasks)} task(s) "
                        f"still active at drain")
        return errs

    def _on_timer(self, event: Event) -> None:
        if event.cancelled:  # pragma: no cover - cancelled timers are skipped upstream
            return
        self._timer = None
        self._advance()
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CPU {self.name!r} tasks={len(self._tasks)} cores={self.cores}>"
