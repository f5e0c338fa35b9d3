"""Generator-based simulation processes."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import URGENT, SimulationError, Simulator, StopProcess
from repro.sim.events import Event, Interrupt, ProcessCancelled


class Process(Event):
    """A running simulation activity.

    Wraps a generator: every value the generator yields must be an
    :class:`~repro.sim.events.Event`; the process sleeps until that event
    fires, at which point the event's value is sent back into the
    generator (or its exception thrown, if it failed).

    The process is itself an event that fires when the generator returns;
    the generator's return value (``return x`` / ``raise StopProcess(x)``)
    becomes the process's value, so processes can wait on each other::

        def child(sim):
            yield Timeout(sim, 1.0)
            return 42

        def parent(sim):
            result = yield sim.process(child(sim))
            assert result == 42
    """

    __slots__ = ("generator", "name", "daemon", "_waiting_on")

    def __init__(self, sim: Simulator, generator: Generator,
                 name: Optional[str] = None, daemon: bool = False):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Infrastructure loop (disk scheduler, load monitor): excluded
        #: from :meth:`Simulator.orphans` accounting.
        self.daemon = daemon
        self._waiting_on: Optional[Event] = None
        sim._processes.add(self)
        self.add_callback(self._unregister)
        # Bootstrap: resume once, now (URGENT so spawning is prompt but
        # still passes through the event loop for determinism).
        boot = Event(sim)
        boot.add_callback(self._resume)
        boot.succeed(priority=URGENT)
        # Track the bootstrap like any other wait so that cancelling a
        # process before it ever runs detaches it cleanly.
        self._waiting_on = boot

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered and not self.scheduled

    # ------------------------------------------------------------------
    def _unregister(self, event: Event) -> None:
        self.sim._processes.discard(self)

    def _detach(self) -> Optional[Event]:
        """Remove our resume callback from the awaited event (if any)."""
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None and not waited.triggered:
            waited.callbacks = [cb for cb in waited.callbacks
                                if getattr(cb, "__self__", None) is not self]
            return waited
        return None

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is an error.  The event the
        process was waiting on is withdrawn (its resource claim is
        released); the process may catch the :class:`Interrupt` and
        continue — re-acquiring whatever it needs.
        """
        if self.triggered or self.scheduled:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waited = self._detach()
        if waited is not None:
            waited.withdraw()
        kick = Event(self.sim)
        kick.add_callback(lambda ev: self._throw(Interrupt(cause)))
        kick.succeed(priority=URGENT)

    # ------------------------------------------------------------------
    def cancel(self, cause: Any = None) -> bool:
        """Terminate the process without giving it a say.

        The generator is closed (``GeneratorExit`` unwinds it, running
        ``finally`` blocks — cleanup must be synchronous) and the event
        it was waiting on is withdrawn, releasing disk queue slots, NIC
        channels, CPU shares, and store/queue positions all the way
        down the wait graph (waiting on another process cancels that
        process too).  The process event fails with
        :class:`ProcessCancelled`, so a waiter that *does* still hold a
        reference sees an exception rather than a silent no-value.

        Cancelling a finished (or already-cancelled) process is a
        no-op.  Returns True if the process was actually cancelled.
        """
        if self.triggered or self.scheduled:
            return False
        waited = self._detach()
        if waited is not None:
            waited.withdraw()
        try:
            self.generator.close()
        except RuntimeError as exc:
            raise SimulationError(
                f"process {self.name!r} refused cancellation "
                f"(generator yielded during close)") from exc
        except ValueError as exc:
            raise SimulationError(
                f"cannot cancel process {self.name!r} from inside "
                f"its own execution") from exc
        self.fail(ProcessCancelled(cause if cause is not None else self.name))
        return True

    def withdraw(self) -> None:
        """Withdrawing a process (its waiter was cancelled) cancels it."""
        self.cancel()

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._failed:
                target = self.generator.throw(event._value)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value, priority=URGENT)
            return
        except StopProcess as stop:
            self.generator.close()
            self.succeed(stop.value, priority=URGENT)
            return
        except Interrupt as exc:
            # Uncaught interrupt terminates the process as failed.
            self.fail(exc)
            return
        except Exception as exc:
            self.fail(exc)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered or self.scheduled:
            # The process finished (or was cancelled) between the
            # interrupt request and its delivery; nothing to deliver to.
            return
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value, priority=URGENT)
            return
        except StopProcess as stop:
            self.generator.close()
            self.succeed(stop.value, priority=URGENT)
            return
        except Exception as err:
            self.fail(err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, which is not an Event"))
            return
        if target.sim is not self.sim:
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from another simulator"))
            return
        self._waiting_on = target
        if target.triggered:
            self._resume(target)
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"
