"""Lightweight per-stage profiling for the search drivers.

``REPRO_PROFILE=1`` (or the CLI's ``--profile``) makes every top-level
:func:`repro.blast.search.search` / ``search_batch`` call emit one JSON
line to stderr with per-stage wall times — pack, index, scan, seed,
extend, gapped_bulk (the batched score-only gapped pass), gapped (the
pointer-matrix tracebacks) — plus counters like how many seeds the
covered-run prefilter dropped.  The gapped stage threads three
counters: ``gapped_trials`` (score-pass DP problems — every triggered
candidate on the scalar path, distinct diagonals on the bulk path),
``gapped_traceback`` (pointer-matrix DPs actually run), and
``gapped_culled`` (triggered candidates resolved without a
pointer-matrix DP: diagonal-memo hits, E-value-reject skips,
zero-score results).  The bulk one-hit driver also counts
``groups_culled``: hit groups dropped before finalization because
their best seed score can neither trigger a gapped DP nor pass the
E-value cutoff.  The point is to stop guessing where the numpy passes
go: kernel PRs read the stage split instead of re-deriving it with
ad-hoc timers.

The hook is designed to cost nothing when off: the drivers consult
:func:`current_profile` (a module-global read) and skip every timer
when it returns ``None``.  Only the *outermost* search activates a
profile — nested calls (e.g. :func:`~repro.blast.search.search_prepared`
inside ``search_batch``) accumulate into the active one rather than
emitting their own lines.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, Optional

#: Environment switch; any non-empty value other than ``0`` enables
#: profiling (the CLI's ``--profile`` just sets it to ``1``).
PROFILE_ENV = "REPRO_PROFILE"

_active: Optional["StageProfile"] = None


def profiling_enabled() -> bool:
    """Whether the environment asks for per-stage emission."""
    return (os.environ.get(PROFILE_ENV) or "").strip() not in ("", "0")


def current_profile() -> Optional["StageProfile"]:
    """The profile of the enclosing search call, or ``None`` (the
    common, zero-overhead case)."""
    return _active


class StageProfile:
    """Accumulates stage wall times and counters for one search call."""

    def __init__(self, label: str, **meta):
        self.label = label
        self.meta = dict(meta)
        self.stages: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self._t0 = time.perf_counter()

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate *seconds* into a stage bucket."""
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter (seeds seen, seeds skipped, subjects hit...)."""
        self.counters[name] = self.counters.get(name, 0) + n

    @contextmanager
    def stage(self, name: str):
        """Time a block into the *name* bucket."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def as_dict(self) -> dict:
        out = {"profile": self.label,
               "total_s": round(time.perf_counter() - self._t0, 6)}
        out.update(self.meta)
        out["stages"] = {k: round(v, 6) for k, v in self.stages.items()}
        if self.counters:
            out["counters"] = dict(self.counters)
        return out

    def emit(self, stream=None) -> None:
        """One JSON line to stderr (never stdout — results live there)."""
        print(json.dumps(self.as_dict()),
              file=stream if stream is not None else sys.stderr)


@contextmanager
def profiled(label: str, enabled: Optional[bool] = None,
             emit: bool = True, **meta):
    """Activate a :class:`StageProfile` for the dynamic extent.

    Yields the active profile (or ``None`` when profiling is off).  A
    profile already being active means this call is nested inside
    another profiled search: the outer one keeps collecting and no new
    line is emitted.  ``emit=False`` collects stage times without
    printing the JSON line — benchmarks use it to read stage splits
    programmatically from the yielded profile.
    """
    global _active
    if enabled is None:
        enabled = profiling_enabled()
    if not enabled or _active is not None:
        yield _active
        return
    prof = StageProfile(label, **meta)
    _active = prof
    try:
        yield prof
    finally:
        _active = None
        if emit:
            prof.emit()
