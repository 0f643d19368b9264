"""A streaming traffic source with a replayable cursor.

Streaming traffic models are lazy generators: they cannot be serialised into
a checkpoint.  What *can* be checkpointed is their position — the seeded
generator is deterministic, so "the same factory, advanced ``consumed``
items" reproduces both the stream remainder **and** the traffic model's side
state (per-flow ground-truth counters, first-packet timestamps) that
settle-time invariants read.

:class:`ReplayableSource` wraps a factory (or a bare iterable) and tracks
that position while behaving as a normal iterator, so it plugs straight into
``Network.run(source=...)``.  It also implements the two hooks the simulator
looks for:

* ``push_back(item)`` — an interrupted run returns the one not-yet-due item
  it holds, instead of pushing it onto the event heap.  This keeps
  source-vs-heap tie-breaking identical when the run resumes, and keeps
  CONTROL callables (which cannot be snapshotted) out of the heap.
* ``rewind()`` — re-seeds the stream from the factory so
  :meth:`Network.reset` can reuse the topology for a fresh run even after an
  interrupted streaming run left the cursor mid-stream.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Optional, Union

from repro.errors import SimulationError
from repro.interp.network import CONTROL, SourceItem


class ReplayableSource:
    """Iterate a traffic stream while tracking a replayable cursor.

    ``source`` is either a zero-arg factory returning a fresh iterable (the
    scenario ``traffic`` convention — enables :meth:`rewind` and
    :meth:`skip`-based replay) or a bare iterable (counting only).

    Counters: ``consumed`` is every item yielded (including CONTROL
    actions), ``injected`` counts only events, ``last_ns`` is the timestamp
    of the latest item (the stream is time-ordered).  Per item the cursor
    keeps only ``consumed``, the CONTROL count and the last two items; the
    other counters are derived from them.  An item returned via
    :meth:`push_back` is *uncounted* by :meth:`cursor` until it is pulled
    again, so a checkpoint taken while the simulator holds a pending item
    replays that item on resume.
    """

    def __init__(self, source: Union[Callable[[], Iterable[SourceItem]], Iterable[SourceItem]]):
        if callable(source):
            self._factory: Optional[Callable[[], Iterable[SourceItem]]] = source
            self._items: Iterator[SourceItem] = iter(source())
        else:
            self._factory = None
            self._items = iter(source)
        self._pushed_back: Optional[SourceItem] = None
        self._zero()

    def _zero(self) -> None:
        self.consumed = 0
        self._controls = 0
        self._last: Optional[SourceItem] = None
        #: the item pulled before ``_last`` — the one-step undo that lets
        #: cursor() exclude a pushed-back item
        self._prev: Optional[SourceItem] = None
        self._stopped = False

    # -- iteration -----------------------------------------------------------
    def __iter__(self) -> "ReplayableSource":
        return self

    def __next__(self) -> SourceItem:
        if self._pushed_back is not None:
            item, self._pushed_back = self._pushed_back, None
            return item
        try:
            item = next(self._items)
        except StopIteration:
            self._stopped = True
            raise
        self.consumed += 1
        self._prev = self._last
        self._last = item
        if item[1] == CONTROL:
            self._controls += 1
        return item

    @property
    def injected(self) -> int:
        """Events (non-CONTROL items) pulled so far."""
        return self.consumed - self._controls

    @property
    def last_ns(self) -> int:
        """Timestamp of the latest pulled item (0 before the first)."""
        return 0 if self._last is None else self._last[0]

    # -- simulator hooks -----------------------------------------------------
    def push_back(self, item: SourceItem) -> None:
        """Return the most recently pulled item; it is yielded again first.
        Only the last pulled item may be returned (the cursor can undo
        exactly one pull)."""
        if self._pushed_back is not None:
            raise SimulationError("push_back: an item is already held")
        self._pushed_back = item

    def rewind(self) -> None:
        """Re-seed the stream from the factory and zero the cursor."""
        if self._factory is None:
            raise SimulationError(
                "this source wraps a bare iterable and cannot rewind; build "
                "it from a zero-arg factory to make it replayable"
            )
        self._items = iter(self._factory())
        self._pushed_back = None
        self._zero()

    # -- cursor --------------------------------------------------------------
    def peek(self) -> Optional[SourceItem]:
        """The next item without consuming it (``None`` when exhausted)."""
        if self._pushed_back is not None:
            return self._pushed_back
        try:
            item = next(self)
        except StopIteration:
            return None
        self.push_back(item)
        return item

    @property
    def exhausted(self) -> bool:
        """True once the stream has ended and no pushed-back item remains."""
        return self._stopped and self._pushed_back is None

    def cursor(self) -> Dict[str, int]:
        """The replayable position: pass ``cursor()["consumed"]`` to
        :meth:`skip` on a freshly built source to reach the same point.
        ``injected``/``last_ns`` are recorded for replay validation.  A
        pushed-back (pulled but undelivered) item is excluded."""
        consumed, injected, last = self.consumed, self.injected, self._last
        held = self._pushed_back
        if held is not None:
            consumed -= 1
            if held[1] != CONTROL:
                injected -= 1
            last = self._prev
        return {
            "consumed": consumed,
            "injected": injected,
            "last_ns": 0 if last is None else last[0],
        }

    def skip(self, count: int) -> "ReplayableSource":
        """Advance a *fresh* source past ``count`` items without delivering
        them — the checkpoint-restore replay.  Skipped CONTROL actions are
        discarded, not executed: their effects are part of the restored
        network snapshot.  Replaying re-runs the generator, so traffic-model
        side state (ground-truth counters) is reproduced exactly."""
        if self.consumed or self._pushed_back is not None:
            raise SimulationError("skip() requires a freshly built source")
        for _ in range(count):
            try:
                next(self)
            except StopIteration:
                raise SimulationError(
                    f"source ended after {self.consumed} items while replaying "
                    f"a cursor of {count}: the traffic stream differs from the "
                    f"one that was checkpointed"
                ) from None
        return self
