"""Pause CPython's cyclic garbage collector for the span of a request.

Every value the engine builds is an immutable, acyclic tree: reference
counting alone frees it.  The cyclic collector still scans those trees
whenever allocations pass its threshold, and a bulk request allocates
millions of them — the collector's full passes over the survivors cost
a quarter of such a request's wall time while finding nothing to free.

:func:`gc_paused` disables the collector for the duration of a
``with`` block.  It nests and is shared across threads: the first
entry records whether the collector was enabled and disables it, the
last exit restores that state, so overlapping requests on several
threads re-enable it exactly once, and a caller that disabled the
collector itself finds it still disabled afterwards.  Cycles created
during the pause (by a caller, or by the standard library) are not
leaked, only deferred: the collector finds them once it runs again.

A process forked while a pause is held (a process-pool worker started
mid-request) gets its collector back: the fork hook resets the child's
pause state and restores the parent's pre-pause setting.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]

_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector until the outermost pause exits."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()


def _after_fork_in_child() -> None:
    # The child has one thread and no pause of its own: drop the
    # parent's count (and a lock another thread may have held at fork).
    global _lock, _depth
    _lock = threading.Lock()
    if _depth:
        _depth = 0
        if _was_enabled:
            gc.enable()


os.register_at_fork(after_in_child=_after_fork_in_child)
