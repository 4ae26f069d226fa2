"""Tests for the per-request pause of the cyclic collector (``gc_paused``)."""

from __future__ import annotations

import gc
import os
import threading
import weakref

import pytest

from repro import io
from repro.engine.gcpause import gc_paused
from repro.errors import DeadlineExceeded
from repro.values.values import vorset, vset


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts and ends with the collector on."""
    gc.enable()
    yield
    gc.enable()


class _Node:
    def __init__(self) -> None:
        self.other: object = None


def test_pause_disables_then_restores():
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_restores_after_an_exception():
    with pytest.raises(ValueError), gc_paused():
        raise ValueError("boom")
    assert gc.isenabled()


def test_restores_after_a_deadline():
    value = io.value_to_json(vset(*(vorset(i, i + 100) for i in range(8))))
    with pytest.raises(DeadlineExceeded):
        io.run_json("normalize", value, timeout=0.0)
    assert gc.isenabled()


def test_entry_points_pause_for_the_whole_request(monkeypatch):
    seen = []
    original = io.value_to_json

    def spy(v):
        seen.append(gc.isenabled())
        return original(v)

    monkeypatch.setattr(io, "value_to_json", spy)
    io.run_json("normalize", {"orset": [{"atom": "int", "value": 1}]})
    io.run_json_many("normalize", [{"orset": [{"atom": "int", "value": 2}]}])
    assert seen and not any(seen)  # encode ran inside both pauses
    assert gc.isenabled()


def test_overlapping_pauses_reenable_once_at_the_last_exit():
    first_in = threading.Event()
    second_in = threading.Event()
    first_out = threading.Event()
    observed = {}

    def first():
        with gc_paused():
            first_in.set()
            second_in.wait(5)
        first_out.set()

    def second():
        first_in.wait(5)
        with gc_paused():
            second_in.set()
            first_out.wait(5)
            # The other thread left its pause; this one still holds it.
            observed["after_first_exit"] = gc.isenabled()
        observed["after_last_exit"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert observed == {"after_first_exit": False, "after_last_exit": True}


def test_a_callers_own_disable_survives():
    gc.disable()
    with gc_paused():
        with gc_paused():
            pass
        assert not gc.isenabled()
    assert not gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_forked_inside_a_pause_has_a_collector():
    with gc_paused():
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os.close(read)
            ok = gc.isenabled()
            # The child's own pauses still nest from zero.
            with gc_paused():
                ok = ok and not gc.isenabled()
            ok = ok and gc.isenabled()
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
        os.close(write)
        answer = os.read(read, 1)
        os.close(read)
        os.waitpid(pid, 0)
        assert not gc.isenabled()
    assert answer == b"1"


def test_a_cycle_made_inside_a_pause_is_collected_after_it():
    with gc_paused():
        a, b = _Node(), _Node()
        a.other, b.other = b, a
        probe = weakref.ref(a)
        del a, b
        assert probe() is not None  # reference counting cannot free it
    # Allocation alone (no explicit gc.collect) triggers the collector
    # once the pause is over.
    junk = []
    for _ in range(100_000):
        junk.append([])
        if probe() is None:
            break
    assert probe() is None
