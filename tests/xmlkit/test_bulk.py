"""The collector pause every tree builder runs in (``model.bulk``).

Trees are acyclic, so a cycle collection while one is built frees
nothing; it only walks every live node.  ``bulk`` switches the
collector off for the duration and must put it back exactly as the
outermost scope found it, whatever the nesting, the threads or the
exceptions.
"""

import gc
import sys
import threading

import pytest

from repro.xmlkit import parse
from repro.xmlkit.model import bulk


@pytest.fixture
def collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def test_restores_an_enabled_collector(collector_enabled):
    with bulk():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_leaves_a_disabled_collector_disabled(collector_enabled):
    gc.disable()
    try:
        with bulk():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_scopes_restore_only_at_the_outermost_exit(collector_enabled):
    with bulk():
        with bulk():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_restores_on_an_exception(collector_enabled):
    with pytest.raises(RuntimeError):
        with bulk():
            with bulk():
                raise RuntimeError("boom")
    assert gc.isenabled()


def test_overlapping_scopes_in_two_threads(collector_enabled):
    """A enters, B enters, A leaves, B leaves: the collector stays off
    until both have left, then comes back on."""
    a_inside, b_inside, a_left = (threading.Event() for _ in range(3))
    seen = []

    def first():
        with bulk():
            a_inside.set()
            b_inside.wait(10)
            seen.append(("a before leaving", gc.isenabled()))
        a_left.set()

    def second():
        a_inside.wait(10)
        with bulk():
            b_inside.set()
            a_left.wait(10)
            seen.append(("b after a left", gc.isenabled()))

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert seen ==[("a before leaving", False), ("b after a left", False)]
    assert gc.isenabled()


def test_many_threads_entering_and_leaving_lose_no_update(collector_enabled):
    """More threads than cores, switching as often as the interpreter
    allows: a lost update of the depth count would leave the collector
    off at the end, or let it run inside some thread's scope."""
    enabled_inside = []

    def churn():
        for _ in range(300):
            with bulk():
                with bulk():
                    if gc.isenabled():
                        enabled_inside.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert enabled_inside == []
    assert gc.isenabled()


def items_document(count: int) -> str:
    """``count`` items of three nodes each (element, element, text)."""
    items = "".join(
        f'<item id="i{index}"><name>item {index}</name></item>'
        for index in range(count)
    )
    return f"<catalog>{items}</catalog>"


def test_a_large_parse_beside_live_trees_runs_no_full_collection(
    collector_enabled,
):
    """60k nodes parsed while three such trees are alive: without the
    pause this runs about 200/18/1 collections of generations 0/1/2.

    Which generation a collection takes depends on the counts that
    everything earlier in the process left behind: once enough young
    collections have run since the last full one, the next collection
    of any kind is a full one.  A full collection first starts the
    counts from zero, so the collections counted below are the ones
    this parse causes, whatever ran before it in the same process."""
    gc.collect()
    text = items_document(20_000)
    alive = [parse(text) for _ in range(3)]
    started = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            started[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        document = parse(text)
    finally:
        gc.callbacks.remove(count)
    assert document.root.children[-1].get("id") == "i19999"
    assert len(alive) == 3
    assert started[2] == 0, f"collections per generation: {started}"
    assert gc.isenabled()
