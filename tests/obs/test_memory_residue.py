"""Memory-plane residue: after an erasure, no object the system keeps
holds the erased plaintext.

The device, the journal and the page cache each have their own residue
check; this one covers process memory.  The walk follows
``gc.get_referents`` from the ``RgpdOS`` instance but does not descend
into modules, classes or a function's globals: those lead to the whole
interpreter (this test's own literals included), not to state the
system keeps.
"""

import gc
import types

import pytest

from conftest import make_monitor_system

ERASED_VALUES = (b"Alice Martin", b"alice-secret-pwd")


def holders_of(root, needles):
    """``(holders, walked)``: every ``str``/``bytes`` reachable from
    ``root`` that contains a needle, and how many objects were
    visited."""
    text_needles = [needle.decode() for needle in needles]
    seen = {id(root)}
    stack = [root]
    holders = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, str):
            if any(needle in obj for needle in text_needles):
                holders.append(obj)
            continue
        if isinstance(obj, (bytes, bytearray)):
            if any(needle in obj for needle in needles):
                holders.append(bytes(obj))
            continue
        if isinstance(obj, (types.ModuleType, type)):
            continue
        referents = gc.get_referents(obj)
        if isinstance(obj, types.FunctionType):
            referents = [r for r in referents if r is not obj.__globals__]
        for referent in referents:
            if id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return holders, len(seen)


@pytest.mark.parametrize("shards", [1, 4])
def test_erased_values_unreachable_from_system(shared_authority, shards):
    system = make_monitor_system(shared_authority, shards=shards)
    # The walk reaches the device's page cache, which holds the live
    # rows — so an empty result after erasure is not a blind walk.
    before, _ = holders_of(system, ERASED_VALUES)
    assert before, "walk never reached the stored plaintext"
    system.rights.erase("alice")
    after, walked = holders_of(system, ERASED_VALUES)
    assert walked > 1000
    assert after == [], (
        f"erased plaintext still reachable in memory: {after[:4]!r}"
    )
