"""``estimate_size`` against the structural walk it replaced.

The metered byte counters must not move when the sizing code changes,
so the per-type dispatching ``estimate_size`` is checked against a
verbatim copy of the ``isinstance`` chain it stands for, and the RPC
agent's envelope formulas are checked against ``estimate_size`` of the
whole request, reply or pipelined frame.
"""

import enum
from dataclasses import dataclass
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.rpc import (
    RpcReply,
    RpcRequest,
    frame_size,
    reply_size,
    request_size,
)
from repro.sim.metrics import estimate_size, wire_size


def reference_size(payload, depth=4):
    """The reference walk: an ``isinstance`` chain, in this order."""
    if payload is None or isinstance(payload, bool):
        return 4
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return 2 + len(payload)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        if depth <= 0:
            return 8 + 8 * len(payload)
        return 8 + sum(reference_size(item, depth - 1) for item in payload)
    if isinstance(payload, dict):
        if depth <= 0:
            return 8 + 16 * len(payload)
        return 8 + sum(reference_size(key, depth - 1)
                       + reference_size(value, depth - 1)
                       for key, value in payload.items())
    fields = getattr(payload, "__dataclass_fields__", None)
    if fields is not None:
        if depth <= 0:
            return 8 + 8 * len(fields)
        return 8 + sum(reference_size(getattr(payload, name), depth - 1)
                       for name in fields)
    return wire_size(payload)


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 22


class Tag(str):
    pass


class Pair(tuple):
    pass


@dataclass(frozen=True)
class Leaf:
    name: str
    weight: float = 1.0


@dataclass(frozen=True)
class Node:
    label: object
    children: tuple = ()


@dataclass(frozen=True)
class Defaults:
    count: int = 3
    text: str = "abc"


class Opaque:
    def __repr__(self):
        return "Opaque()"


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.sampled_from(list(Colour)), st.text(max_size=12),
    st.text(max_size=12).map(Tag), st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
    st.decimals(allow_nan=False, allow_infinity=False, places=2),
    st.just(Opaque()),
)
hashables = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.text(max_size=8).map(Tag), st.sampled_from(list(Colour)),
    st.builds(Leaf, st.text(max_size=8), st.floats(allow_nan=False)),
)
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Pair),
        st.frozensets(hashables, max_size=4),
        st.sets(hashables, max_size=4),
        st.dictionaries(hashables, children, max_size=4),
        st.builds(Leaf, st.text(max_size=8), st.floats(allow_nan=False)),
        st.builds(Node, children, st.lists(children, max_size=3).map(tuple)),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(payloads, st.integers(min_value=-1, max_value=6))
def test_dispatching_walk_equals_the_structural_walk(payload, depth):
    assert estimate_size(payload, depth) == reference_size(payload, depth)


def test_default_depth_cuts_off_deep_nesting():
    deep = [[[[[["leaf"] * 3]]]]]
    assert estimate_size(deep) == reference_size(deep)
    # Four levels of 8 each, then the fifth list charged flat: 8 + 8 * 1.
    assert estimate_size(deep) == 8 * 4 + 8 + 8 * 1


def test_a_dataclass_class_is_walked_through_its_defaults():
    assert estimate_size(Defaults) == reference_size(Defaults)
    assert estimate_size(Defaults()) == reference_size(Defaults())
    assert estimate_size(Defaults) == 8 + 8 + (2 + 3)


def test_scalars_and_fallback():
    assert estimate_size(None) == 4
    assert estimate_size(True) == 4
    assert estimate_size(Colour.GREEN) == 8
    assert estimate_size(Tag("abcd")) == 6
    assert estimate_size(b"xyz") == 3
    assert estimate_size(Decimal("1.50")) == len(repr(Decimal("1.50")))


# -- the inline-leaf walk -------------------------------------------------------

# Exact-type leaves are charged inline inside container, dict and
# dataclass walks; subclasses (IntEnum, a str subclass, bool as an int
# subclass) must still be charged by their own rule.
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.sampled_from(list(Colour)),
    st.text(max_size=8).map(Tag), st.binary(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(leaves, max_size=8), st.integers(min_value=-1, max_value=5))
def test_leaves_inside_containers_are_charged_by_the_reference(items, depth):
    for payload in (items, tuple(items), Pair(items),
                    Node(items[0] if items else None, tuple(items)),
                    {i: item for i, item in enumerate(items)},
                    {Tag(str(i)): item for i, item in enumerate(items)}):
        assert estimate_size(payload, depth) == reference_size(payload, depth)


def test_subclass_leaves_do_not_take_the_exact_type_path():
    items = [Colour.GREEN, True, Tag("ab"), "ab", 7, None]
    assert estimate_size(items) == reference_size(items) == 8 + 8 + 4 + 4 + 4 + 8 + 4
    nested = ((Colour.RED, (Tag("x"), False)),)
    assert estimate_size(nested) == reference_size(nested)


# -- envelopes by formula -------------------------------------------------------

epochs = st.one_of(st.none(), st.integers(min_value=0, max_value=2**40),
                   st.booleans())
names = st.text(max_size=12)
requests = st.builds(
    RpcRequest, st.integers(min_value=1, max_value=2**40), names, names,
    st.lists(payloads, max_size=4).map(tuple), epochs)


@settings(max_examples=150, deadline=None)
@given(requests)
def test_request_formula_equals_the_walk(request):
    assert request_size(request) == estimate_size(request)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=2**40), payloads, epochs)
def test_ok_reply_formula_equals_the_walk(request_id, value, epoch):
    reply = RpcReply(request_id, True, value, ring_epoch=epoch)
    assert reply_size(reply) == estimate_size(reply)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=2**40), names, st.text(max_size=40),
       epochs)
def test_error_reply_formula_equals_the_walk(request_id, error_type,
                                             error_message, epoch):
    reply = RpcReply(request_id, False, error_type=error_type,
                     error_message=error_message, ring_epoch=epoch)
    assert reply_size(reply) == estimate_size(reply)


@settings(max_examples=60, deadline=None)
@given(st.lists(requests, min_size=2, max_size=4).map(tuple))
def test_frame_formula_equals_the_walk(frame):
    assert frame_size(frame) == estimate_size(frame)


@pytest.mark.parametrize("epoch", [None, 7, True])
def test_envelope_formulas_cover_every_epoch_shape(epoch):
    request = RpcRequest(3, "db", "prepare_many", (("A1", 2), [b"x"]), epoch)
    reply = RpcReply(3, False, None, "StaleRingEpoch", "behind", epoch)
    assert request_size(request) == estimate_size(request)
    assert reply_size(reply) == estimate_size(reply)
    assert frame_size((request, request)) == estimate_size((request, request))
