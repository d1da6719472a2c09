"""The value contract of the classes the readers build once per token,
punctuation mark, seg, anchor or event interval.

``W``, ``Pc``, ``Seg``, ``AnchorRef`` and ``EventInterval`` are named tuples:
one allocation per value. They keep the contract of the frozen dataclasses
they replaced: a value equals only a value of its own class with equal
fields, equal values hash equal, no field can be assigned, ``repr`` names
the class and every field, and both constructors fill in the defaults. An
edit is ``_replace``, which keeps the class.
"""

from __future__ import annotations

import dataclasses

import pytest

from spokenkit.core import EventInterval
from spokenkit.tei import AnchorRef, Pc, Seg, W

# (class, positional arguments, the same by keyword, repr)
CASES = [
    (
        W,
        ("x", "w1", "t"),
        {"text": "x", "id": "w1", "ana": "t"},
        "W(text='x', id='w1', ana='t', extras=())",
    ),
    (
        Pc,
        (".", "p1", "t"),
        {"text": ".", "id": "p1", "ana": "t"},
        "Pc(text='.', id='p1', ana='t', extras=())",
    ),
    (
        Seg,
        ("t", None, ("a",), "s1"),
        {"type": "t", "content": ("a",), "id": "s1"},
        "Seg(type='t', subtype=None, content=('a',), id='s1')",
    ),
    (AnchorRef, ("T1",), {"synch": "T1"}, "AnchorRef(synch='T1', declares=None)"),
    (
        EventInterval,
        ("a", "b", "tl"),
        {"start": "a", "end": "b", "timeline": "tl"},
        "EventInterval(start='a', end='b', timeline='tl')",
    ),
]
IDS = [case[0].__name__ for case in CASES]


class _SubW(W):
    __slots__ = ()


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree_with_defaults(cls, args, kwargs, text):
    value = cls(*args)
    assert value == cls(**kwargs)
    defaults = tuple(cls._field_defaults[name] for name in cls._fields[len(args) :])
    assert tuple(value) == args + defaults
    assert repr(value) == text
    assert not dataclasses.is_dataclass(cls)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_a_value_equals_only_a_value_of_its_own_class(cls, args, kwargs, text):
    value = cls(*args)
    plain = tuple(value)
    assert value == cls(*args) and not value != cls(*args)
    assert value != plain and plain != value
    assert not value == plain and not plain == value
    assert hash(value) == hash(cls(**kwargs))
    assert len({value, cls(*args)}) == 1
    assert value not in {plain} and plain not in {value}


def test_a_value_does_not_equal_a_value_of_a_subclass():
    assert W("x") != _SubW("x") and _SubW("x") != W("x")
    assert not W("x") == _SubW("x") and not _SubW("x") == W("x")
    assert _SubW("x") == _SubW("x")
    assert type(_SubW("x")._replace(id="w")) is _SubW


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_no_field_can_be_assigned(cls, args, kwargs, text):
    value = cls(*args)
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], "y")
    with pytest.raises(AttributeError):
        value.other = "y"
    assert value == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_replace_keeps_the_class(cls, args, kwargs, text):
    value = cls(*args)
    name = cls._fields[-1]
    edited = value._replace(**{name: "z"})
    assert type(edited) is cls
    assert getattr(edited, name) == "z"
    assert edited._replace(**{name: getattr(value, name)}) == value


def test_an_anchor_names_its_point():
    assert AnchorRef("T1").point == "T1"
    assert AnchorRef("T1", "T2").point == "T2"
    assert AnchorRef().point is None
