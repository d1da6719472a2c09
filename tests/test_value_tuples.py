"""The value contract of the classes the readers build once per token,
punctuation mark, seg, anchor, event interval, event, utterance, kept
element, qualifier or annotation.

``W``, ``Pc``, ``Seg``, ``AnchorRef``, ``EventInterval``, ``Qualifier``,
``Utterance``, ``OpaqueElement``, ``Annotation`` and the ``TimedEvent``
classes ``Vocal``, ``Kinesic`` and ``Incident`` are named tuples: one
allocation per value. They keep the contract of the frozen dataclasses they
replaced: a value equals only a value of its own class with equal fields,
equal values hash equal, no field can be assigned, ``repr`` names the class
and every field, and both constructors fill in the defaults. ``id_generated``
takes no part in the equality or hash of an utterance or event. An edit is
``_replace``, which keeps the class. ``Annotation`` is built by keyword only
and refuses an empty ``qualifiers`` however it is built.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from spokenkit.core import Annotation, ComponentRefs, EventInterval, Qualifier, WordForm
from spokenkit.tei import (
    AnchorRef,
    Incident,
    Kinesic,
    OpaqueElement,
    Pc,
    Seg,
    Utterance,
    Vocal,
    W,
)

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
    (
        Qualifier,
        ("pos", "N"),
        {"feature": "pos", "value": "N"},
        "Qualifier(feature='pos', value='N')",
    ),
    (
        Utterance,
        ("u1", "A", ("a",)),
        {"id": "u1", "who": "A", "content": ("a",)},
        "Utterance(id='u1', who='A', content=('a',), id_generated=True)",
    ),
    *(
        (
            cls,
            ("x", None, "A", "T1", "T2", "e1"),
            {"desc": "x", "who": "A", "start": "T1", "end": "T2", "id": "e1"},
            f"{cls.__name__}(desc='x', type=None, who='A', start='T1', end='T2', id='e1',"
            " id_generated=True)",
        )
        for cls in (Vocal, Kinesic, Incident)
    ),
    (
        OpaqueElement,
        ("hi", (("n", "1"),), "x"),
        {"tag": "hi", "attrib": (("n", "1"),), "text": "x"},
        "OpaqueElement(tag='hi', attrib=(('n', '1'),), text='x', children=(), tails=())",
    ),
]
IDS = [case[0].__name__ for case in CASES]

# The classes whose last field, ``id_generated``, takes no part in ``==`` or ``hash``.
ID_GENERATED = [case for case in CASES if case[0]._fields[-1] == "id_generated"]
ID_GENERATED_IDS = [case[0].__name__ for case in ID_GENERATED]

ANNOTATION = {
    "id": "u1",
    "source": "s",
    "range": None,
    "qualifiers": (Qualifier("utterance", "x"),),
    "layer": "l",
}
ANNOTATION_REPR = (
    "Annotation(id='u1', source='s', range=None,"
    " qualifiers=(Qualifier(feature='utterance', value='x'),), layer='l', who=None)"
)


class _SubW(W):
    __slots__ = ()


class _SubAnnotation(Annotation):
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


@pytest.mark.parametrize("cls, args, kwargs, text", ID_GENERATED, ids=ID_GENERATED_IDS)
def test_id_generated_takes_no_part_in_equality_or_hash(cls, args, kwargs, text):
    generated = cls(*args)
    declared = generated._replace(id_generated=False)
    assert generated.id_generated and not declared.id_generated
    assert generated == declared and not generated != declared
    assert hash(generated) == hash(declared)
    assert len({generated, declared}) == 1
    assert generated != generated._replace(id="other")
    assert generated != tuple(generated) and generated != tuple(generated)[:-1]


def test_an_event_equals_no_event_of_a_sibling_class():
    vocal, kinesic, incident = (cls(desc="x", id="e1") for cls in (Vocal, Kinesic, Incident))
    assert vocal != kinesic and kinesic != incident and incident != vocal
    assert not vocal == kinesic and not kinesic == vocal
    assert tuple(vocal) == tuple(kinesic)
    assert len({vocal, kinesic, incident}) == 3
    assert [cls.tag for cls in (Vocal, Kinesic, Incident)] == ["vocal", "kinesic", "incident"]


def test_an_annotation_is_built_by_keyword_only():
    ann = Annotation(**ANNOTATION)
    assert repr(ann) == ANNOTATION_REPR
    assert ann.who is None and ann == Annotation(**ANNOTATION, who=None)
    assert not dataclasses.is_dataclass(Annotation)
    assert not hasattr(ann, "__dict__")
    with pytest.raises(TypeError):
        Annotation(*ANNOTATION.values())
    assert ann != tuple(ann) and tuple(ann) != ann
    assert hash(ann) == hash(Annotation(**ANNOTATION))
    with pytest.raises(AttributeError):
        ann.range = EventInterval("a", "b", "tl")
    assert copy.copy(ann) == ann and pickle.loads(pickle.dumps(ann)) == ann


def test_an_annotation_without_a_qualifier_is_refused_however_it_is_built():
    message = "annotation 'u1' requires at least one qualifier"
    with pytest.raises(ValueError, match=message):
        Annotation(**{**ANNOTATION, "qualifiers": ()})
    with pytest.raises(ValueError, match=message):
        Annotation(**ANNOTATION)._replace(qualifiers=())
    with pytest.raises(ValueError, match=message):
        _SubAnnotation(**ANNOTATION)._replace(qualifiers=())


@pytest.mark.parametrize("cls", [Annotation, _SubAnnotation])
def test_replace_and_with_range_keep_the_class_of_an_annotation(cls):
    ann = cls(**ANNOTATION)
    interval = EventInterval("a", "b", "tl")
    moved = ann.with_range(interval)
    assert type(moved) is cls and type(ann._replace(layer="m")) is cls
    assert moved == ann._replace(range=interval) == cls(**{**ANNOTATION, "range": interval})
    assert ann.range is None
    assert Annotation(**ANNOTATION) != _SubAnnotation(**ANNOTATION)


def test_a_word_form_refuses_a_range_that_is_not_a_component_range():
    fields = {**ANNOTATION, "range": ComponentRefs(("t1",))}
    word = WordForm(**fields, orth="pomme")
    assert word.tokens == ("t1",)
    message = "word form 'u1' requires a component range over its tokens"
    with pytest.raises(ValueError, match=message):
        WordForm(**{**fields, "range": EventInterval("a", "b", "tl")})
    with pytest.raises(ValueError, match=message):
        word.with_range(EventInterval("a", "b", "tl"))
    with pytest.raises(ValueError, match="requires at least one qualifier"):
        WordForm(**{**fields, "qualifiers": ()})
    moved = word.with_range(ComponentRefs(("t2",)))
    assert type(moved) is WordForm and moved.orth == "pomme" and moved.tokens == ("t2",)
