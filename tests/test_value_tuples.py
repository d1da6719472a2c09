"""The value contract of the model classes.

Every model value class is a named tuple: one allocation per value. The
first half of this file covers the classes the readers build once per token,
punctuation mark, seg, anchor, event interval, event, utterance, kept
element, qualifier or annotation; the second half covers every other value
class of the package. Each keeps the same contract: a value equals only a
value of its own class with equal fields, equal values hash equal, no field
can be assigned, ``repr`` names the class and every field, both constructors
fill in the defaults, and ``copy`` and ``pickle`` give an equal value back.
``id_generated`` takes no part in the equality or hash of an utterance or
event, nor does the last field of a timeline, document, tier document or
feature. An edit is ``_replace``, which keeps the class and runs the
constructor's checks again. ``Annotation`` and ``WordForm`` are built by
keyword only. The classes the TEI reader, the anchor resolver, the sequencer
and ``to_core`` build with ``tuple.__new__`` keep the generated constructor,
which checks nothing, and every annotation they build directly is one the
checking constructor accepts. The working classes
``Config``, ``ValidateOptions`` and the parser's context are plain classes
with ``__slots__``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import re
from decimal import Decimal

import pytest

from spokenkit.cli import Config
from spokenkit.core import (
    Annotation,
    CategoryRef,
    ComponentRefs,
    Document,
    EventInterval,
    Finding,
    Layer,
    Level,
    OverlapPair,
    OverlapReport,
    Qualifier,
    ScaleInterval,
    SourceRef,
    Timeline,
    WordForm,
)
from spokenkit.datacat import DataCategory, RegistryError
from spokenkit.featstruct import (
    Binary,
    Feature,
    FeatureStructure,
    Numeric,
    Str,
    Symbol,
    TagDecl,
    TagDefinition,
    TagsetLibrary,
    UnificationFailure,
)
from spokenkit.tei import (
    AnchorRef,
    AppInfo,
    ConventionRule,
    FeatureLib,
    Incident,
    InflectedForm,
    InlineStructure,
    Kinesic,
    LexicalEntry,
    Metadata,
    OpaqueElement,
    Pc,
    Person,
    Seg,
    Span,
    SpanGroup,
    TagLib,
    TimedEvent,
    Utterance,
    Vocal,
    W,
    parse_document,
    resolve_anchors,
)
from spokenkit.tei.model import EVENT_CLASSES
from spokenkit.tei.parser import _ParseContext
from spokenkit.tier import ResidueItem, Tier, TierDocument, TierSpeaker, to_core
from spokenkit.validate import ValidateOptions, ValidationReport
from tests.test_tei_read_path import _Gen
from tests.test_tier import random_tier_document
from tests.test_validate_walk import _TaggedGen

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


# The classes the readers, the resolver and the sequencer build with
# ``tuple.__new__``, past their constructors.
BUILT_DIRECTLY = [W, Pc, AnchorRef, Seg, Utterance, Qualifier, EventInterval, Vocal, Kinesic, Incident]


def _package_subclasses(cls: type) -> list[type]:
    """Every subclass of ``cls`` that the package defines, however deep."""
    found = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("spokenkit."):
            found += [sub, *_package_subclasses(sub)]
    return found


@pytest.mark.parametrize("cls", BUILT_DIRECTLY, ids=lambda cls: cls.__name__)
def test_a_class_the_reader_builds_directly_has_only_the_generated_constructor(cls):
    """A check added to one of these classes would never run on what the
    reader builds, so adding one must fail here first. An event class takes
    the constructor of ``TimedEvent``, and no event class may add its own."""
    base = cls
    if issubclass(cls, TimedEvent):
        base = TimedEvent
        assert cls.__bases__ == (TimedEvent,)
        assert set(_package_subclasses(TimedEvent)) == set(EVENT_CLASSES.values())
        for sub in _package_subclasses(TimedEvent):
            assert "__new__" not in vars(sub) and "__init__" not in vars(sub), sub
    assert base.__bases__ == (tuple,)
    assert "__new__" in vars(base)
    new = cls.__new__
    assert new is base.__new__
    assert new.__globals__["__name__"] == f"namedtuple_{base.__name__}"
    assert new.__code__.co_names == ("_tuple_new",)
    assert cls.__init__ is object.__init__
    case = next(case for case in CASES if case[0] is cls)
    value = cls(*case[1])
    assert tuple.__new__(cls, tuple(value)) == value


def _annotations_built_directly():
    """The annotations of 200 documents of each TEI generator, read and
    resolved, and of ``to_core`` over 200 random tier documents."""
    for gen in (_Gen, _TaggedGen):
        for seed in range(200):
            doc, _ = parse_document(gen(random.Random(seed)).document())
            yield from doc.annotations
            yield from resolve_anchors(doc)[0].annotations
    rng = random.Random(5)
    for _ in range(200):
        yield from to_core(random_tier_document(rng)).annotations


def test_an_annotation_built_directly_is_one_the_constructor_accepts():
    count = 0
    for ann in _annotations_built_directly():
        assert type(ann) is Annotation
        assert ann.qualifiers and type(ann.qualifiers) is tuple
        assert ann == Annotation(**ann._asdict())
        count += 1
    assert count > 1000


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


# The other value classes: (class, positional arguments or None when the class
# is built by keyword only, the same by keyword, repr, whether a value hashes).
# A value that holds a dict, as a feature structure does, has no hash.
FINDING = Finding("DUP_ID", "error", "u1", "dup")
FINDING_REPR = "Finding(code='DUP_ID', severity='error', location='u1', message='dup')"
WORD_FORM = {**ANNOTATION, "range": ComponentRefs(("t1",))}
NOUN = Symbol("N")
STRUCTURE = FeatureStructure({"pos": NOUN})
STRUCTURE_REPR = "FeatureStructure(features={'pos': Symbol(name='N')}, type=None)"
SPAN_REPR = "Span(from_='w1', to='w2', ana=None, id=None, text=None)"
FORM_REPR = "InflectedForm(id='f1', orth='pomme', type=None, grammar=())"
SOURCE_REPR = "SourceRef(id='s1', kind='primary', uri=None, parents=())"
MODEL_CASES = [
    (Finding, tuple(FINDING), FINDING._asdict(), FINDING_REPR, True),
    (SourceRef, ("s1",), {"id": "s1"}, SOURCE_REPR, True),
    (
        Timeline,
        ("tl", "ms", ("a", "b"), (0, None)),
        {"id": "tl", "unit": "ms", "ids": ("a", "b"), "offsets": (0, None)},
        "Timeline(id='tl', unit='ms', ids=('a', 'b'), offsets=(0, None), synthetic=frozenset(),"
        " anchor_declared=frozenset(), implicit=False, id_declared=False)",
        True,
    ),
    (
        ScaleInterval,
        (0, Decimal("1.5")),
        {"start": 0, "end": Decimal("1.5")},
        "ScaleInterval(start=0, end=Decimal('1.5'), unit='s')",
        True,
    ),
    (
        ComponentRefs,
        (("t1", "t2"),),
        {"targets": ("t1", "t2")},
        "ComponentRefs(targets=('t1', 't2'))",
        True,
    ),
    (CategoryRef, ("pos",), {"pid": "pos"}, "CategoryRef(pid='pos')", True),
    (
        WordForm,
        None,
        WORD_FORM,
        "WordForm(id='u1', source='s', range=ComponentRefs(targets=('t1',)),"
        " qualifiers=(Qualifier(feature='utterance', value='x'),), layer='l', who=None,"
        " lex_ref=None, orth=None)",
        True,
    ),
    (
        Layer,
        ("l1", "words", "lv"),
        {"id": "l1", "name": "words", "level": "lv"},
        "Layer(id='l1', name='words', level='lv', speaker=None, category=None)",
        True,
    ),
    (
        Level,
        ("lv",),
        {"id": "lv"},
        "Level(id='lv', sources=frozenset(), ranging_mechanism='event',"
        " category_selection=frozenset())",
        True,
    ),
    (
        Document,
        (None, (SourceRef("s1"),)),
        {"sources": (SourceRef("s1"),)},
        f"Document(metadata=None, sources=({SOURCE_REPR},), timelines=(), layers=(), levels=(),"
        " annotations=(), body=(), back=(), declared_ids=())",
        True,
    ),
    (
        Span,
        ("w1", "w2"),
        {"from_": "w1", "to": "w2"},
        SPAN_REPR,
        True,
    ),
    (
        SpanGroup,
        ("wf", (Span("w1", "w2"),)),
        {"type": "wf", "spans": (Span("w1", "w2"),)},
        f"SpanGroup(type='wf', spans=({SPAN_REPR},))",
        True,
    ),
    (InflectedForm, ("f1", "pomme"), {"id": "f1", "orth": "pomme"}, FORM_REPR, True),
    (
        LexicalEntry,
        ((InflectedForm("f1", "pomme"),),),
        {"forms": (InflectedForm("f1", "pomme"),)},
        f"LexicalEntry(forms=({FORM_REPR},))",
        True,
    ),
    (
        FeatureLib,
        ((Feature("pos", NOUN, "n"),), "pos"),
        {"features": (Feature("pos", NOUN, "n"),), "label": "pos"},
        "FeatureLib(features=(Feature(name='pos', value=Symbol(name='N'), id='n'),), label='pos')",
        True,
    ),
    (
        TagLib,
        ((TagDecl("t1", ("n",)),),),
        {"tags": (TagDecl("t1", ("n",)),)},
        "TagLib(tags=(TagDecl(id='t1', feats=('n',)),), label=None)",
        True,
    ),
    (
        InlineStructure,
        ("fs1", STRUCTURE),
        {"id": "fs1", "fs": STRUCTURE},
        f"InlineStructure(id='fs1', fs={STRUCTURE_REPR})",
        False,
    ),
    (
        AppInfo,
        ("app", "1"),
        {"ident": "app", "version": "1"},
        "AppInfo(ident='app', version='1', label=None, targets=())",
        True,
    ),
    (Person, ("A",), {"id": "A"}, "Person(id='A', name=None, sex=None, age=None)", True),
    (
        Metadata,
        (OpaqueElement("teiHeader"),),
        {"header": OpaqueElement("teiHeader")},
        "Metadata(header=OpaqueElement(tag='teiHeader', attrib=(), text=None, children=(),"
        " tails=()))",
        True,
    ),
    (Binary, (True,), {"value": True}, "Binary(value=True)", True),
    (Symbol, ("N",), {"name": "N"}, "Symbol(name='N')", True),
    (Numeric, (1,), {"value": 1}, "Numeric(value=1)", True),
    (Str, ("x",), {"text": "x"}, "Str(text='x')", True),
    (
        FeatureStructure,
        ({"pos": NOUN}, "word"),
        {"features": {"pos": NOUN}, "type": "word"},
        "FeatureStructure(features={'pos': Symbol(name='N')}, type='word')",
        False,
    ),
    (
        Feature,
        ("pos", NOUN, "n"),
        {"name": "pos", "value": NOUN, "id": "n"},
        "Feature(name='pos', value=Symbol(name='N'), id='n')",
        True,
    ),
    (
        UnificationFailure,
        (("pos",), NOUN, Symbol("V")),
        {"path": ("pos",), "left": NOUN, "right": Symbol("V")},
        "UnificationFailure(path=('pos',), left=Symbol(name='N'), right=Symbol(name='V'))",
        True,
    ),
    (
        TagDecl,
        ("t1", ("n",)),
        {"id": "t1", "feats": ("n",)},
        "TagDecl(id='t1', feats=('n',))",
        True,
    ),
    (
        TagDefinition,
        ("t1", ("n",), STRUCTURE),
        {"id": "t1", "feats": ("n",), "expanded": STRUCTURE},
        f"TagDefinition(id='t1', feats=('n',), expanded={STRUCTURE_REPR})",
        False,
    ),
    (
        TagsetLibrary,
        ({}, {}),
        {"feature_lib": {}, "tag_lib": {}},
        "TagsetLibrary(feature_lib={}, tag_lib={})",
        False,
    ),
    (
        TierSpeaker,
        ("s1", "Speaker"),
        {"id": "s1", "name": "Speaker"},
        "TierSpeaker(id='s1', name='Speaker')",
        True,
    ),
    (
        Tier,
        ("t1", "s1", "verbal", (("p0", "p1", "hi"),)),
        {"id": "t1", "speaker": "s1", "category": "verbal", "events": (("p0", "p1", "hi"),)},
        "Tier(id='t1', speaker='s1', category='verbal', events=(('p0', 'p1', 'hi'),))",
        True,
    ),
    (
        TierDocument,
        ((), ("p0",), (None,)),
        {"point_ids": ("p0",), "offsets": (None,)},
        "TierDocument(speakers=(), point_ids=('p0',), offsets=(None,), tiers=(), records=())",
        True,
    ),
    (
        ResidueItem,
        ("a1", "no interval"),
        {"annotation": "a1", "reason": "no interval"},
        "ResidueItem(annotation='a1', reason='no interval')",
        True,
    ),
    (
        DataCategory,
        ("pos", "complex", "partOfSpeech", None, ("N", "V"), {"fr": ("N",)}),
        {
            "pid": "pos",
            "kind": "complex",
            "name": "partOfSpeech",
            "conceptual_domain": ("N", "V"),
            "language_restrictions": {"fr": ("N",)},
        },
        "DataCategory(pid='pos', kind='complex', name='partOfSpeech', broader=None,"
        " conceptual_domain=('N', 'V'), language_restrictions={'fr': ('N',)})",
        False,
    ),
    (
        OverlapPair,
        ("a", "b", EventInterval("p0", "p1", "tl")),
        {"a": "a", "b": "b", "shared": EventInterval("p0", "p1", "tl")},
        "OverlapPair(a='a', b='b', shared=EventInterval(start='p0', end='p1', timeline='tl'))",
        True,
    ),
    (
        OverlapReport,
        ((("a", "b", "p0", "p1", "tl"),), 0),
        {"rows": (("a", "b", "p0", "p1", "tl"),), "skipped": 0},
        "OverlapReport(rows=(('a', 'b', 'p0', 'p1', 'tl'),), skipped=0)",
        True,
    ),
    (
        ValidationReport,
        ((FINDING,),),
        {"issues": (FINDING,)},
        f"ValidationReport(issues=({FINDING_REPR},))",
        True,
    ),
    (
        ConventionRule,
        (re.compile("x"), "vocal"),
        {"pattern": re.compile("x"), "element": "vocal"},
        "ConventionRule(pattern=re.compile('x'), element='vocal', desc_group=1)",
        True,
    ),
]
MODEL_IDS = [case[0].__name__ for case in MODEL_CASES]


def _build(cls, args, kwargs):
    return cls(**kwargs) if args is None else cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text, hashable", MODEL_CASES, ids=MODEL_IDS)
def test_every_model_value_is_a_named_tuple_built_either_way(cls, args, kwargs, text, hashable):
    value = _build(cls, args, kwargs)
    assert isinstance(value, tuple) and type(value) is cls
    assert not dataclasses.is_dataclass(cls)
    assert repr(value) == text
    assert value == cls(**kwargs)
    if args is None:
        with pytest.raises(TypeError):
            cls(*kwargs.values())
    else:
        assert tuple(value)[: len(args)] == args


@pytest.mark.parametrize("cls, args, kwargs, text, hashable", MODEL_CASES, ids=MODEL_IDS)
def test_every_model_value_equals_only_a_value_of_its_own_class(
    cls, args, kwargs, text, hashable
):
    value = _build(cls, args, kwargs)
    plain = tuple(value)
    assert value == _build(cls, args, kwargs) and not value != _build(cls, args, kwargs)
    assert value != plain and plain != value
    assert not value == plain and not plain == value
    if hashable:
        assert hash(value) == hash(_build(cls, args, kwargs))
        assert len({value, _build(cls, args, kwargs)}) == 1
        assert plain not in {value}
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_values_of_different_classes_with_the_same_fields_differ():
    assert Binary(True) != Numeric(1) and Numeric(1) != Binary(True)
    assert not Binary(True) == Numeric(1)
    assert Str("N") != Symbol("N") and CategoryRef("N") != Symbol("N")
    assert Finding("C", "error", "x", "m") != ("C", "error", "x", "m")
    assert ("C", "error", "x", "m") != Finding("C", "error", "x", "m")
    assert TierSpeaker("s1", "A") != ResidueItem("s1", "A")
    assert len({Binary(True), Numeric(1), Binary(1)}) == 2


@pytest.mark.parametrize("cls, args, kwargs, text, hashable", MODEL_CASES, ids=MODEL_IDS)
def test_no_field_of_a_model_value_can_be_assigned(cls, args, kwargs, text, hashable):
    value = _build(cls, args, kwargs)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.other = "y"
    assert value == _build(cls, args, kwargs)


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("cls, args, kwargs, text, hashable", MODEL_CASES, ids=MODEL_IDS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled])
def test_copy_and_pickle_give_an_equal_model_value(cls, args, kwargs, text, hashable, clone):
    value = _build(cls, args, kwargs)
    cloned = clone(value)
    assert type(cloned) is cls and cloned == value and repr(cloned) == text


@pytest.mark.parametrize("cls, args, kwargs, text, hashable", MODEL_CASES, ids=MODEL_IDS)
def test_replace_keeps_the_class_of_a_model_value(cls, args, kwargs, text, hashable):
    value = _build(cls, args, kwargs)
    same = value._replace(**{name: getattr(value, name) for name in cls._fields})
    assert type(same) is cls and same == value


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, _pickled])
def test_a_copied_timeline_keeps_its_point_index(clone):
    tl = Timeline("tl", "ms", ("a", "b", "c"), (0, None, 5), id_declared=True)
    cloned = clone(tl)
    assert [cloned.index_of(pid) for pid in ("a", "b", "c")] == [0, 1, 2]
    assert "b" in cloned and "d" not in cloned
    assert cloned.id_declared and repr(cloned) == repr(tl)


def test_replace_rebuilds_the_point_index():
    tl = Timeline.of("tl", ["a", "b"])
    changed = tl._replace(ids=("c", "d"), offsets=(None, None))
    assert type(changed) is Timeline
    assert changed.index_of("d") == 1 and "c" in changed and "a" not in changed
    assert tl.index_of("a") == 0
    assert tl.append_flagged(["z"], synthetic=True).index_of("z") == 2


def test_a_timeline_refuses_any_attribute():
    tl = Timeline.of("tl", ["a"])
    with pytest.raises(AttributeError):
        tl._by_id = {}
    assert tl.index_of("a") == 0


TIMELINE = Timeline("tl", "ms", ("a", "b"), (0, None))
SOURCE = SourceRef("s1")
LAYER = Layer("l1", "words", "lv")
LEVEL = Level("lv")
WORD = WordForm(**WORD_FORM)
TIER_DOCUMENT = TierDocument(point_ids=("p0",), offsets=(None,))
CATEGORY = DataCategory("pos", "complex", "partOfSpeech", None, ("N", "V"))

# (value, an edit its constructor refuses, the error class, the message)
REFUSED_EDITS = [
    (TIMELINE, {"ids": ("a", "a")}, ValueError, "duplicate point id 'a'"),
    (TIMELINE, {"offsets": (float("nan"), None)}, ValueError, "offset must be a number, not NaN"),
    (TIMELINE, {"offsets": (Decimal("NaN"), None)}, ValueError, "not NaN"),
    (TIMELINE, {"offsets": (-1, None)}, ValueError, "offset must be non-negative"),
    (TIMELINE, {"offsets": (float("inf"), None)}, ValueError, "offset must be finite"),
    (TIMELINE, {"ids": ("a",)}, ValueError, "1 point ids but 2 offsets"),
    (TIMELINE, {"unit": "h"}, ValueError, "unit must be one of"),
    (TIMELINE, {"synthetic": frozenset({"z"})}, ValueError, "synthetic point 'z'"),
    (TIMELINE, {"anchor_declared": frozenset({"z"})}, ValueError, "anchor-declared point 'z'"),
    (SOURCE, {"kind": "other"}, ValueError, "source kind must be"),
    (SOURCE, {"kind": "secondary"}, ValueError, "requires at least one parent source"),
    (SOURCE, {"parents": ("s0",)}, ValueError, "cannot have parent sources"),
    (ScaleInterval(0, 1), {"start": 2}, ValueError, "scale interval start 2 exceeds end 1"),
    (ComponentRefs(("t1",)), {"targets": ()}, ValueError, "at least one target"),
    (ComponentRefs(("t1",)), {"targets": ("t1", "t1")}, ValueError, "must be distinct"),
    (WORD, {"range": EventInterval("a", "b", "tl")}, ValueError, "requires a component range"),
    (WORD, {"qualifiers": ()}, ValueError, "requires at least one qualifier"),
    (Annotation(**ANNOTATION), {"qualifiers": ()}, ValueError, "at least one qualifier"),
    (LAYER, {"name": ""}, ValueError, "layer 'l1' requires a non-empty name"),
    (LEVEL, {"ranging_mechanism": "x"}, ValueError, "ranging mechanism must be one of"),
    (Symbol("N"), {"name": ""}, ValueError, "symbol requires a non-empty name"),
    (STRUCTURE, {"features": {"": NOUN}}, ValueError, "feature names must be non-empty"),
    (Feature("pos", NOUN), {"name": ""}, ValueError, "feature requires a non-empty name"),
    (TIER_DOCUMENT, {"offsets": ()}, ValueError, "1 point ids but 0 offsets"),
    (TIER_DOCUMENT, {"point_ids": ("p0", "p1")}, ValueError, "2 point ids but 1 offsets"),
    (CATEGORY, {"kind": "x"}, RegistryError, "kind must be 'complex' or 'simple'"),
    (CATEGORY, {"kind": "simple"}, RegistryError, "cannot declare a conceptual domain"),
    (
        CATEGORY,
        {"language_restrictions": {"fr": ("X",)}},
        RegistryError,
        "'fr' restriction is not a subset",
    ),
]
REFUSED_IDS = [f"{type(case[0]).__name__}-{'-'.join(case[1])}" for case in REFUSED_EDITS]


@pytest.mark.parametrize("value, changes, error, message", REFUSED_EDITS, ids=REFUSED_IDS)
def test_replace_runs_the_constructor_checks(value, changes, error, message):
    with pytest.raises(error, match=re.escape(message)):
        value._replace(**changes)
    with pytest.raises(error, match=re.escape(message)):
        type(value)(**{**value._asdict(), **changes})


# (value, the same value with another last field, the same with another first field)
LAST_FIELD_OUT_OF_EQUALITY = [
    (TIMELINE, {"id_declared": True}, {"id": "other"}),
    (Document(sources=(SOURCE,)), {"declared_ids": (("s1", "u"),)}, {"sources": ()}),
    (TIER_DOCUMENT, {"records": (("point",),)}, {"speakers": (TierSpeaker("s", "S"),)}),
    (Feature("pos", NOUN, "n"), {"id": "m"}, {"name": "cat"}),
]


@pytest.mark.parametrize(
    "value, last, first",
    LAST_FIELD_OUT_OF_EQUALITY,
    ids=[type(case[0]).__name__ for case in LAST_FIELD_OUT_OF_EQUALITY],
)
def test_the_last_field_takes_no_part_in_equality_or_hash(value, last, first):
    other = value._replace(**last)
    assert other != tuple(other) and tuple(other)[:-1] != other
    assert value == other and not value != other
    assert hash(value) == hash(other) and len({value, other}) == 1
    assert value != value._replace(**first)


def test_a_feature_structure_defaults_to_a_new_empty_dict_and_has_no_hash():
    empty = FeatureStructure()
    assert empty == FeatureStructure({}) and empty.features == {}
    assert empty.features is not FeatureStructure().features
    assert len(empty) == 0 and not empty
    with pytest.raises(TypeError):
        hash(empty)
    with pytest.raises(TypeError):
        hash(Feature("pos", empty))


def test_replace_on_a_feature_structure_does_not_count_its_features():
    fs = FeatureStructure({"a": Binary(True), "b": NOUN, "c": Numeric(1)})
    assert len(fs) == 3
    typed = fs._replace(type="word")
    assert type(typed) is FeatureStructure
    assert typed.type == "word" and typed.features == fs.features and len(typed) == 3


def test_a_data_category_defaults_to_a_new_empty_restriction_dict():
    first, second = (DataCategory("n", "simple", "noun") for _ in range(2))
    assert first == second and first.language_restrictions == {}
    assert first.language_restrictions is not second.language_restrictions


# (class, its attributes and their defaults, whether it takes them as keywords)
WORKING_CLASSES = [
    (Config, {"severity_overrides": {}, "category_map": {}}, True),
    (
        ValidateOptions,
        {"library": None, "registry": None, "language": None, "severity_overrides": {}},
        True,
    ),
    (
        _ParseContext,
        {
            "warnings": [],
            "anchor_order": [],
            "counters": {},
            "declared_ids": [],
            "taken": None,
            "annotations": [],
        },
        False,
    ),
]


@pytest.mark.parametrize(
    "cls, defaults, keywords",
    WORKING_CLASSES,
    ids=[case[0].__name__ for case in WORKING_CLASSES],
)
def test_the_working_classes_are_slotted_with_fresh_defaults(cls, defaults, keywords):
    one, two = cls(), cls()
    assert not dataclasses.is_dataclass(cls)
    assert set(cls.__slots__) == set(defaults)
    assert not hasattr(one, "__dict__")
    for name, default in defaults.items():
        assert getattr(one, name) == default
        if default is not None:
            assert getattr(one, name) is not getattr(two, name)
    with pytest.raises(AttributeError):
        one.other = "y"
    given = {name: object() for name in defaults}
    if not keywords:
        with pytest.raises(TypeError):
            cls(**given)
        return
    built = cls(**given)
    assert all(getattr(built, name) is value for name, value in given.items())


def test_validate_options_take_the_keywords_the_cli_passes():
    overrides = {"DUP_ID": "warning"}
    options = ValidateOptions(
        library=None, registry=None, language="fr", severity_overrides=overrides
    )
    assert options.language == "fr" and options.severity_overrides is overrides
    config = Config()
    config.category_map["a"] = "b"
    assert config.category_map == {"a": "b"} and Config().category_map == {}
