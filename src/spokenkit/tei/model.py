"""Typed content model for the spoken-transcription markup subset.

Everything the parser understands becomes one of these immutable classes;
anything else is preserved as an :class:`OpaqueElement` so documents
round-trip. The header types only what some code besides the writer reads:
the title, publication and source texts, the applications and the
participants. Every other header element, a recording, a participant's
birth or languages, a setting, a language usage or a revision, is kept
verbatim where it stands.

The values the reader builds once per token, seg or anchor (:class:`W`,
:class:`Pc`, :class:`Seg`, :class:`AnchorRef`) are named tuples, one
allocation each, with the equality of a frozen dataclass; the rest are
frozen dataclasses.
Text inside utterances is kept verbatim, whitespace included, as plain ``str``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Union

from spokenkit.core.model import value_eq, value_ne
from spokenkit.featstruct import Feature, FeatureStructure, TagDecl


@dataclass(frozen=True)
class OpaqueElement:
    """An element outside the understood vocabulary, kept as parsed."""

    tag: str
    attrib: tuple[tuple[str, str], ...] = ()
    text: str | None = None
    children: tuple["OpaqueElement", ...] = ()
    tails: tuple[str | None, ...] = ()  # tail text after each child, within this element


class AnchorRef(NamedTuple):
    """A synchronization anchor: either declares a point or references one."""

    synch: str | None = None  # referenced point id, '#'-normalized
    declares: str | None = None  # xml:id introducing a point at this position

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    @property
    def point(self) -> str | None:
        return self.declares if self.declares is not None else self.synch


@dataclass(frozen=True)
class TimedEvent:
    """A timed non-verbal event, inline or free-standing; ``tag`` names its element."""

    tag: ClassVar[str]

    desc: str | None = None
    type: str | None = None
    who: str | None = None
    start: str | None = None
    end: str | None = None
    id: str | None = None
    id_generated: bool = field(default=True, compare=False)


@dataclass(frozen=True)
class Vocal(TimedEvent):
    """A non-lexical sound such as a laugh or a cough."""

    tag = "vocal"


@dataclass(frozen=True)
class Kinesic(TimedEvent):
    """A gesture or similar non-verbal event."""

    tag = "kinesic"


@dataclass(frozen=True)
class Incident(TimedEvent):
    """An incidental event in the situation."""

    tag = "incident"


# The only mapping from event element names to their classes.
EVENT_CLASSES: dict[str, type[TimedEvent]] = {cls.tag: cls for cls in (Vocal, Kinesic, Incident)}


class W(NamedTuple):
    """A token of the transcription."""

    text: str
    id: str | None = None
    ana: str | None = None
    extras: tuple[OpaqueElement, ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class Pc(NamedTuple):
    """A punctuation token."""

    text: str
    id: str | None = None
    ana: str | None = None
    extras: tuple[OpaqueElement, ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class Seg(NamedTuple):
    """A typed grouping of text fragments; may nest."""

    type: str | None = None
    subtype: str | None = None
    content: tuple["ContentItem", ...] = ()
    id: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


ContentItem = Union[str, AnchorRef, TimedEvent, Seg, W, Pc, OpaqueElement]


@dataclass(frozen=True)
class Utterance:
    id: str
    who: str | None = None
    content: tuple[ContentItem, ...] = ()
    id_generated: bool = field(default=True, compare=False)

    def plain_text(self) -> str:
        return content_text(self.content)


_CONTAINERS = (Utterance, Seg)


def content_items(items, kind) -> list:
    """The items of type ``kind`` in ``items``, nested utterance and seg content included.

    Items come in document order, each container before its content.
    ``kind`` is a class or a tuple of classes, as for ``isinstance``.
    """
    found: list = []
    _collect(items, kind, found)
    return found


def _collect(items, kind, found: list) -> None:
    # A matched item that is not a container costs one isinstance test, not two.
    for item in items:
        if isinstance(item, kind):
            found.append(item)
            if isinstance(item, _CONTAINERS):
                _collect(item.content, kind, found)
        elif isinstance(item, _CONTAINERS):
            _collect(item.content, kind, found)


def content_text(items: tuple[ContentItem, ...]) -> str:
    """Concatenated transcription text of content items, markup dropped."""
    parts = content_items(items, (str, W, Pc))
    return "".join([part if isinstance(part, str) else part.text for part in parts])


def annotated_items(body, annotations) -> dict[int, int]:
    """The position in ``annotations`` of the annotation of each body
    utterance and free-standing event that has one, by the item's position.

    The n-th annotation with an id belongs to the n-th such item with that id.
    """
    queues: dict[str, list[int]] = {}  # the positions of each id, last first
    for n, ann in zip(range(len(annotations) - 1, -1, -1), reversed(annotations)):
        queue = queues.get(ann.id)
        if queue is None:
            queues[ann.id] = [n]
        else:
            queue.append(n)
    pairs: dict[int, int] = {}
    paired = (Utterance, TimedEvent)
    for n, item in enumerate(body):
        if isinstance(item, paired):
            queue = queues.get(item.id)
            if queue:
                pairs[n] = queue.pop()
    return pairs


@dataclass(frozen=True)
class Span:
    """A from/to range over identified elements, pointing at an analysis."""

    from_: str
    to: str
    ana: str | None = None
    id: str | None = None
    text: str | None = None


@dataclass(frozen=True)
class SpanGroup:
    type: str | None = None
    spans: tuple[Span, ...] = ()


@dataclass(frozen=True)
class InflectedForm:
    id: str | None
    orth: str
    type: str | None = None
    grammar: tuple[tuple[str, str], ...] = ()  # (feature name, value) pairs


@dataclass(frozen=True)
class LexicalEntry:
    forms: tuple[InflectedForm, ...] = ()


@dataclass(frozen=True)
class FeatureLib:
    """A feature library declaration (a labelled list of elementary features)."""

    features: tuple[Feature, ...] = ()
    label: str | None = None


@dataclass(frozen=True)
class TagLib:
    """A feature-value library declaration: the tags of a tagset."""

    tags: tuple[TagDecl, ...] = ()
    label: str | None = None


@dataclass(frozen=True)
class InlineStructure:
    """A free-standing feature structure addressable by id."""

    id: str
    fs: FeatureStructure


BackItem = Union[FeatureLib, TagLib, LexicalEntry, InlineStructure, SpanGroup, OpaqueElement]
BodyItem = Union[Utterance, TimedEvent, AnchorRef, SpanGroup, str, OpaqueElement]


@dataclass(frozen=True)
class AppInfo:
    ident: str
    version: str
    label: str | None = None
    targets: tuple[str, ...] = ()


@dataclass(frozen=True)
class Person:
    id: str
    name: str | None = None
    name_is_abbr: bool = False
    sex: str | None = None
    age: str | None = None
    extras: tuple[OpaqueElement, ...] = ()  # every child but the first persName, as parsed


# The header elements an unknown element may sit in, in the order the writer
# places their unknown elements. The reader keeps ``Metadata.extras`` in this
# order, so a parsed header is written and read back unchanged.
HEADER_SLOTS = (
    "titleStmt",
    "publicationStmt",
    "sourceDesc",
    "fileDesc",
    "appInfo",
    "encodingDesc",
    "particDesc",
    "profileDesc",
    "teiHeader",
)


@dataclass(frozen=True)
class Metadata:
    """Header metadata; the file description fields are mandatory.

    Only what spokenkit reads is typed; every other header element is kept
    verbatim in ``extras``.
    """

    title: str
    publication: str
    source: str
    applications: tuple[AppInfo, ...] = ()
    participants: tuple[Person, ...] = ()
    # Header elements the model does not type as (slot, element) pairs; the
    # slot, one of HEADER_SLOTS, names their parent element.
    extras: tuple[tuple[str, OpaqueElement], ...] = ()
