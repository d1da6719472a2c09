"""Typed content model for the spoken-transcription markup subset.

Everything the parser understands becomes one of these immutable classes;
anything else is preserved as an :class:`OpaqueElement` so documents
round-trip. The header is kept whole, as one :class:`OpaqueElement` tree in
:class:`Metadata`; the title, publication and source texts, the
applications and the participants are views computed from it, and
``Metadata.of`` builds a header from them.

Every class here is a named tuple, one allocation per value, equal only to
a value of its own class with equal fields, and edited with ``_replace``.
Text inside utterances is kept verbatim, whitespace included, as plain ``str``.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Union

from spokenkit.core.model import (
    ValueTuple,
    eq_but_last,
    hash_but_last,
    ne_but_last,
    value_eq,
    value_ne,
)
from spokenkit.featstruct import Feature, FeatureStructure, TagDecl, strip_ref


class OpaqueElement(ValueTuple):
    """An element outside the understood vocabulary, kept as parsed."""

    tag: str
    attrib: tuple[tuple[str, str], ...] = ()
    text: str | None = None
    children: tuple["OpaqueElement", ...] = ()
    tails: tuple[str | None, ...] = ()  # tail text after each child, within this element

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    def get(self, name: str) -> str | None:
        """The value of attribute ``name``, or None."""
        for key, value in self.attrib:
            if key == name:
                return value
        return None

    def find(self, path: str) -> OpaqueElement | None:
        """The element reached by the first child of each name in the
        '/'-separated ``path``, or None."""
        el = self
        for tag in path.split("/"):
            for child in el.children:
                if child.tag == tag:
                    el = child
                    break
            else:
                return None
        return el


class AnchorRef(ValueTuple):
    """A synchronization anchor: either declares a point or references one."""

    synch: str | None = None  # referenced point id, '#'-normalized
    declares: str | None = None  # xml:id introducing a point at this position

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    @property
    def point(self) -> str | None:
        return self.declares if self.declares is not None else self.synch


class TimedEvent(ValueTuple):
    """A timed non-verbal event, inline or free-standing. Each subclass names
    its element in the class attribute ``tag``; ``id_generated`` takes no
    part in ``==`` or ``hash``."""

    desc: str | None = None
    type: str | None = None
    who: str | None = None
    start: str | None = None
    end: str | None = None
    id: str | None = None
    id_generated: bool = True

    __eq__ = eq_but_last
    __ne__ = ne_but_last
    __hash__ = hash_but_last


class Vocal(TimedEvent):
    """A non-lexical sound such as a laugh or a cough."""

    __slots__ = ()
    tag = "vocal"


class Kinesic(TimedEvent):
    """A gesture or similar non-verbal event."""

    __slots__ = ()
    tag = "kinesic"


class Incident(TimedEvent):
    """An incidental event in the situation."""

    __slots__ = ()
    tag = "incident"


# The only mapping from event element names to their classes.
EVENT_CLASSES: dict[str, type[TimedEvent]] = {cls.tag: cls for cls in (Vocal, Kinesic, Incident)}


class W(ValueTuple):
    """A token of the transcription."""

    text: str
    id: str | None = None
    ana: str | None = None
    extras: tuple[OpaqueElement, ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class Pc(ValueTuple):
    """A punctuation token."""

    text: str
    id: str | None = None
    ana: str | None = None
    extras: tuple[OpaqueElement, ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class Seg(ValueTuple):
    """A typed grouping of text fragments; may nest."""

    type: str | None = None
    subtype: str | None = None
    content: tuple["ContentItem", ...] = ()
    id: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


ContentItem = Union[str, AnchorRef, TimedEvent, Seg, W, Pc, OpaqueElement]


class Utterance(ValueTuple):
    """An utterance; ``id_generated`` takes no part in ``==`` or ``hash``."""

    id: str
    who: str | None = None
    content: tuple[ContentItem, ...] = ()
    id_generated: bool = True

    __eq__ = eq_but_last
    __ne__ = ne_but_last
    __hash__ = hash_but_last

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


class Span(ValueTuple):
    """A from/to range over identified elements, pointing at an analysis."""

    from_: str
    to: str
    ana: str | None = None
    id: str | None = None
    text: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class SpanGroup(ValueTuple):
    type: str | None = None
    spans: tuple[Span, ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class InflectedForm(ValueTuple):
    id: str | None
    orth: str
    type: str | None = None
    grammar: tuple[tuple[str, str], ...] = ()  # (feature name, value) pairs

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class LexicalEntry(ValueTuple):
    forms: tuple[InflectedForm, ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class FeatureLib(ValueTuple):
    """A feature library declaration (a labelled list of elementary features)."""

    features: tuple[Feature, ...] = ()
    label: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class TagLib(ValueTuple):
    """A feature-value library declaration: the tags of a tagset."""

    tags: tuple[TagDecl, ...] = ()
    label: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class InlineStructure(ValueTuple):
    """A free-standing feature structure addressable by id."""

    id: str
    fs: FeatureStructure

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


BackItem = Union[FeatureLib, TagLib, LexicalEntry, InlineStructure, SpanGroup, OpaqueElement]
BodyItem = Union[Utterance, TimedEvent, AnchorRef, SpanGroup, str, OpaqueElement]


class AppInfo(ValueTuple):
    ident: str
    version: str
    label: str | None = None
    targets: tuple[str, ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class Person(ValueTuple):
    id: str
    name: str | None = None
    sex: str | None = None
    age: str | None = None

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


# The header elements whose content is only elements, when reached from
# ``teiHeader`` through such elements only. The reader drops the white space
# directly inside them and the writer puts each of their children on a line of
# its own; every other header element is kept and written as read.
HEADER_CONTAINERS = frozenset({
    "teiHeader", "fileDesc", "titleStmt", "publicationStmt", "sourceDesc", "encodingDesc",
    "appInfo", "application", "profileDesc", "particDesc", "person",
})


class Metadata(ValueTuple):
    """The TEI header, kept whole as an element tree.

    What spokenkit reads from it are views, computed from the tree when read:
    the texts of the first ``title`` and ``p`` of the first ``fileDesc``, the
    applications of every ``appInfo`` in the first ``encodingDesc``, and the
    participants of every ``particDesc`` in the first ``profileDesc``.
    """

    header: OpaqueElement

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    @classmethod
    def of(
        cls,
        title: str,
        publication: str,
        source: str,
        applications: tuple[AppInfo, ...] = (),
        participants: tuple[Person, ...] = (),
    ) -> Metadata:
        """The header with these views, in the form the reader reads from its output."""
        sections = [_element("fileDesc", (
            _element("titleStmt", (_element("title", text=title),)),
            _element("publicationStmt", (_element("p", text=publication),)),
            _element("sourceDesc", (_element("p", text=source),)),
        ))]
        if applications:
            apps = tuple(map(_application_element, applications))
            sections.append(_element("encodingDesc", (_element("appInfo", apps),)))
        if participants:
            people = tuple(map(_person_element, participants))
            sections.append(_element("profileDesc", (_element("particDesc", people),)))
        return cls(_element("teiHeader", tuple(sections)))

    @property
    def title(self) -> str:
        return _text(self.header.find("fileDesc/titleStmt/title"))

    @property
    def publication(self) -> str:
        return _text(self.header.find("fileDesc/publicationStmt/p"))

    @property
    def source(self) -> str:
        return _text(self.header.find("fileDesc/sourceDesc/p"))

    @property
    def applications(self) -> tuple[AppInfo, ...]:
        apps = _items(self.header.find("encodingDesc"), "appInfo", "application")
        return tuple(map(_application, apps))

    @property
    def participants(self) -> tuple[Person, ...]:
        people = _items(self.header.find("profileDesc"), "particDesc", "person")
        return tuple(map(_person, people))


def _element(tag: str, children=(), text: str | None = None, attrib=None) -> OpaqueElement:
    """An element as the reader reads it: attributes sorted, an empty text None."""
    pairs = tuple(sorted((k, v) for k, v in (attrib or {}).items() if v is not None))
    return OpaqueElement(tag, pairs, text or None, children, (None,) * len(children))


def _application_element(app: AppInfo) -> OpaqueElement:
    label = () if app.label is None else (_element("label", text=app.label),)
    ptrs = tuple(_element("ptr", attrib={"target": f"#{target}"}) for target in app.targets)
    attrib = {"ident": app.ident, "version": app.version}
    return _element("application", label + ptrs, attrib=attrib)


def _person_element(person: Person) -> OpaqueElement:
    name = () if person.name is None else (_element("persName", text=person.name),)
    attrib = {"age": person.age, "sex": person.sex, "xml:id": person.id}
    return _element("person", name, attrib=attrib)


def _items(section: OpaqueElement | None, container: str, tag: str) -> list[OpaqueElement]:
    """The ``tag`` children of every ``container`` in ``section``."""
    lists = () if section is None else section.children
    return [el for lst in lists if lst.tag == container for el in lst.children if el.tag == tag]


def _text(el: OpaqueElement | None) -> str:
    """The text of ``el`` and of its descendants, stripped; '' for no element."""
    if el is None:
        return ""
    if not el.children:
        return (el.text or "").strip()
    parts: list[str] = []
    _collect_text(el, parts)
    return "".join(parts).strip()


def _collect_text(el: OpaqueElement, parts: list[str]) -> None:
    parts.append(el.text or "")
    for child, tail in zip_longest(el.children, el.tails):
        _collect_text(child, parts)
        parts.append(tail or "")


def _application(el: OpaqueElement) -> AppInfo:
    label = el.find("label")
    targets = [ptr.get("target") for ptr in el.children if ptr.tag == "ptr"]
    return AppInfo(
        el.get("ident") or "",
        el.get("version") or "",
        None if label is None else _text(label),
        tuple(strip_ref(target) for target in targets if target),
    )


def _person(el: OpaqueElement) -> Person:
    """A participant, named by the text of the ``abbr`` of its first
    ``persName`` when that has one, else of the ``persName``."""
    name = el.find("persName")
    if name is not None:
        name = _text(name.find("abbr") or name)
    return Person(strip_ref(el.get("xml:id") or ""), name, el.get("sex"), el.get("age"))
