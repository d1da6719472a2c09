"""Generic annotation model for spoken-corpus documents.

An annotation is an elementary statement about a source: a reference to the
source, a range picking out the annotated portion, and one or more
feature-value qualifiers. Documents bundle annotations together with the
timelines, layers and levels that organise them. Everything here is plain
data, plus the UTF-8 decoding the line-oriented readers share; parsing and
serialisation live in the format modules.

Every value class here is a named tuple: one allocation per value, equal
only to a value of its own class with equal fields (:func:`value_eq`), and
edited with ``_replace``, which keeps the class. A class that checks its
fields does so in ``__new__`` and again in ``_replace``
(:func:`checked_replace`). :class:`Document` is a named tuple too, so no
field of a document can be assigned.

The value classes of the package are written as subclasses of
:class:`ValueTuple`, which builds each one with ``collections.namedtuple``
as ``typing.NamedTuple`` does, but keeps the field annotations as written.
``typing.NamedTuple`` turns each annotation, a string under PEP 563, into a
``typing.ForwardRef`` to check it as a type, which cost more than half of
the command line's start-up; nothing reads the checked annotations. A
``ValueTuple`` body may also give ``__new__`` and ``_replace``, so a class
that checks its fields needs no second class for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from decimal import Decimal
from itertools import repeat
from operator import le, lt
from types import MappingProxyType
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Iterable, Union

if TYPE_CHECKING:
    from spokenkit.tei.model import Metadata

Number = Union[int, float, Decimal]

PRIMARY = "primary"
SECONDARY = "secondary"

UNIT_MS = "ms"
UNIT_S = "s"
UNIT_SYMBOLIC = "symbolic"
TIMELINE_UNITS = (UNIT_MS, UNIT_S, UNIT_SYMBOLIC)

MECH_SCALE = "scale"
MECH_EVENT = "event"
MECH_COMPONENT = "component"
RANGING_MECHANISMS = (MECH_SCALE, MECH_EVENT, MECH_COMPONENT)

SYNTHETIC_PREFIX = "~auto"
IMPLICIT_TIMELINE = "~implicit"

ERROR = "error"
WARNING = "warning"

# The bounds of a timeline offset: zero or more, and finite. As Decimals, since
# the readers give Decimal offsets, which compare with a Decimal unconverted.
_ZERO = Decimal(0)
_INFINITY = Decimal("Infinity")


class SpokenkitError(Exception):
    """The base of every error spokenkit raises about its input."""


class UnknownIdError(SpokenkitError, LookupError):
    """A cross-reference names an id that does not exist."""

    def __init__(self, kind: str, ref: str):
        super().__init__(f"unknown {kind} {ref!r}")
        self.kind = kind
        self.ref = ref


def decode_utf8(data: str | bytes, error: Callable[[int, str], Exception]) -> str:
    """``data`` as text, without one leading UTF-8 byte-order mark if
    ``data`` is bytes. Bytes that are not UTF-8 raise ``error(line_no,
    message)`` for the line, counted as ``str.splitlines`` counts, that holds
    the first bad byte."""
    if isinstance(data, str):
        return data
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise error(line_no, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None


def value_eq(self, other):
    """``__eq__`` of the named-tuple value classes: a value equals only a
    value of its own class with equal fields, never a plain tuple or a value
    of a subclass."""
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def value_ne(self, other):
    """``__ne__`` to match :func:`value_eq`."""
    equal = value_eq(self, other)
    return equal if equal is NotImplemented else not equal


def eq_but_last(self, other):
    """:func:`value_eq` with the last field left out."""
    if other.__class__ is self.__class__:
        return self[:-1] == other[:-1]
    return False if isinstance(other, tuple) else NotImplemented


def ne_but_last(self, other):
    """``__ne__`` to match :func:`eq_but_last`."""
    equal = eq_but_last(self, other)
    return equal if equal is NotImplemented else not equal


def hash_but_last(self) -> int:
    """``__hash__`` to match :func:`eq_but_last`."""
    return hash(self[:-1])


def checked_replace(self, **changes):
    """``_replace`` of a named-tuple class whose ``__new__`` checks its
    fields. The edit is built by the class's constructor, so the checks run
    again; a named tuple's own ``_replace`` goes round ``__new__``."""
    return self.__class__(**{**self._asdict(), **changes})


def keyword_newargs(self) -> tuple[tuple, dict]:
    """``__getnewargs_ex__`` of a named-tuple class built by keyword only:
    ``copy`` and ``pickle`` call ``__new__`` with the fields by name."""
    return (), self._asdict()


# Attributes a ``ValueTuple`` body may not give: the named tuple's own.
_NAMEDTUPLE_ATTRIBUTES = frozenset(
    "__init__ __slots__ __getnewargs__ _fields _field_defaults _make _asdict _source".split()
)


class _ValueTupleType(type):
    """Builds each subclass of :class:`ValueTuple` as a named tuple whose only
    base is ``tuple``."""

    def __new__(mcs, name, bases, ns):
        if not bases:
            return super().__new__(mcs, name, bases, ns)
        if bases != (ValueTuple,):
            raise TypeError(f"{name}: a value tuple has ValueTuple as its only base")
        annotations = ns.get("__annotations__", {})
        defaults = []
        for field in annotations:
            if field in ns:
                defaults.append(ns[field])
            elif defaults:
                message = f"field {field!r} without a default follows one with a default"
                raise TypeError(f"{name}: {message}")
        refused = _NAMEDTUPLE_ATTRIBUTES.intersection(ns)
        if refused:
            raise AttributeError(f"{name}: cannot overwrite the named tuple's {min(refused)}")
        cls = namedtuple(name, annotations, defaults=defaults, module=ns["__module__"])
        for key, value in ns.items():
            if key == "__new__" and not isinstance(value, staticmethod):
                value = staticmethod(value)
            if key not in annotations:
                setattr(cls, key, value)
        return cls


class ValueTuple(metaclass=_ValueTupleType):
    """The base to write a value class with: ``class X(ValueTuple)`` with
    annotated fields, defaults last, builds ``collections.namedtuple`` of those
    fields and defaults, then sets the body's other attributes on it. The
    annotations are kept as written and checked by no one. A body may give
    ``__new__``, the checking constructor, and ``_replace``; it may not give
    the other attributes the named tuple makes, nor ``__slots__``."""


class Finding(ValueTuple):
    """A problem met by a pipeline stage: parser, anchors, spans, conventions
    or validator. ``location`` names the identifier concerned, else the
    element; ``str()`` gives the message alone."""

    code: str
    severity: str
    location: str
    message: str

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return self.message


class SourceRef(ValueTuple):
    """A source being annotated: primary (e.g. a recording) or derived."""

    id: str
    kind: str = PRIMARY
    uri: str | None = None
    parents: tuple[str, ...] = ()

    def __new__(
        cls, id: str, kind: str = PRIMARY, uri: str | None = None, parents: tuple[str, ...] = ()
    ) -> SourceRef:
        if kind not in (PRIMARY, SECONDARY):
            raise ValueError(f"source kind must be 'primary' or 'secondary', got {kind!r}")
        if kind == SECONDARY and not parents:
            raise ValueError(f"secondary source {id!r} requires at least one parent source")
        if kind == PRIMARY and parents:
            raise ValueError(f"primary source {id!r} cannot have parent sources")
        return tuple.__new__(cls, (id, kind, uri, parents))

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    _replace = checked_replace


class _TimelineFields(ValueTuple):
    id: str
    unit: str = UNIT_SYMBOLIC
    ids: tuple[str, ...] = ()
    offsets: tuple[Number | None, ...] = ()
    synthetic: frozenset[str] = frozenset()
    anchor_declared: frozenset[str] = frozenset()
    implicit: bool = False
    id_declared: bool = False


class Timeline(_TimelineFields):
    """Totally ordered reference points, optionally carrying numeric offsets.

    The points are columns: the n-th point has id ``ids[n]`` and offset
    ``offsets[n]``, and its position ``n`` is its order, read with
    ``index_of``. An offset, in the timeline unit, is advisory: the validator
    checks it for consistency and nothing orders by it. ``synthetic`` holds
    the ids of points made by implicit sequencing, ``anchor_declared`` the
    ids of points that only an anchor declared. ``id_declared`` takes no
    part in ``==`` or ``hash``.
    """

    # No ``__slots__``: the point index, point id -> position in ``ids``, is
    # ``_by_id`` in the instance dict, outside the fields and the ``repr``.
    # ``__new__`` builds it, also on ``_replace``, ``copy`` and ``pickle``;
    # ``append_flagged`` and the TEI reader build theirs, through ``_indexed``.

    def __new__(
        cls,
        id: str,
        unit: str = UNIT_SYMBOLIC,
        ids: tuple[str, ...] = (),
        offsets: tuple[Number | None, ...] = (),
        synthetic: frozenset[str] = frozenset(),
        anchor_declared: frozenset[str] = frozenset(),
        implicit: bool = False,
        id_declared: bool = False,
    ) -> Timeline:
        if unit not in TIMELINE_UNITS:
            raise ValueError(f"timeline {id!r}: unit must be one of {TIMELINE_UNITS}")
        if len(offsets) != len(ids):
            raise ValueError(f"timeline {id!r}: {len(ids)} point ids but {len(offsets)} offsets")
        by_id = dict(zip(ids, range(len(ids))))
        if len(by_id) != len(ids):
            seen: set[str] = set()
            for pid in ids:
                if pid in seen:
                    raise ValueError(f"timeline {id!r}: duplicate point id {pid!r}")
                seen.add(pid)
        # ``filter(None, …)`` drops None and zero; ``0 <= offset`` is false for a
        # negative offset, ``offset < inf`` for an infinite one, and a NaN raises.
        given = [*filter(None, offsets)]
        try:
            suspect = not (
                all(map(le, repeat(_ZERO), given)) and all(map(lt, given, repeat(_INFINITY)))
            )
        except ArithmeticError:
            suspect = True
        if suspect:
            for pid, offset in zip(ids, offsets):
                if offset is None:
                    continue
                # A signalling Decimal NaN refuses every comparison, so ask it first.
                if (isinstance(offset, Decimal) and offset.is_nan()) or offset != offset:
                    raise ValueError(f"point {pid!r}: offset must be a number, not NaN")
                if offset < 0:
                    raise ValueError(f"point {pid!r}: offset must be non-negative")
                if offset == _INFINITY:
                    raise ValueError(f"point {pid!r}: offset must be finite")
        flags = (("synthetic", synthetic), ("anchor-declared", anchor_declared))
        for kind, flagged in flags:
            if not by_id.keys() >= flagged:
                stray = min(flagged - by_id.keys())
                message = f"{kind} point {stray!r} is not one of its ids"
                raise ValueError(f"timeline {id!r}: {message}")
        fields = (id, unit, ids, offsets, synthetic, anchor_declared, implicit, id_declared)
        return cls._indexed(fields, by_id)

    __eq__ = eq_but_last
    __ne__ = ne_but_last
    __hash__ = hash_but_last
    _replace = checked_replace

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a timeline is immutable")

    @classmethod
    def _indexed(cls, fields: tuple, by_id: dict[str, int]) -> "Timeline":
        """A timeline of ``fields`` indexed by ``by_id``, unchecked: the caller
        has checked what ``__new__`` checks, and built ``by_id`` from the ids."""
        timeline = tuple.__new__(cls, fields)
        object.__setattr__(timeline, "_by_id", by_id)
        return timeline

    def __contains__(self, point_id: str) -> bool:
        return point_id in self._by_id

    @property
    def points(self) -> tuple[str, ...]:
        """``ids`` under another name: the benchmark's trace counts
        ``points_added`` with ``len(tl.points)``. It goes when that reader does."""
        return self.ids

    @property
    def positions(self) -> MappingProxyType[str, int]:
        """Each point id's position in ``ids``, as a read-only view of the
        table ``index_of`` reads; a loop over many points reads it once."""
        return MappingProxyType(self._by_id)

    def index_of(self, point_id: str) -> int:
        try:
            return self._by_id[point_id]
        except KeyError:
            raise UnknownIdError("timeline point", point_id) from None

    def append_flagged(self, point_ids: Sequence[str], *, synthetic: bool) -> "Timeline":
        """This timeline with ``point_ids`` appended without offsets, flagged
        as synthetic, or else as anchor-declared.

        Only what is appended is checked: an id that repeats another appended
        id, or a point already here, raises the constructor's ``ValueError``.
        The points already here were checked when this timeline was built, and
        the appended ones have no offsets and are flagged as they are added.
        """
        tl_id, unit, ids, offsets, synthetic_ids, anchor_declared, implicit, id_declared = self
        added = tuple(point_ids)
        by_id = self._by_id.copy()
        for n, pid in enumerate(added, start=len(ids)):
            if pid in by_id:
                raise ValueError(f"timeline {tl_id!r}: duplicate point id {pid!r}")
            by_id[pid] = n
        if synthetic:
            synthetic_ids = synthetic_ids.union(added)
        else:
            anchor_declared = anchor_declared.union(added)
        fields = (
            tl_id,
            unit,
            ids + added,
            offsets + (None,) * len(added),
            synthetic_ids,
            anchor_declared,
            implicit,
            id_declared,
        )
        return self._indexed(fields, by_id)

    @classmethod
    def of(cls, timeline_id: str, point_ids: Iterable[str], unit: str = UNIT_SYMBOLIC) -> "Timeline":
        ids = tuple(point_ids)
        return cls(timeline_id, unit, ids, (None,) * len(ids))


_IMPLICIT = Timeline(IMPLICIT_TIMELINE, UNIT_SYMBOLIC, implicit=True)


def first_timeline(timelines: Sequence[Timeline]) -> Timeline:
    """The first of ``timelines``, or else the implicit timeline of a document
    that declares none: empty, symbolic, and never written as an element."""
    return timelines[0] if timelines else _IMPLICIT


class ScaleInterval(ValueTuple):
    """Direct reference to a span on a numeric scale."""

    start: Number
    end: Number
    unit: str = UNIT_S

    def __new__(cls, start: Number, end: Number, unit: str = UNIT_S) -> ScaleInterval:
        if start > end:
            raise ValueError(f"scale interval start {start} exceeds end {end}")
        return tuple.__new__(cls, (start, end, unit))

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    _replace = checked_replace


class EventInterval(ValueTuple):
    """Reference to a half-open span [start, end) between two timeline points."""

    start: str
    end: str
    timeline: str

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class ComponentRefs(ValueTuple):
    """Stand-off pointers to explicitly identified components of the source."""

    targets: tuple[str, ...]

    def __new__(cls, targets: tuple[str, ...]) -> ComponentRefs:
        if not targets:
            raise ValueError("component range requires at least one target")
        if len(set(targets)) != len(targets):
            raise ValueError("component range targets must be distinct")
        return tuple.__new__(cls, (targets,))

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    _replace = checked_replace


Range = Union[ScaleInterval, EventInterval, ComponentRefs]


def mechanism(rng: Range) -> str:
    """The ranging mechanism a range instance uses."""
    if isinstance(rng, ScaleInterval):
        return MECH_SCALE
    if isinstance(rng, EventInterval):
        return MECH_EVENT
    if isinstance(rng, ComponentRefs):
        return MECH_COMPONENT
    raise TypeError(f"not a range: {rng!r}")


class CategoryRef(ValueTuple):
    """Reference to a registered data category by persistent identifier."""

    pid: str

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class Qualifier(ValueTuple):
    """One elementary feature-value statement.

    Feature and value may each be a plain name/literal or a reference into a
    data-category registry; only registry references take part in semantic
    equivalence checks.
    """

    feature: str | CategoryRef
    value: str | bool | Number | CategoryRef

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    def feature_key(self) -> str:
        return self.feature.pid if isinstance(self.feature, CategoryRef) else self.feature

    def value_key(self) -> str:
        if isinstance(self.value, CategoryRef):
            return self.value.pid
        return str(self.value)


class Annotation(ValueTuple):
    """Source reference + range + qualifiers; the universal unit of annotation.

    ``range`` is None for events whose position is only implicit in document
    order; ``sequence_implicit`` assigns synthetic intervals to those.
    Several qualifiers may share one range; each remains individually
    addressable. Built by keyword only; edited with ``_replace`` or
    ``with_range``.
    """

    id: str
    source: str
    range: Range | None
    qualifiers: tuple[Qualifier, ...]
    layer: str
    who: str | None = None

    def __new__(
        cls,
        *,
        id: str,
        source: str,
        range: Range | None,
        qualifiers: tuple[Qualifier, ...],
        layer: str,
        who: str | None = None,
    ) -> Annotation:
        if not qualifiers:
            raise ValueError(f"annotation {id!r} requires at least one qualifier")
        return tuple.__new__(cls, (id, source, range, qualifiers, layer, who))

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    __getnewargs_ex__ = keyword_newargs
    _replace = checked_replace

    def with_range(self, rng: Range) -> Annotation:
        """This annotation, of the same class and with every other field kept,
        at range ``rng``."""
        id, source, _, qualifiers, layer, who = self
        return tuple.__new__(type(self), (id, source, rng, qualifiers, layer, who))


class WordForm(ValueTuple):
    """Lexical abstraction over one or more tokens (n-to-n with tokens).

    It has :class:`Annotation`'s fields first, and its checks. Built by
    keyword only.
    """

    id: str
    source: str
    range: ComponentRefs
    qualifiers: tuple[Qualifier, ...]
    layer: str
    who: str | None = None
    lex_ref: str | None = None
    orth: str | None = None

    def __new__(
        cls,
        *,
        id: str,
        source: str,
        range: ComponentRefs,
        qualifiers: tuple[Qualifier, ...],
        layer: str,
        who: str | None = None,
        lex_ref: str | None = None,
        orth: str | None = None,
    ) -> WordForm:
        if not qualifiers:
            raise ValueError(f"annotation {id!r} requires at least one qualifier")
        if not isinstance(range, ComponentRefs):
            raise ValueError(f"word form {id!r} requires a component range over its tokens")
        return tuple.__new__(cls, (id, source, range, qualifiers, layer, who, lex_ref, orth))

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    __getnewargs_ex__ = keyword_newargs
    _replace = checked_replace

    def with_range(self, rng: Range) -> WordForm:
        """This word form at range ``rng``, which must be a component range."""
        return self._replace(range=rng)

    @property
    def tokens(self) -> tuple[str, ...]:
        """The ids of the tokens covered: the targets of the component range."""
        return self.range.targets


class Layer(ValueTuple):
    """Technical grouping of annotations (one tier of a score, one span group).

    ``speaker`` and ``category`` are carried for layers that came from (or
    should convert to) score tiers; other layers leave them unset.
    """

    id: str
    name: str
    level: str
    speaker: str | None = None
    category: str | None = None

    def __new__(
        cls,
        id: str,
        name: str,
        level: str,
        speaker: str | None = None,
        category: str | None = None,
    ) -> Layer:
        if not name:
            raise ValueError(f"layer {id!r} requires a non-empty name")
        return tuple.__new__(cls, (id, name, level, speaker, category))

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    _replace = checked_replace


class Level(ValueTuple):
    """Conceptual grouping: same sources, one ranging mechanism, one tagset."""

    id: str
    sources: frozenset[str] = frozenset()
    ranging_mechanism: str = MECH_EVENT
    category_selection: frozenset[str] = frozenset()

    def __new__(
        cls,
        id: str,
        sources: frozenset[str] = frozenset(),
        ranging_mechanism: str = MECH_EVENT,
        category_selection: frozenset[str] = frozenset(),
    ) -> Level:
        if ranging_mechanism not in RANGING_MECHANISMS:
            raise ValueError(f"level {id!r}: ranging mechanism must be one of {RANGING_MECHANISMS}")
        return tuple.__new__(cls, (id, sources, ranging_mechanism, category_selection))

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__
    _replace = checked_replace


class Document(ValueTuple):
    """A parsed or constructed corpus document.

    ``body`` and ``back`` hold ordered content and declaration items (see
    ``spokenkit.tei.model``) so that markup round-trips; ``annotations`` is
    the stand-off view over the same material. A document is immutable: no
    field can be assigned, and the operations that change a document return
    a new one, made with ``_replace``. ``declared_ids`` takes no part in
    ``==`` or ``hash``.
    """

    metadata: "Metadata | None" = None
    sources: tuple[SourceRef, ...] = ()
    timelines: tuple[Timeline, ...] = ()
    layers: tuple[Layer, ...] = ()
    levels: tuple[Level, ...] = ()
    annotations: tuple[Annotation, ...] = ()
    body: tuple = ()
    back: tuple = ()
    # (raw id, element name) of each identifier as it appeared in the input,
    # before any normalization, in document order.
    declared_ids: tuple[tuple[str, str], ...] = ()

    __eq__ = eq_but_last
    __ne__ = ne_but_last
    __hash__ = hash_but_last

    def level(self, level_id: str) -> Level:
        for l in self.levels:
            if l.id == level_id:
                return l
        raise UnknownIdError("level", level_id)

    def annotation(self, annotation_id: str) -> Annotation:
        for a in self.annotations:
            if a.id == annotation_id:
                return a
        raise UnknownIdError("annotation", annotation_id)

    @property
    def primary_timeline(self) -> Timeline | None:
        return self.timelines[0] if self.timelines else None

    @property
    def lexical_entries(self) -> tuple:
        from spokenkit.tei.model import LexicalEntry

        return tuple(item for item in self.back if isinstance(item, LexicalEntry))

    @property
    def tagset_declarations(self) -> tuple:
        from spokenkit.tei.model import FeatureLib, TagLib

        return tuple(item for item in self.back if isinstance(item, (FeatureLib, TagLib)))


def check_level_coherence(doc: Document, level_id: str) -> list[Finding]:
    """Check every annotation of a level against the level's declaration.

    Reports source membership (``LEVEL_SOURCE``), ranging-mechanism
    (``LEVEL_MECHANISM``) and category-selection (``LEVEL_CATEGORY``)
    violations as errors located at the annotation id. Annotations without a
    range are not checked for mechanism (their ranging is still pending).
    """
    level = doc.level(level_id)
    layer_ids = {layer.id for layer in doc.layers if layer.level == level_id}
    violations: list[Finding] = []
    for ann in doc.annotations:
        if ann.layer not in layer_ids:
            continue
        if ann.source not in level.sources:
            violations.append(
                Finding(
                    "LEVEL_SOURCE",
                    ERROR,
                    ann.id,
                    f"annotation {ann.id!r} uses source {ann.source!r} "
                    f"not declared for level {level_id!r}",
                )
            )
        if ann.range is not None and mechanism(ann.range) != level.ranging_mechanism:
            violations.append(
                Finding(
                    "LEVEL_MECHANISM",
                    ERROR,
                    ann.id,
                    f"annotation {ann.id!r} uses {mechanism(ann.range)} ranging "
                    f"but level {level_id!r} declares {level.ranging_mechanism}",
                )
            )
        for q in ann.qualifiers:
            if q.feature_key() not in level.category_selection:
                violations.append(
                    Finding(
                        "LEVEL_CATEGORY",
                        ERROR,
                        ann.id,
                        f"annotation {ann.id!r} qualifier feature {q.feature_key()!r} "
                        f"is outside the category selection of level {level_id!r}",
                    )
                )
    return violations
