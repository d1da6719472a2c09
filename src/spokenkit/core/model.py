"""Generic annotation model for spoken-corpus documents.

An annotation is an elementary statement about a source: a reference to the
source, a range picking out the annotated portion, and one or more
feature-value qualifiers. Documents bundle annotations together with the
timelines, layers and levels that organise them. Everything here is plain
data, plus the UTF-8 decoding the line-oriented readers share; parsing and
serialisation live in the format modules.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from decimal import Decimal
from itertools import repeat
from operator import le
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

ERROR = "error"
WARNING = "warning"


class UnknownIdError(LookupError):
    """A cross-reference names an id that does not exist."""

    def __init__(self, kind: str, ref: str):
        super().__init__(f"unknown {kind} {ref!r}")
        self.kind = kind
        self.ref = ref


def decode_utf8(data: str | bytes, error: Callable[[int, str], Exception]) -> str:
    """``data`` as text. Bytes that are not UTF-8 raise ``error(line_no,
    message)`` for the line, counted as ``str.splitlines`` counts, that holds
    the first bad byte."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise error(line_no, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None


@dataclass(frozen=True)
class Finding:
    """A problem met by a pipeline stage: parser, anchors, spans, conventions
    or validator. ``location`` names the identifier concerned, else the
    element; ``str()`` gives the message alone."""

    code: str
    severity: str
    location: str
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class SourceRef:
    """A source being annotated: primary (e.g. a recording) or derived."""

    id: str
    kind: str = PRIMARY
    uri: str | None = None
    parents: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (PRIMARY, SECONDARY):
            raise ValueError(f"source kind must be 'primary' or 'secondary', got {self.kind!r}")
        if self.kind == SECONDARY and not self.parents:
            raise ValueError(f"secondary source {self.id!r} requires at least one parent source")
        if self.kind == PRIMARY and self.parents:
            raise ValueError(f"primary source {self.id!r} cannot have parent sources")


@dataclass(frozen=True)
class Timeline:
    """Totally ordered reference points, optionally carrying numeric offsets.

    The points are columns: the n-th point has id ``ids[n]`` and offset
    ``offsets[n]``, and its position ``n`` is its order, read with
    ``index_of``. An offset, in the timeline unit, is advisory: the validator
    checks it for consistency and nothing orders by it. ``synthetic`` holds
    the ids of points made by implicit sequencing, ``anchor_declared`` the
    ids of points that only an anchor declared.
    """

    id: str
    unit: str = UNIT_SYMBOLIC
    ids: tuple[str, ...] = ()
    offsets: tuple[Number | None, ...] = ()
    synthetic: frozenset[str] = frozenset()
    anchor_declared: frozenset[str] = frozenset()
    implicit: bool = False
    id_declared: bool = field(default=False, compare=False)
    # Point id -> position in ``ids``, built by ``__post_init__`` (also after ``replace``).
    _by_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.unit not in TIMELINE_UNITS:
            raise ValueError(f"timeline {self.id!r}: unit must be one of {TIMELINE_UNITS}")
        ids, offsets = self.ids, self.offsets
        if len(offsets) != len(ids):
            raise ValueError(
                f"timeline {self.id!r}: {len(ids)} point ids but {len(offsets)} offsets"
            )
        by_id = dict(zip(ids, range(len(ids))))
        if len(by_id) != len(ids):
            seen: set[str] = set()
            for pid in ids:
                if pid in seen:
                    raise ValueError(f"timeline {self.id!r}: duplicate point id {pid!r}")
                seen.add(pid)
        # ``filter(None, …)`` drops None and zero; ``0 <= offset`` is false for a
        # negative offset and a float NaN, and a Decimal NaN raises instead.
        try:
            suspect = not all(map(le, repeat(0), filter(None, offsets)))
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
        flags = (("synthetic", self.synthetic), ("anchor-declared", self.anchor_declared))
        for kind, flagged in flags:
            if not by_id.keys() >= flagged:
                stray = min(flagged - by_id.keys())
                message = f"{kind} point {stray!r} is not one of its ids"
                raise ValueError(f"timeline {self.id!r}: {message}")
        object.__setattr__(self, "_by_id", by_id)

    def __contains__(self, point_id: str) -> bool:
        return point_id in self._by_id

    @property
    def points(self) -> tuple[str, ...]:
        """``ids`` under another name: the benchmark's trace counts
        ``points_added`` with ``len(tl.points)``. It goes when that reader does."""
        return self.ids

    def index_of(self, point_id: str) -> int:
        try:
            return self._by_id[point_id]
        except KeyError:
            raise UnknownIdError("timeline point", point_id) from None

    def append_flagged(self, point_ids: Sequence[str], *, synthetic: bool) -> "Timeline":
        """This timeline with ``point_ids`` appended without offsets, flagged
        as synthetic, or else as anchor-declared."""
        added = frozenset(point_ids)
        return replace(
            self,
            ids=self.ids + tuple(point_ids),
            offsets=self.offsets + (None,) * len(point_ids),
            synthetic=self.synthetic | added if synthetic else self.synthetic,
            anchor_declared=self.anchor_declared if synthetic else self.anchor_declared | added,
        )

    @classmethod
    def of(cls, timeline_id: str, point_ids: Iterable[str], unit: str = UNIT_SYMBOLIC) -> "Timeline":
        ids = tuple(point_ids)
        return cls(timeline_id, unit, ids, (None,) * len(ids))


@dataclass(frozen=True)
class ScaleInterval:
    """Direct reference to a span on a numeric scale."""

    start: Number
    end: Number
    unit: str = UNIT_S

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"scale interval start {self.start} exceeds end {self.end}")


@dataclass(frozen=True)
class EventInterval:
    """Reference to a half-open span [start, end) between two timeline points."""

    start: str
    end: str
    timeline: str


@dataclass(frozen=True)
class ComponentRefs:
    """Stand-off pointers to explicitly identified components of the source."""

    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("component range requires at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("component range targets must be distinct")


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


@dataclass(frozen=True)
class CategoryRef:
    """Reference to a registered data category by persistent identifier."""

    pid: str


@dataclass(frozen=True)
class Qualifier:
    """One elementary feature-value statement.

    Feature and value may each be a plain name/literal or a reference into a
    data-category registry; only registry references take part in semantic
    equivalence checks.
    """

    feature: str | CategoryRef
    value: str | bool | Number | CategoryRef

    def feature_key(self) -> str:
        return self.feature.pid if isinstance(self.feature, CategoryRef) else self.feature

    def value_key(self) -> str:
        if isinstance(self.value, CategoryRef):
            return self.value.pid
        return str(self.value)


@dataclass(frozen=True, kw_only=True)
class Annotation:
    """Source reference + range + qualifiers; the universal unit of annotation.

    ``range`` is None for events whose position is only implicit in document
    order; ``sequence_implicit`` assigns synthetic intervals to those.
    Several qualifiers may share one range; each remains individually
    addressable.
    """

    id: str
    source: str
    range: Range | None
    qualifiers: tuple[Qualifier, ...]
    layer: str
    who: str | None = None

    def __post_init__(self) -> None:
        if not self.qualifiers:
            raise ValueError(f"annotation {self.id!r} requires at least one qualifier")


@dataclass(frozen=True, kw_only=True)
class WordForm(Annotation):
    """Lexical abstraction over one or more tokens (n-to-n with tokens)."""

    lex_ref: str | None = None
    orth: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.range, ComponentRefs):
            raise ValueError(f"word form {self.id!r} requires a component range over its tokens")

    @property
    def tokens(self) -> tuple[str, ...]:
        """The ids of the tokens covered: the targets of the component range."""
        return self.range.targets


@dataclass(frozen=True)
class Layer:
    """Technical grouping of annotations (one tier of a score, one span group).

    ``speaker`` and ``category`` are carried for layers that came from (or
    should convert to) score tiers; other layers leave them unset.
    """

    id: str
    name: str
    level: str
    speaker: str | None = None
    category: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError(f"layer {self.id!r} requires a non-empty name")


@dataclass(frozen=True)
class Level:
    """Conceptual grouping: same sources, one ranging mechanism, one tagset."""

    id: str
    sources: frozenset[str] = frozenset()
    ranging_mechanism: str = MECH_EVENT
    category_selection: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.ranging_mechanism not in RANGING_MECHANISMS:
            raise ValueError(
                f"level {self.id!r}: ranging mechanism must be one of {RANGING_MECHANISMS}"
            )


@dataclass
class Document:
    """A parsed or constructed corpus document.

    ``body`` and ``back`` hold ordered content and declaration items (see
    ``spokenkit.tei.model``) so that markup round-trips; ``annotations`` is
    the stand-off view over the same material. Documents are treated as
    immutable: operations that change them return new documents.
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
    declared_ids: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def timeline(self, timeline_id: str) -> Timeline:
        for t in self.timelines:
            if t.id == timeline_id:
                return t
        raise UnknownIdError("timeline", timeline_id)

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
