"""Score-style tier interchange format and lossless converters.

The format is line-oriented and tab-separated: speaker, point and tier
declarations followed by events. It captures the common core of score-based
transcription tools (speakers, a shared timeline, per-speaker tiers of
non-overlapping events) with as little format-specific baggage as possible,
so that projection into the generic annotation model and back is lossless.

    @speaker<TAB>id<TAB>name
    @point<TAB>id<TAB>offset-or--        (declaration order = timeline order)
    @tier<TAB>id<TAB>speaker-or--<TAB>category
    event<TAB>tier-id<TAB>start-point<TAB>end-point<TAB>text

Comment lines start with '#'. A parsed document holds its points as two
columns, ``point_ids`` and ``offsets``, as a ``Timeline`` does, and each
tier's events as ``(start, end, text)`` tuples, in file order. Its
``records`` are the file's line layout, which the writer follows; a document
edited so that its records no longer match is written in canonical order.

An offset is read as a ``Decimal`` and written as ``str`` of it. A valid
file round-trips bit-exactly when its lines end in LF, the last one
included, and each offset is spelled as ``str`` spells it. Other input the
reader takes comes back rewritten after one pass: CRLF or any other
``str.splitlines`` line end as LF, a last line without a line end with one,
a leading UTF-8 byte-order mark dropped, and an offset such as ``+1`` or
``1e1`` respelled (``1``, ``1E+1``). A second pass is bit-exact.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from itertools import islice, repeat
from operator import itemgetter, le, lt
from types import NoneType
from typing import Mapping

from spokenkit.core.model import (
    MECH_EVENT,
    PRIMARY,
    UNIT_S,
    UNIT_SYMBOLIC,
    Annotation,
    CategoryRef,
    Document,
    EventInterval,
    Layer,
    Level,
    Qualifier,
    SourceRef,
    SpokenkitError,
    Timeline,
    ValueTuple,
    WordForm,
    checked_replace,
    decode_utf8,
    eq_but_last,
    hash_but_last,
    ne_but_last,
    value_eq,
    value_ne,
)
from spokenkit.tei.model import Metadata, Person

TIER_TIMELINE = "timeline1"
TIER_SOURCE = "source1"

# Feature names that map back to the conventional 'verbal' tier category.
_VERBAL_FEATURES = {"utterance": "verbal"}

# Builds a value from its fields, past its constructor: in ``to_core``, an
# interval and a qualifier, whose generated constructors check nothing, and an
# annotation, whose one check, that it has a qualifier, holds by construction.
_new = tuple.__new__


class TierParseError(SpokenkitError, ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TierSerializeError(SpokenkitError, ValueError):
    """The document has a field the format cannot carry; ``line_no`` is the
    output line it would have been written on."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"cannot write tier line {line_no}: {message}")
        self.line_no = line_no


_ZERO = Decimal(0)

# The line boundaries of ``str.splitlines``, which the reader splits on.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TierSpeaker(ValueTuple):
    id: str
    name: str

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class Tier(ValueTuple):
    """A tier and its events: one ``(start point, end point, text)`` tuple per
    event, in file order."""

    id: str
    speaker: str | None
    category: str
    events: tuple[tuple[str, str, str], ...] = ()

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class TierDocument(ValueTuple):
    """Speakers, points and tiers, in declaration order.

    The points are two columns, as in a ``Timeline``: the n-th point has id
    ``point_ids[n]`` and offset ``offsets[n]`` (None for ``-``). ``records``
    is a parsed file's line layout, one record per line: ``("speaker", id)``,
    ``("tier", id)``, ``("comment", line)``, ``("blank",)``, the one
    ``_POINT`` record for every point line, which take the points in order,
    and one ``("event", tier id)`` record per tier for each of its event
    lines, which take the tier's events in order. A document whose records
    no longer lay out exactly its speakers, points, tiers and events, such as
    a constructed or an edited one, is written in canonical order.
    ``records`` takes no part in ``==`` or ``hash``. A document is immutable:
    an edit is ``_replace``.
    """

    speakers: tuple[TierSpeaker, ...] = ()
    point_ids: tuple[str, ...] = ()
    offsets: tuple[Decimal | None, ...] = ()
    tiers: tuple[Tier, ...] = ()
    records: tuple[tuple, ...] = ()

    def __new__(
        cls,
        speakers: tuple[TierSpeaker, ...] = (),
        point_ids: tuple[str, ...] = (),
        offsets: tuple[Decimal | None, ...] = (),
        tiers: tuple[Tier, ...] = (),
        records: tuple[tuple, ...] = (),
    ) -> TierDocument:
        if len(offsets) != len(point_ids):
            raise ValueError(f"{len(point_ids)} point ids but {len(offsets)} offsets")
        return tuple.__new__(cls, (speakers, point_ids, offsets, tiers, records))

    __eq__ = eq_but_last
    __ne__ = ne_but_last
    __hash__ = hash_but_last
    _replace = checked_replace


# The record of every point line.
_POINT = ("point",)


def parse_tier(data: bytes | str) -> TierDocument:
    """Parse the tier file format; all problems carry their line number."""
    data = decode_utf8(data, TierParseError)

    speakers: list[TierSpeaker] = []
    point_ids: list[str] = []
    point_offsets: list[Decimal | None] = []
    index: dict[str, int] = {}  # point id -> position in declaration order
    offsets: list[Decimal] = []  # the offsets given, without the '-' points
    tier_decls: list[tuple[str, str | None, str]] = []
    # Tier id -> the one record of all its event lines, and its events.
    events: dict[str, tuple[tuple[str, str], list[tuple[str, str, str]]]] = {}
    seen_speakers: set[str] = set()
    records: list[tuple] = []  # one per line, so a record's position gives its line
    record = records.append

    for line_no, line in enumerate(data.splitlines(), start=1):
        fields = line.split("\t")
        kind = fields[0]
        if kind == "event":
            if len(fields) != 5:
                raise TierParseError(
                    line_no, "event takes tier-id, start-point, end-point and text"
                )
            _, tid, start, end, text = fields
            tier = events.get(tid)
            if tier is None:
                raise TierParseError(line_no, f"event for undeclared tier {tid!r}")
            record(tier[0])
            tier[1].append((start, end, text))
        elif kind == "@point":
            if len(fields) != 3:
                raise TierParseError(line_no, "@point takes id and offset (or '-')")
            _, pid, raw_offset = fields
            if pid in index:
                raise TierParseError(line_no, f"duplicate point {pid!r}")
            offset = None
            if raw_offset != "-":
                try:
                    offset = Decimal(raw_offset)
                    negative = offset < _ZERO  # a NaN offset raises InvalidOperation here
                except InvalidOperation:
                    raise TierParseError(line_no, f"bad offset {raw_offset!r}") from None
                if negative:
                    raise TierParseError(line_no, f"negative offset {raw_offset!r}")
                offsets.append(offset)
            index[pid] = len(point_ids)
            point_ids.append(pid)
            point_offsets.append(offset)
            record(_POINT)
        elif not line:
            record(("blank",))
        elif line[0] == "#":
            record(("comment", line))
        elif kind == "@speaker":
            if len(fields) != 3:
                raise TierParseError(line_no, "@speaker takes id and name")
            _, sid, name = fields
            if sid in seen_speakers:
                raise TierParseError(line_no, f"duplicate speaker {sid!r}")
            seen_speakers.add(sid)
            speakers.append(TierSpeaker(sid, name))
            record(("speaker", sid))
        elif kind == "@tier":
            if len(fields) != 4:
                raise TierParseError(line_no, "@tier takes id, speaker (or '-') and category")
            _, tid, speaker, category = fields
            if tid in events:
                raise TierParseError(line_no, f"duplicate tier {tid!r}")
            tier_decls.append((tid, None if speaker == "-" else speaker, category))
            events[tid] = (("event", tid), [])
            record(("tier", tid))
        else:
            raise TierParseError(line_no, f"unrecognised record {kind!r}")

    for tid, (_, tier_events) in events.items():
        if not _events_fit(tier_events, index):
            _raise_event_defect(tid, tier_events, index, records)
    if not all(map(le, offsets, islice(offsets, 1, None))):
        _raise_offset_inversion(point_ids, point_offsets, records)
    # Offsets never decrease here, so an infinite one is among them only if the last one is.
    if offsets and not offsets[-1].is_finite():
        _raise_infinite_offset(data, point_offsets, records)

    tiers = tuple(
        Tier(tid, speaker, category, tuple(events[tid][1])) for tid, speaker, category in tier_decls
    )
    return TierDocument(
        tuple(speakers), tuple(point_ids), tuple(point_offsets), tiers, tuple(records)
    )


def _events_fit(tier_events: list[tuple[str, str, str]], index: dict[str, int]) -> bool:
    """Whether every event names known points, starts before it ends and
    overlaps no other event of its tier; checked without a Python loop."""
    try:
        starts = list(map(index.__getitem__, map(itemgetter(0), tier_events)))
        ends = list(map(index.__getitem__, map(itemgetter(1), tier_events)))
    except KeyError:
        return False
    if not all(map(lt, starts, ends)):
        return False
    if not all(map(le, starts, islice(starts, 1, None))):
        order = sorted(range(len(starts)), key=starts.__getitem__)
        starts = list(map(starts.__getitem__, order))
        ends = list(map(ends.__getitem__, order))
    return all(map(le, ends, islice(starts, 1, None)))


def _raise_event_defect(
    tid: str, tier_events: list[tuple[str, str, str]], index: dict[str, int], records: list[tuple]
) -> None:
    """Raise for the first event of the tier that fails a check of
    :func:`_events_fit`: event checks in file order, then overlaps in start
    order."""
    lines = [n for n, record in enumerate(records, 1) if record == ("event", tid)]
    for (start, end, _), line_no in zip(tier_events, lines):
        for pid in (start, end):
            if pid not in index:
                raise TierParseError(line_no, f"unknown point {pid!r}")
        if index[start] >= index[end]:
            raise TierParseError(
                line_no, f"event start {start!r} is not strictly before end {end!r}"
            )
    ordered = sorted(zip(tier_events, lines), key=lambda pair: index[pair[0][0]])
    for ((_, prev_end, _), _), ((next_start, _, _), line_no) in zip(ordered, ordered[1:]):
        if index[prev_end] > index[next_start]:
            raise TierParseError(
                line_no,
                f"event overlaps previous event of tier {tid!r} (previous ends at {prev_end!r})",
            )


def _raise_offset_inversion(
    point_ids: list[str], offsets: list[Decimal | None], records: list[tuple]
) -> None:
    """Raise at the declaration of the first point whose offset is below the
    offset of the point with an offset declared before it."""
    # The k-th point record is the line of the k-th point.
    lines = [n for n, record in enumerate(records, 1) if record is _POINT]
    given = [point for point in zip(point_ids, offsets, lines) if point[1] is not None]
    for (_, earlier, _), (pid, later, line_no) in zip(given, given[1:]):
        if earlier > later:
            raise TierParseError(line_no, f"offset of {pid!r} contradicts declaration order")


def _raise_infinite_offset(data: str, offsets: list[Decimal | None], records: list[tuple]) -> None:
    """Raise at the declaration of the first point whose offset is infinite."""
    lines = [n for n, record in enumerate(records, 1) if record is _POINT]
    for offset, line_no in zip(offsets, lines):
        if offset is not None and offset.is_infinite():
            raw_offset = data.splitlines()[line_no - 1].split("\t")[2]
            raise TierParseError(line_no, f"bad offset {raw_offset!r}")


# The tabs the line of each kind of record holds when no field holds one; a
# comment line holds its own, which are counted as it is written.
_TEMPLATE_TABS = {"event": 4, "point": 2, "tier": 3, "speaker": 2, "blank": 0, "comment": 0}


def serialize_tier(td: TierDocument) -> str:
    """Serialise a tier document; a parsed file comes back in its record
    order, with every line ended by one LF (see the module docstring).

    A speaker, point or tier id declared twice raises ``TierSerializeError``.
    So does a field that holds a tab, or a line break the reader would split
    on (any ``str.splitlines`` separator), and then a tier whose speaker id
    is ``-``, which the reader takes for no speaker. The checks run in that
    order, each naming the first line it fails on; an id declared twice is
    named at its second declaration in canonical order.
    """
    speaker_map = {s.id: s for s in td.speakers}
    tier_map = {t.id: t for t in td.tiers}
    if (
        len(speaker_map) != len(td.speakers)
        or len(set(td.point_ids)) != len(td.point_ids)
        or len(tier_map) != len(td.tiers)
    ):
        _raise_declared_twice(td)
    records = td.records
    if not records:
        # Canonical order: speakers, points, tiers, then each tier's events.
        records = (
            [("speaker", s.id) for s in td.speakers]
            + [_POINT] * len(td.point_ids)
            + [("tier", t.id) for t in td.tiers]
        )
        for tier in td.tiers:
            records += [("event", tier.id)] * len(tier.events)
    points = zip(td.point_ids, td.offsets)
    events_of = {t.id: iter(t.events) for t in td.tiers}
    speaker_ids: list[str] = []
    tier_ids: list[str] = []
    lines: list[str] = []
    write = lines.append
    comment_tabs = 0
    try:
        for record in records:
            kind = record[0]
            if kind == "event":
                start, end, text = next(events_of[record[1]])
                write(f"event\t{record[1]}\t{start}\t{end}\t{text}\n")
            elif kind == "point":
                pid, offset = next(points)
                # str(), not the f-string's format(): the same text at a quarter of
                # the cost for a Decimal.
                write(f"@point\t{pid}\t{str(offset) if offset is not None else '-'}\n")
            elif kind == "tier":
                tier = tier_map[record[1]]
                tier_ids.append(tier.id)
                speaker_id = tier.speaker if tier.speaker is not None else "-"
                write(f"@tier\t{tier.id}\t{speaker_id}\t{tier.category}\n")
            elif kind == "speaker":
                speaker = speaker_map[record[1]]
                speaker_ids.append(speaker.id)
                write(f"@speaker\t{speaker.id}\t{speaker.name}\n")
            elif kind == "comment":
                write(record[1] + "\n")
                comment_tabs += record[1].count("\t")
            elif kind == "blank":
                write("\n")
    except (StopIteration, KeyError):
        laid_out = False
    else:
        laid_out = (
            next(points, None) is None
            and all(next(events, None) is None for events in events_of.values())
            and tier_ids == [t.id for t in td.tiers]
            and speaker_ids == [s.id for s in td.speakers]
        )
    if not laid_out:
        # An edited document's records no longer lay out its speakers, points,
        # tiers and events; canonical records always do, tier ids being unique.
        return serialize_tier(td._replace(records=()))
    text = "".join(lines)
    kinds = list(map(itemgetter(0), records))
    if text.count("\t") != comment_tabs + sum(map(_TEMPLATE_TABS.get, kinds, repeat(0))):
        written = [kind for kind in kinds if kind in _TEMPLATE_TABS]
        for line_no, (kind, line) in enumerate(zip(written, lines), 1):
            if kind != "comment" and line.count("\t") != _TEMPLATE_TABS[kind]:
                raise TierSerializeError(line_no, f"a field of this {kind} line holds a tab")
    # Each line ends in the one LF its template adds.
    if text.count("\n") != len(lines) or any(c in text for c in _LINE_BREAKS if c != "\n"):
        line_no = next(n for n, line in enumerate(lines, 1) if _line_break_in(line[:-1]))
        raise TierSerializeError(line_no, "a field holds a line break")
    if any(tier.speaker == "-" for tier in td.tiers):
        written = [record for record in records if record[0] in _TEMPLATE_TABS]
        line_no = next(
            n
            for n, record in enumerate(written, 1)
            if record[0] == "tier" and tier_map[record[1]].speaker == "-"
        )
        raise TierSerializeError(line_no, "speaker id '-' would read back as no speaker")
    return text


def _raise_declared_twice(td: TierDocument) -> None:
    """Refuse the first id declared again, at its line in canonical order."""
    declarations = (
        [("speaker", s.id) for s in td.speakers]
        + [("point", pid) for pid in td.point_ids]
        + [("tier", t.id) for t in td.tiers]
    )
    seen: set[tuple[str, str]] = set()
    for line_no, declaration in enumerate(declarations, 1):
        if declaration in seen:
            kind, declared_id = declaration
            raise TierSerializeError(line_no, f"{kind} id {declared_id!r} is declared twice")
        seen.add(declaration)


def _line_break_in(text: str) -> bool:
    return any(char in text for char in _LINE_BREAKS)


def to_core(td: TierDocument, category_map: Mapping[str, str] | None = None) -> Document:
    """Project a tier document into the generic annotation model.

    One timeline; each tier becomes a layer; each event becomes an annotation
    with an event-interval range and a single qualifier whose feature is the
    tier category (optionally redirected to a data-category pid) and whose
    value is the event text. Speakers become participants.
    """
    unit = UNIT_S if any(offset is not None for offset in td.offsets) else UNIT_SYMBOLIC
    timeline = Timeline(TIER_TIMELINE, unit, td.point_ids, td.offsets)
    levels: dict[str, Level] = {}
    layers: list[Layer] = []
    annotations: list[Annotation] = []
    annotate = annotations.append
    for tier_id, speaker, category, events in td.tiers:
        pid = category_map.get(category) if category_map else None
        feature = category if pid is None else CategoryRef(pid)
        level_id = f"level_{category}"
        if level_id not in levels:
            levels[level_id] = Level(
                level_id,
                sources=frozenset({TIER_SOURCE}),
                ranging_mechanism=MECH_EVENT,
                category_selection=frozenset({category if pid is None else pid}),
            )
        layers.append(Layer(tier_id, category, level_id, speaker=speaker, category=category))
        # Events with the same text share one qualifier tuple.
        qualifiers: dict[str, tuple[Qualifier]] = {}
        for n, (start, end, text) in enumerate(events, start=1):
            shared = qualifiers.get(text)
            if shared is None:
                shared = qualifiers[text] = (_new(Qualifier, (feature, text)),)
            interval = _new(EventInterval, (start, end, TIER_TIMELINE))
            annotate(
                _new(Annotation, (f"{tier_id}_e{n}", TIER_SOURCE, interval, shared, tier_id, speaker))
            )
    metadata = Metadata.of(
        title="Tier interchange document",
        publication="Unpublished",
        source="Converted from the tier interchange format",
        participants=tuple(Person(id=s.id, name=s.name) for s in td.speakers),
    )
    return Document(
        metadata=metadata,
        sources=(SourceRef(TIER_SOURCE, PRIMARY),),
        timelines=(timeline,),
        layers=tuple(layers),
        levels=tuple(levels.values()),
        annotations=tuple(annotations),
    )


class ResidueItem(ValueTuple):
    """Core content that the tier format cannot express."""

    annotation: str
    reason: str

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


def from_core(doc: Document) -> tuple[TierDocument, list[ResidueItem]]:
    """Project an event-ranged document onto tiers.

    Inverse of :func:`to_core` on its image. Content the format cannot carry
    (component or scale ranges, events off the first timeline, multi-qualifier
    annotations, events without a range) is listed in the residue report
    rather than silently dropped; run implicit sequencing first if unanchored
    events should survive. Participants that share an id give one speaker,
    named after the first of them.
    """
    residue: list[ResidueItem] = []
    timeline = doc.primary_timeline
    point_ids: tuple[str, ...] = ()
    offsets: tuple[Decimal | None, ...] = ()
    if timeline is not None:
        point_ids = timeline.ids
        offsets = timeline.offsets
        if not all(map(isinstance, offsets, repeat((Decimal, NoneType)))):
            offsets = tuple(
                o if isinstance(o, (Decimal, NoneType)) else Decimal(str(o)) for o in offsets
            )
    timeline_ids = {tl.id for tl in doc.timelines}
    layers = {layer.id: layer for layer in reversed(doc.layers)}  # the first layer of an id

    speakers: dict[str, TierSpeaker] = {}
    if doc.metadata is not None:
        for person in doc.metadata.participants:
            speakers.setdefault(person.id, TierSpeaker(person.id, person.name or person.id))

    # Each tier's id, speaker, category and events, by its key.
    tiers: dict[tuple, tuple[str, str | None, str, list[tuple[str, str, str]]]] = {}
    used_ids: set[str] = set()

    def tier_events(key: tuple, tier_id: str, speaker: str | None, category: str) -> list:
        if key not in tiers:
            candidate = tier_id
            n = 1
            while candidate in used_ids:
                n += 1
                candidate = f"{tier_id}_{n}"
            used_ids.add(candidate)
            tiers[key] = (candidate, speaker, category, [])
        return tiers[key][3]

    # Layers that declare a tier category are tiers already; materialise them
    # even when empty so that empty tiers survive the round trip.
    for layer in doc.layers:
        if layer.category is not None:
            tier_events(("layer", layer.id), layer.id, layer.speaker, layer.category)

    positions = {} if timeline is None else timeline.positions
    for ann in doc.annotations:
        reason = _no_tier_form(ann, timeline, positions, timeline_ids, layers)
        if reason is not None:
            residue.append(ResidueItem(ann.id, reason))
            continue
        layer = layers[ann.layer]
        qualifier = ann.qualifiers[0]
        if layer.category is not None:
            events = tier_events(("layer", layer.id), layer.id, layer.speaker, layer.category)
        else:
            feature = qualifier.feature_key()
            category = _VERBAL_FEATURES.get(feature, feature)
            speaker = ann.who
            base_id = f"{speaker}_{category}" if speaker is not None else category
            events = tier_events(("group", layer.id, speaker, category), base_id, speaker, category)
        events.append((ann.range.start, ann.range.end, qualifier.value_key()))
        if ann.who is not None and ann.who not in speakers:
            speakers[ann.who] = TierSpeaker(ann.who, ann.who)

    built = tuple(
        Tier(tier_id, speaker, category, tuple(events))
        for tier_id, speaker, category, events in tiers.values()
    )
    return TierDocument(tuple(speakers.values()), point_ids, offsets, built), residue


def _no_tier_form(
    ann: Annotation,
    timeline: Timeline | None,
    positions: Mapping[str, int],
    timeline_ids: set[str],
    layers: dict[str, Layer],
) -> str | None:
    """Why ``ann`` has no tier form, or None when it has one.

    ``timeline`` is the document's first timeline, the only one a tier file
    holds, ``positions`` its point positions, and ``timeline_ids`` the ids
    of all the document's timelines.
    """
    if isinstance(ann, WordForm):
        return "word-form annotations have no tier form"
    rng = ann.range
    if rng is None:
        return "no event interval (sequence implicit events first)"
    if not isinstance(rng, EventInterval):
        return "only event-interval ranges are expressible"
    if timeline is None or rng.timeline != timeline.id:
        if rng.timeline in timeline_ids:
            return "only events on the first timeline are expressible"
        return "event interval does not resolve"
    start, end = positions.get(rng.start), positions.get(rng.end)
    if start is None or end is None:
        return "event interval does not resolve"
    if start >= end:
        return "events must run strictly forward in time"
    if len(ann.qualifiers) != 1:
        return "multiple qualifiers per event are not expressible"
    if ann.layer not in layers:
        return f"annotation layer {ann.layer!r} is undeclared"
    return None
