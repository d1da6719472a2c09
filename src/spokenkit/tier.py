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

Comment lines start with '#'. An offset is read as a ``Decimal`` and written
as ``str`` of it, so a valid file round-trips bit-exactly when each offset is
spelled that way; another spelling the reader takes, such as ``+1`` or
``1e1``, comes back respelled (``1``, ``1E+1``) after one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from itertools import islice, repeat
from operator import attrgetter, itemgetter, le, lt
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
    Timeline,
    UnknownIdError,
    WordForm,
    decode_utf8,
)
from spokenkit.tei.model import Metadata, Person

TIER_TIMELINE = "timeline1"
TIER_SOURCE = "source1"

# Feature names that map back to the conventional 'verbal' tier category.
_VERBAL_FEATURES = {"utterance": "verbal"}


class TierParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TierSerializeError(ValueError):
    """The document has a field the format cannot carry; ``line_no`` is the
    output line it would have been written on."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"cannot write tier line {line_no}: {message}")
        self.line_no = line_no


_ZERO = Decimal(0)

# The line boundaries of ``str.splitlines``, which the reader splits on.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@dataclass(frozen=True)
class TierSpeaker:
    id: str
    name: str


@dataclass(frozen=True)
class TierEvent:
    start: str
    end: str
    text: str


@dataclass(frozen=True)
class Tier:
    id: str
    speaker: str | None
    category: str
    events: tuple[TierEvent, ...] = ()


@dataclass
class TierDocument:
    speakers: tuple[TierSpeaker, ...] = ()
    points: tuple[tuple[str, Decimal | None], ...] = ()
    tiers: tuple[Tier, ...] = ()
    records: tuple[tuple, ...] = field(default=(), compare=False)


def parse_tier(data: bytes | str) -> TierDocument:
    """Parse the tier file format; all problems carry their line number."""
    data = decode_utf8(data, TierParseError)

    speakers: list[TierSpeaker] = []
    points: list[tuple[str, Decimal | None]] = []
    index: dict[str, int] = {}  # point id -> position in declaration order
    offsets: list[Decimal] = []
    tier_decls: list[tuple[str, str | None, str]] = []
    events: dict[str, list[TierEvent]] = {}
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
            tier_events = events.get(tid)
            if tier_events is None:
                raise TierParseError(line_no, f"event for undeclared tier {tid!r}")
            record(("event", tid, len(tier_events)))
            tier_events.append(TierEvent(start, end, text))
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
            index[pid] = len(points)
            points.append((pid, offset))
            record(("point", pid))
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
            events[tid] = []
            record(("tier", tid))
        else:
            raise TierParseError(line_no, f"unrecognised record {kind!r}")

    for tid, tier_events in events.items():
        if not _events_fit(tier_events, index):
            _raise_event_defect(tid, tier_events, index, records)
    if not all(map(le, offsets, islice(offsets, 1, None))):
        _raise_offset_inversion(points, records)

    tiers = tuple(
        Tier(tid, speaker, category, tuple(events[tid])) for tid, speaker, category in tier_decls
    )
    return TierDocument(tuple(speakers), tuple(points), tiers, tuple(records))


def _events_fit(tier_events: list[TierEvent], index: dict[str, int]) -> bool:
    """Whether every event names known points, starts before it ends and
    overlaps no other event of its tier; checked without a Python loop."""
    try:
        starts = list(map(index.__getitem__, map(attrgetter("start"), tier_events)))
        ends = list(map(index.__getitem__, map(attrgetter("end"), tier_events)))
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
    tid: str, tier_events: list[TierEvent], index: dict[str, int], records: list[tuple]
) -> None:
    """Raise for the first event of the tier that fails a check of
    :func:`_events_fit`: event checks in file order, then overlaps in start
    order."""
    lines = [n for n, record in enumerate(records, 1) if record[0] == "event" and record[1] == tid]
    for event, line_no in zip(tier_events, lines):
        for pid in (event.start, event.end):
            if pid not in index:
                raise TierParseError(line_no, f"unknown point {pid!r}")
        if index[event.start] >= index[event.end]:
            raise TierParseError(
                line_no, f"event start {event.start!r} is not strictly before end {event.end!r}"
            )
    ordered = sorted(zip(tier_events, lines), key=lambda pair: index[pair[0].start])
    for (prev, _), (nxt, line_no) in zip(ordered, ordered[1:]):
        if index[prev.end] > index[nxt.start]:
            raise TierParseError(
                line_no,
                f"event overlaps previous event of tier {tid!r} (previous ends at {prev.end!r})",
            )


def _raise_offset_inversion(
    points: list[tuple[str, Decimal | None]], records: list[tuple]
) -> None:
    """Raise at the declaration of the first point whose offset is below the
    offset of the point with an offset declared before it."""
    with_offsets = [(pid, offset) for pid, offset in points if offset is not None]
    for (_, earlier), (pid, later) in zip(with_offsets, with_offsets[1:]):
        if earlier > later:
            raise TierParseError(
                records.index(("point", pid)) + 1,
                f"offset of {pid!r} contradicts declaration order",
            )


# The tabs the line of each kind of record holds when no field holds one; a
# comment line holds its own, which are counted as it is written.
_TEMPLATE_TABS = {"event": 4, "point": 2, "tier": 3, "speaker": 2, "blank": 0, "comment": 0}


def serialize_tier(td: TierDocument) -> str:
    """Serialise a tier document; parsed files reproduce their input bytes.

    A field that holds a tab, or a line break the reader would split on (any
    ``str.splitlines`` separator), raises ``TierSerializeError``, and so does
    a tier whose speaker id is ``-``, which the reader takes for no speaker.
    The checks run in that order, each naming the first line it fails on.
    """
    speaker_map = {s.id: s for s in td.speakers}
    point_map = dict(td.points)
    tier_map = {t.id: t for t in td.tiers}
    events_of = {t.id: t.events for t in td.tiers}
    lines: list[str] = []
    write = lines.append
    comment_tabs = 0
    # A constructed document has no records; it is written in canonical
    # order: speakers, points, tiers, then each tier's events.
    records = td.records or (
        [("speaker", s.id) for s in td.speakers]
        + [("point", pid) for pid, _ in td.points]
        + [("tier", t.id) for t in td.tiers]
        + [("event", t.id, n) for t in td.tiers for n in range(len(t.events))]
    )
    for record in records:
        kind = record[0]
        if kind == "event":
            event = events_of[record[1]][record[2]]
            write(f"event\t{record[1]}\t{event.start}\t{event.end}\t{event.text}\n")
        elif kind == "point":
            offset = point_map[record[1]]
            write(f"@point\t{record[1]}\t{offset if offset is not None else '-'}\n")
        elif kind == "tier":
            tier = tier_map[record[1]]
            speaker_id = tier.speaker if tier.speaker is not None else "-"
            write(f"@tier\t{tier.id}\t{speaker_id}\t{tier.category}\n")
        elif kind == "speaker":
            speaker = speaker_map[record[1]]
            write(f"@speaker\t{speaker.id}\t{speaker.name}\n")
        elif kind == "comment":
            write(record[1] + "\n")
            comment_tabs += record[1].count("\t")
        elif kind == "blank":
            write("\n")
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


def _line_break_in(text: str) -> bool:
    return any(char in text for char in _LINE_BREAKS)


def to_core(td: TierDocument, category_map: Mapping[str, str] | None = None) -> Document:
    """Project a tier document into the generic annotation model.

    One timeline; each tier becomes a layer; each event becomes an annotation
    with an event-interval range and a single qualifier whose feature is the
    tier category (optionally redirected to a data-category pid) and whose
    value is the event text. Speakers become participants.
    """
    ids, offsets = zip(*td.points) if td.points else ((), ())
    unit = UNIT_S if any(offset is not None for offset in offsets) else UNIT_SYMBOLIC
    timeline = Timeline(TIER_TIMELINE, unit, ids, offsets)
    levels: dict[str, Level] = {}
    layers: list[Layer] = []
    annotations: list[Annotation] = []
    for tier in td.tiers:
        pid = category_map.get(tier.category) if category_map else None
        feature = tier.category if pid is None else CategoryRef(pid)
        level_id = f"level_{tier.category}"
        if level_id not in levels:
            levels[level_id] = Level(
                level_id,
                sources=frozenset({TIER_SOURCE}),
                ranging_mechanism=MECH_EVENT,
                category_selection=frozenset({tier.category if pid is None else pid}),
            )
        layers.append(
            Layer(tier.id, tier.category, level_id, speaker=tier.speaker, category=tier.category)
        )
        # Events with the same text share one qualifier tuple.
        qualifiers: dict[str, tuple[Qualifier]] = {}
        for n, event in enumerate(tier.events, start=1):
            shared = qualifiers.get(event.text)
            if shared is None:
                shared = qualifiers[event.text] = (Qualifier(feature, event.text),)
            annotations.append(
                Annotation(
                    id=f"{tier.id}_e{n}",
                    source=TIER_SOURCE,
                    range=EventInterval(event.start, event.end, TIER_TIMELINE),
                    qualifiers=shared,
                    layer=tier.id,
                    who=tier.speaker,
                )
            )
    metadata = Metadata(
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


@dataclass(frozen=True)
class ResidueItem:
    """Core content that the tier format cannot express."""

    annotation: str
    reason: str


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
    points: tuple[tuple[str, Decimal | None], ...] = ()
    if timeline is not None:
        points = tuple(
            (pid, offset if isinstance(offset, Decimal) or offset is None else Decimal(str(offset)))
            for pid, offset in zip(timeline.ids, timeline.offsets)
        )
    timeline_ids = {tl.id for tl in doc.timelines}
    layers = {layer.id: layer for layer in reversed(doc.layers)}  # the first layer of an id

    speakers: dict[str, TierSpeaker] = {}
    if doc.metadata is not None:
        for person in doc.metadata.participants:
            speakers.setdefault(person.id, TierSpeaker(person.id, person.name or person.id))

    # Each tier's id, speaker, category and events, by its key.
    tiers: dict[tuple, tuple[str, str | None, str, list[TierEvent]]] = {}
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

    for ann in doc.annotations:
        reason = _no_tier_form(ann, timeline, timeline_ids, layers)
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
        events.append(TierEvent(ann.range.start, ann.range.end, qualifier.value_key()))
        if ann.who is not None and ann.who not in speakers:
            speakers[ann.who] = TierSpeaker(ann.who, ann.who)

    built = tuple(
        Tier(tier_id, speaker, category, tuple(events))
        for tier_id, speaker, category, events in tiers.values()
    )
    return TierDocument(tuple(speakers.values()), points, built), residue


def _no_tier_form(
    ann: Annotation, timeline: Timeline | None, timeline_ids: set[str], layers: dict[str, Layer]
) -> str | None:
    """Why ``ann`` has no tier form, or None when it has one.

    ``timeline`` is the document's first timeline, the only one a tier file
    holds, and ``timeline_ids`` the ids of all its timelines.
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
    try:
        forward = timeline.index_of(rng.start) < timeline.index_of(rng.end)
    except UnknownIdError:
        return "event interval does not resolve"
    if not forward:
        return "events must run strictly forward in time"
    if len(ann.qualifiers) != 1:
        return "multiple qualifiers per event are not expressible"
    if ann.layer not in layers:
        return f"annotation layer {ann.layer!r} is undeclared"
    return None
