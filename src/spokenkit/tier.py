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

Comment lines start with '#'. Valid files round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
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
    TimePoint,
    Timeline,
    Token,
    UnknownIdError,
    WordForm,
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
    line: int | None = field(default=None, compare=False)


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

    def tier(self, tier_id: str) -> Tier:
        for t in self.tiers:
            if t.id == tier_id:
                return t
        raise KeyError(tier_id)

    def point_index(self) -> dict[str, int]:
        return {pid: n for n, (pid, _) in enumerate(self.points)}


def parse_tier(data: bytes | str) -> TierDocument:
    """Parse the tier file format; all problems carry their line number."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")

    speakers: list[TierSpeaker] = []
    points: list[tuple[str, Decimal | None]] = []
    point_lines: dict[str, int] = {}
    tier_decls: list[tuple[str, str | None, str]] = []
    events: dict[str, list[TierEvent]] = {}
    records: list[tuple] = []
    seen_speakers: set[str] = set()

    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line:
            records.append(("blank",))
            continue
        if line.startswith("#"):
            records.append(("comment", line))
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "@speaker":
            if len(fields) != 3:
                raise TierParseError(line_no, "@speaker takes id and name")
            _, sid, name = fields
            if sid in seen_speakers:
                raise TierParseError(line_no, f"duplicate speaker {sid!r}")
            seen_speakers.add(sid)
            speakers.append(TierSpeaker(sid, name))
            records.append(("speaker", sid))
        elif kind == "@point":
            if len(fields) != 3:
                raise TierParseError(line_no, "@point takes id and offset (or '-')")
            _, pid, raw_offset = fields
            if pid in point_lines:
                raise TierParseError(line_no, f"duplicate point {pid!r}")
            offset = None
            if raw_offset != "-":
                try:
                    offset = Decimal(raw_offset)
                    negative = offset < 0  # a NaN offset raises InvalidOperation here
                except InvalidOperation:
                    raise TierParseError(line_no, f"bad offset {raw_offset!r}") from None
                if negative:
                    raise TierParseError(line_no, f"negative offset {raw_offset!r}")
            points.append((pid, offset))
            point_lines[pid] = line_no
            records.append(("point", pid))
        elif kind == "@tier":
            if len(fields) != 4:
                raise TierParseError(line_no, "@tier takes id, speaker (or '-') and category")
            _, tid, speaker, category = fields
            if tid in events:
                raise TierParseError(line_no, f"duplicate tier {tid!r}")
            tier_decls.append((tid, None if speaker == "-" else speaker, category))
            events[tid] = []
            records.append(("tier", tid))
        elif kind == "event":
            if len(fields) != 5:
                raise TierParseError(
                    line_no, "event takes tier-id, start-point, end-point and text"
                )
            _, tid, start, end, text = fields
            if tid not in events:
                raise TierParseError(line_no, f"event for undeclared tier {tid!r}")
            events[tid].append(TierEvent(start, end, text, line=line_no))
            records.append(("event", tid, len(events[tid]) - 1))
        else:
            raise TierParseError(line_no, f"unrecognised record {kind!r}")

    index = {pid: n for n, (pid, _) in enumerate(points)}
    for tid, tier_events in events.items():
        for event in tier_events:
            for pid in (event.start, event.end):
                if pid not in index:
                    raise TierParseError(event.line or 0, f"unknown point {pid!r}")
            if index[event.start] >= index[event.end]:
                raise TierParseError(
                    event.line or 0,
                    f"event start {event.start!r} is not strictly before end {event.end!r}",
                )
        ordered = sorted(tier_events, key=lambda e: index[e.start])
        for prev, nxt in zip(ordered, ordered[1:]):
            if index[prev.end] > index[nxt.start]:
                raise TierParseError(
                    nxt.line or 0,
                    f"event overlaps previous event of tier {tid!r} "
                    f"(previous ends at {prev.end!r})",
                )

    with_offsets = [(pid, offset) for pid, offset in points if offset is not None]
    for (_, earlier), (pid, later) in zip(with_offsets, with_offsets[1:]):
        if earlier > later:
            raise TierParseError(
                point_lines[pid], f"offset of {pid!r} contradicts declaration order"
            )

    tiers = tuple(
        Tier(tid, speaker, category, tuple(events[tid])) for tid, speaker, category in tier_decls
    )
    return TierDocument(tuple(speakers), tuple(points), tiers, tuple(records))


def serialize_tier(td: TierDocument) -> str:
    """Serialise a tier document; parsed files reproduce their input bytes.

    A field that holds a tab, or a line break the reader would split on (any
    ``str.splitlines`` separator), raises ``TierSerializeError``.
    """
    speaker_map = {s.id: s for s in td.speakers}
    point_map = dict(td.points)
    tier_map = {t.id: t for t in td.tiers}
    lines: list[str] = []
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
            tier = tier_map[record[1]]
            event = tier.events[record[2]]
            line, tabs = f"event\t{tier.id}\t{event.start}\t{event.end}\t{event.text}", 4
        elif kind == "point":
            offset = point_map[record[1]]
            line, tabs = f"@point\t{record[1]}\t{offset if offset is not None else '-'}", 2
        elif kind == "tier":
            tier = tier_map[record[1]]
            speaker_id = tier.speaker if tier.speaker is not None else "-"
            line, tabs = f"@tier\t{tier.id}\t{speaker_id}\t{tier.category}", 3
        elif kind == "speaker":
            speaker = speaker_map[record[1]]
            line, tabs = f"@speaker\t{speaker.id}\t{speaker.name}", 2
        elif kind == "comment":
            line = record[1]
            tabs = line.count("\t")
        elif kind == "blank":
            line, tabs = "", 0
        else:
            continue
        if line.count("\t") != tabs:
            raise TierSerializeError(len(lines) + 1, f"a field of this {kind} line holds a tab")
        lines.append(line)
    if _line_break_in("".join(lines)):
        line_no = next(n for n, line in enumerate(lines, 1) if _line_break_in(line))
        raise TierSerializeError(line_no, "a field holds a line break")
    return "".join(line + "\n" for line in lines)


def _line_break_in(text: str) -> bool:
    return any(char in text for char in _LINE_BREAKS)


def to_core(td: TierDocument, category_map: Mapping[str, str] | None = None) -> Document:
    """Project a tier document into the generic annotation model.

    One timeline; each tier becomes a layer; each event becomes an annotation
    with an event-interval range and a single qualifier whose feature is the
    tier category (optionally redirected to a data-category pid) and whose
    value is the event text. Speakers become participants.
    """
    timeline = Timeline(
        TIER_TIMELINE,
        UNIT_S if any(offset is not None for _, offset in td.points) else UNIT_SYMBOLIC,
        tuple(TimePoint(pid, n, offset) for n, (pid, offset) in enumerate(td.points)),
    )
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
        for n, event in enumerate(tier.events, start=1):
            annotations.append(
                Annotation(
                    id=f"{tier.id}_e{n}",
                    source=TIER_SOURCE,
                    range=EventInterval(event.start, event.end, TIER_TIMELINE),
                    qualifiers=(Qualifier(feature, event.text),),
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
    (component or scale ranges, multi-qualifier annotations, events without a
    range) is listed in the residue report rather than silently dropped; run
    implicit sequencing first if unanchored events should survive.
    """
    residue: list[ResidueItem] = []
    timeline = doc.primary_timeline
    points: tuple[tuple[str, Decimal | None], ...] = ()
    if timeline is not None:
        points = tuple(
            (p.id, p.offset if isinstance(p.offset, Decimal) or p.offset is None else Decimal(str(p.offset)))
            for p in timeline.points
        )

    speakers: list[TierSpeaker] = []
    seen_speakers: set[str] = set()
    if doc.metadata is not None:
        for person in doc.metadata.participants:
            speakers.append(TierSpeaker(person.id, person.name or person.id))
            seen_speakers.add(person.id)

    tiers: dict[tuple, dict] = {}
    used_ids: set[str] = set()

    def tier_slot(key: tuple, tier_id: str, speaker: str | None, category: str) -> dict:
        if key not in tiers:
            candidate = tier_id
            n = 1
            while candidate in used_ids:
                n += 1
                candidate = f"{tier_id}_{n}"
            used_ids.add(candidate)
            tiers[key] = {"id": candidate, "speaker": speaker, "category": category, "events": []}
        return tiers[key]

    # Layers that declare a tier category are tiers already; materialise them
    # even when empty so that empty tiers survive the round trip.
    for layer in doc.layers:
        if layer.category is not None:
            tier_slot(("layer", layer.id), layer.id, layer.speaker, layer.category)

    for ann in doc.annotations:
        if isinstance(ann, (Token, WordForm)):
            residue.append(ResidueItem(ann.id, "token and word-form annotations have no tier form"))
            continue
        if ann.range is None:
            residue.append(ResidueItem(ann.id, "no event interval (sequence implicit events first)"))
            continue
        if not isinstance(ann.range, EventInterval):
            residue.append(ResidueItem(ann.id, "only event-interval ranges are expressible"))
            continue
        try:
            home = doc.timeline(ann.range.timeline)
            start_index = home.index_of(ann.range.start)
            end_index = home.index_of(ann.range.end)
        except UnknownIdError:
            residue.append(ResidueItem(ann.id, "event interval does not resolve"))
            continue
        if start_index >= end_index:
            residue.append(ResidueItem(ann.id, "events must run strictly forward in time"))
            continue
        if len(ann.qualifiers) != 1:
            residue.append(ResidueItem(ann.id, "multiple qualifiers per event are not expressible"))
            continue
        try:
            layer = doc.layer(ann.layer)
        except UnknownIdError:
            residue.append(ResidueItem(ann.id, f"annotation layer {ann.layer!r} is undeclared"))
            continue
        qualifier = ann.qualifiers[0]
        if layer.category is not None:
            slot = tier_slot(("layer", layer.id), layer.id, layer.speaker, layer.category)
        else:
            feature = qualifier.feature_key()
            category = _VERBAL_FEATURES.get(feature, feature)
            speaker = ann.who
            base_id = f"{speaker}_{category}" if speaker is not None else category
            slot = tier_slot(("group", layer.id, speaker, category), base_id, speaker, category)
        slot["events"].append(TierEvent(ann.range.start, ann.range.end, qualifier.value_key()))
        if ann.who is not None and ann.who not in seen_speakers:
            speakers.append(TierSpeaker(ann.who, ann.who))
            seen_speakers.add(ann.who)

    built = tuple(
        Tier(slot["id"], slot["speaker"], slot["category"], tuple(slot["events"]))
        for slot in tiers.values()
    )
    return TierDocument(tuple(speakers), points, built), residue
