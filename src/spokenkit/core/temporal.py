"""Temporal ordering and interval algebra over timeline-anchored annotations.

Intervals are half-open [start, end): two events sharing a boundary point
meet, they do not overlap. Point order is the ordinal order of the timeline;
numeric offsets never override it.
"""

from __future__ import annotations

from enum import Enum
from itertools import count, repeat

from spokenkit.core.model import (
    SYNTHETIC_PREFIX,
    Annotation,
    Document,
    EventInterval,
    SpokenkitError,
    Timeline,
    ValueTuple,
    first_timeline,
    value_eq,
    value_ne,
)

# Builds an ``EventInterval``, whose generated constructor checks nothing.
_new = tuple.__new__

BEFORE = "before"
EQUAL = "equal"
AFTER = "after"


class IncomparableIntervalsError(SpokenkitError, ValueError):
    """Raised when two intervals do not live on the same timeline."""


def compare_points(timeline: Timeline, a: str, b: str) -> str:
    """Order two points of one timeline: 'before', 'equal' or 'after'.

    Ordering follows the ordinal index; contradictory offsets are a
    validation finding, not an ordering input.
    """
    ia = timeline.index_of(a)
    ib = timeline.index_of(b)
    if ia < ib:
        return BEFORE
    if ia > ib:
        return AFTER
    return EQUAL


class TemporalRelation(Enum):
    """The thirteen mutually exclusive relations between proper intervals."""

    BEFORE = "before"
    AFTER = "after"
    MEETS = "meets"
    MET_BY = "metBy"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlappedBy"
    STARTS = "starts"
    STARTED_BY = "startedBy"
    DURING = "during"
    CONTAINS = "contains"
    FINISHES = "finishes"
    FINISHED_BY = "finishedBy"
    EQUALS = "equals"

    @property
    def inverse(self) -> "TemporalRelation":
        return _INVERSES[self]


_INVERSES = {
    TemporalRelation.BEFORE: TemporalRelation.AFTER,
    TemporalRelation.AFTER: TemporalRelation.BEFORE,
    TemporalRelation.MEETS: TemporalRelation.MET_BY,
    TemporalRelation.MET_BY: TemporalRelation.MEETS,
    TemporalRelation.OVERLAPS: TemporalRelation.OVERLAPPED_BY,
    TemporalRelation.OVERLAPPED_BY: TemporalRelation.OVERLAPS,
    TemporalRelation.STARTS: TemporalRelation.STARTED_BY,
    TemporalRelation.STARTED_BY: TemporalRelation.STARTS,
    TemporalRelation.DURING: TemporalRelation.CONTAINS,
    TemporalRelation.CONTAINS: TemporalRelation.DURING,
    TemporalRelation.FINISHES: TemporalRelation.FINISHED_BY,
    TemporalRelation.FINISHED_BY: TemporalRelation.FINISHES,
    TemporalRelation.EQUALS: TemporalRelation.EQUALS,
}

# Overlap in the inclusive sense: the relations with a non-empty shared span.
SHARING_RELATIONS = frozenset(
    {
        TemporalRelation.OVERLAPS,
        TemporalRelation.OVERLAPPED_BY,
        TemporalRelation.STARTS,
        TemporalRelation.STARTED_BY,
        TemporalRelation.DURING,
        TemporalRelation.CONTAINS,
        TemporalRelation.FINISHES,
        TemporalRelation.FINISHED_BY,
        TemporalRelation.EQUALS,
    }
)


def relation_by_index(s1: int, e1: int, s2: int, e2: int) -> TemporalRelation:
    """Classify two index pairs. Exactly one relation holds for proper intervals."""
    if s1 == s2 and e1 == e2:
        return TemporalRelation.EQUALS
    if e1 < s2:
        return TemporalRelation.BEFORE
    if s1 > e2:
        return TemporalRelation.AFTER
    if e1 == s2:
        return TemporalRelation.MEETS
    if s1 == e2:
        return TemporalRelation.MET_BY
    if s1 == s2:
        return TemporalRelation.STARTS if e1 < e2 else TemporalRelation.STARTED_BY
    if e1 == e2:
        return TemporalRelation.FINISHES if s1 > s2 else TemporalRelation.FINISHED_BY
    if s2 < s1 and e1 < e2:
        return TemporalRelation.DURING
    if s1 < s2 and e2 < e1:
        return TemporalRelation.CONTAINS
    if s1 < s2:
        return TemporalRelation.OVERLAPS
    return TemporalRelation.OVERLAPPED_BY


def relation(a: EventInterval, b: EventInterval, timeline: Timeline) -> TemporalRelation:
    """The temporal relation of interval a to interval b on one timeline."""
    if a.timeline != b.timeline:
        raise IncomparableIntervalsError(
            f"intervals on different timelines: {a.timeline!r} vs {b.timeline!r}"
        )
    if a.timeline != timeline.id:
        raise IncomparableIntervalsError(
            f"intervals reference timeline {a.timeline!r}, got {timeline.id!r}"
        )
    return relation_by_index(
        timeline.index_of(a.start),
        timeline.index_of(a.end),
        timeline.index_of(b.start),
        timeline.index_of(b.end),
    )


class OverlapPair(ValueTuple):
    """Two annotations with a non-empty shared interval."""

    a: str
    b: str
    shared: EventInterval

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__


class OverlapReport(ValueTuple):
    """Each pair as a plain ``(a, b, start, end, timeline)`` row: the two
    annotation ids, then the shared interval's points and timeline id."""

    rows: tuple[tuple[str, str, str, str, str], ...]
    skipped: int  # annotations without a resolvable event interval

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    @property
    def pairs(self) -> tuple[OverlapPair, ...]:
        """The rows as ``OverlapPair`` objects, built on each read."""
        return tuple(
            OverlapPair(a, b, EventInterval(start, end, timeline))
            for a, b, start, end, timeline in self.rows
        )


def overlaps_report(doc: Document) -> OverlapReport:
    """All unordered pairs of event-ranged annotations that share time.

    Pairs merely meeting (shared boundary point only) are excluded.
    Timelines may share an id: an interval lies on the first timeline, in
    document order, with its id that declares both its points. Annotations
    without such an interval are skipped and counted. Output order is
    deterministic: annotations sorted by (start index, end index, id), pairs
    in that iteration order.

    Each annotation is paired only with later annotations on its own
    timeline, and the scan stops at the first one starting at or after its
    end, so the cost is O(n log n + k) for n annotations and k pairs, plus
    the zero-length intervals starting inside an annotation.
    """
    # One group of annotations per timeline object, not per id, filled in
    # sorted order below. An annotation names its group by position, so
    # that no group holds an entry that holds the group.
    timelines = doc.timelines
    groups: list[list] = [[] for _ in timelines]
    named: dict[str, list[int]] = {}
    for k, tl in enumerate(timelines):
        named.setdefault(tl.id, []).append(k)
    positions = [tl.positions for tl in timelines]
    resolved: list[tuple[int, int, str, int]] = []
    skipped = 0
    for ann in doc.annotations:
        rng = ann.range
        candidates = named.get(rng.timeline, ()) if isinstance(rng, EventInterval) else ()
        for k in candidates:
            index = positions[k]
            s, e = index.get(rng.start), index.get(rng.end)
            if s is None or e is None:
                continue
            resolved.append((s, e, ann.id, k))
            break
        else:
            skipped += 1

    resolved.sort(key=lambda item: (item[0], item[1], item[2]))
    # Each annotation's place in its timeline's group.
    places: list[int] = []
    for item in resolved:
        group = groups[item[3]]
        places.append(len(group))
        group.append(item)

    columns = [(tl.ids, tl.id) for tl in timelines]
    rows: list[tuple[str, str, str, str, str]] = []
    for (s1, e1, id1, k), pos in zip(resolved, places):
        group = groups[k]
        ids, tl_id = columns[k]
        for n in range(pos + 1, len(group)):
            s2, e2, id2, _ = group[n]
            if s2 >= e1:
                break
            end = min(e1, e2)
            if s2 < end:
                rows.append((id1, id2, ids[s2], ids[end], tl_id))
    return OverlapReport(tuple(rows), skipped)


def sequence_implicit(doc: Document) -> Document:
    """Assign synthetic intervals to events that carry no explicit anchors.

    Unanchored events are taken in document order; each receives a fresh
    half-open interval strictly after the previous event's end, built from
    synthetic points appended to the document's timeline, numbered on from
    its ``~auto`` ids past any id it holds. Already anchored events are
    untouched, so the operation is idempotent. Synthetic points are flagged
    and only serialised on request.
    """
    if all(ann.range is not None for ann in doc.annotations):
        return doc

    timeline = first_timeline(doc.timelines)
    tl_id = timeline.id
    first = 1 + sum(map(str.startswith, timeline.ids, repeat(SYNTHETIC_PREFIX)))
    fresh = (pid for n in count(first) if (pid := f"{SYNTHETIC_PREFIX}{n}") not in timeline)
    added: list[str] = []
    new_annotations: list[Annotation] = []
    for ann in doc.annotations:
        if ann.range is None:
            start, end = next(fresh), next(fresh)
            added += (start, end)
            ann = ann.with_range(_new(EventInterval, (start, end, tl_id)))
        new_annotations.append(ann)

    timelines = (timeline.append_flagged(added, synthetic=True), *doc.timelines[1:])
    return doc._replace(annotations=tuple(new_annotations), timelines=timelines)
