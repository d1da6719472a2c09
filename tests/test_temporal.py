from __future__ import annotations

import itertools
import random

import pytest

from spokenkit.core import (
    Annotation,
    ComponentRefs,
    Document,
    EventInterval,
    IncomparableIntervalsError,
    Qualifier,
    ScaleInterval,
    SourceRef,
    TemporalRelation as R,
    Timeline,
    UnknownIdError,
    compare_points,
    overlaps_report,
    relation,
    relation_by_index,
    sequence_implicit,
)
from spokenkit.core.temporal import SHARING_RELATIONS
from spokenkit.tei import parse_document, resolve_anchors
from tests.conftest import cyclic_garbage, fixture_bytes

DIALOGUE_POINTS = ["T1", "T2", "T3", "T4", "T4bar", "T5", "T6", "T7"]


@pytest.fixture
def dialogue_timeline():
    return Timeline.of("tl", DIALOGUE_POINTS, unit="ms")


def test_compare_points_follows_document_order(dialogue_timeline):
    assert compare_points(dialogue_timeline, "T3", "T4") == "before"


def test_compare_points_identity(dialogue_timeline):
    assert compare_points(dialogue_timeline, "T4bar", "T4bar") == "equal"


def test_compare_points_with_offsets():
    tl = Timeline("tl", "ms", ("p1", "p2"), (100, 250))
    assert compare_points(tl, "p2", "p1") == "after"


def test_compare_points_unknown_id_names_the_id(dialogue_timeline):
    with pytest.raises(UnknownIdError) as exc:
        compare_points(dialogue_timeline, "T1", "T99")
    assert "T99" in str(exc.value)


def iv(start, end, tl="tl"):
    return EventInterval(start, end, tl)


def test_relation_overlaps(dialogue_timeline):
    assert relation(iv("T1", "T4"), iv("T3", "T6"), dialogue_timeline) is R.OVERLAPS


def test_relation_meets_on_shared_boundary(dialogue_timeline):
    assert relation(iv("T3", "T6"), iv("T6", "T7"), dialogue_timeline) is R.MEETS


def test_relation_equals(dialogue_timeline):
    assert relation(iv("T3", "T5"), iv("T3", "T5"), dialogue_timeline) is R.EQUALS


def test_relation_requires_one_timeline(dialogue_timeline):
    with pytest.raises(IncomparableIntervalsError):
        relation(iv("T1", "T2"), iv("T1", "T2", tl="other"), dialogue_timeline)


# Independent definitions of the thirteen relations, used as the oracle for
# the exhaustive check below.
ORACLE = {
    R.BEFORE: lambda s1, e1, s2, e2: e1 < s2,
    R.AFTER: lambda s1, e1, s2, e2: e2 < s1,
    R.MEETS: lambda s1, e1, s2, e2: e1 == s2,
    R.MET_BY: lambda s1, e1, s2, e2: e2 == s1,
    R.OVERLAPS: lambda s1, e1, s2, e2: s1 < s2 < e1 < e2,
    R.OVERLAPPED_BY: lambda s1, e1, s2, e2: s2 < s1 < e2 < e1,
    R.STARTS: lambda s1, e1, s2, e2: s1 == s2 and e1 < e2,
    R.STARTED_BY: lambda s1, e1, s2, e2: s1 == s2 and e2 < e1,
    R.DURING: lambda s1, e1, s2, e2: s2 < s1 and e1 < e2,
    R.CONTAINS: lambda s1, e1, s2, e2: s1 < s2 and e2 < e1,
    R.FINISHES: lambda s1, e1, s2, e2: e1 == e2 and s2 < s1,
    R.FINISHED_BY: lambda s1, e1, s2, e2: e1 == e2 and s1 < s2,
    R.EQUALS: lambda s1, e1, s2, e2: s1 == s2 and e1 == e2,
}


def proper_intervals(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n + 1)]


def test_exactly_one_relation_holds_exhaustively():
    for n in range(1, 6):
        for (s1, e1), (s2, e2) in itertools.product(proper_intervals(n), repeat=2):
            holding = [rel for rel, pred in ORACLE.items() if pred(s1, e1, s2, e2)]
            assert len(holding) == 1, f"{(s1, e1)} vs {(s2, e2)}: {holding}"
            assert relation_by_index(s1, e1, s2, e2) is holding[0]


def test_relation_inverts_under_argument_swap():
    for n in range(1, 6):
        for (s1, e1), (s2, e2) in itertools.product(proper_intervals(n), repeat=2):
            forward = relation_by_index(s1, e1, s2, e2)
            assert relation_by_index(s2, e2, s1, e1) is forward.inverse


def make_timed_doc(intervals, point_count=8):
    """A document with one annotation per (id, start, end) triple."""
    tl = Timeline.of("tl", [f"P{i}" for i in range(point_count)])
    annotations = tuple(
        Annotation(
            id=name,
            source="src",
            range=EventInterval(f"P{s}", f"P{e}", "tl"),
            qualifiers=(Qualifier("utterance", name),),
            layer="events",
        )
        for name, s, e in intervals
    )
    return Document(sources=(SourceRef("src"),), timelines=(tl,), annotations=annotations)


def brute_force_pairs(doc):
    """Oracle: classify every unordered pair by its temporal relation.

    Zero-length intervals are empty under half-open semantics and can share
    nothing, whatever the positional relation says.
    """
    tl = doc.primary_timeline
    timed = [
        a
        for a in doc.annotations
        if isinstance(a.range, EventInterval)
        and tl.index_of(a.range.start) < tl.index_of(a.range.end)
    ]
    out = set()
    for a, b in itertools.combinations(timed, 2):
        if relation(a.range, b.range, tl) in SHARING_RELATIONS:
            out.add(frozenset((a.id, b.id)))
    return out


def test_overlaps_report_on_dialogue_fixture():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    doc, _ = resolve_anchors(doc)
    report = overlaps_report(doc)
    pairs = {(p.a, p.b): (p.shared.start, p.shared.end) for p in report.pairs}
    assert pairs == {
        ("u1", "u2"): ("T3", "T4"),
        ("u1", "incident1"): ("T3", "T4"),
        ("incident1", "u2"): ("T3", "T5"),
    }
    # (u2, u3) meet at T6 and must not be reported
    assert {frozenset(p) for p in pairs} == brute_force_pairs(doc)
    assert report.skipped == 0


def test_overlaps_report_leaves_no_reference_cycle():
    doc, _ = resolve_anchors(parse_document(fixture_bytes("anchored_dialogue.xml"))[0])
    assert cyclic_garbage(lambda: overlaps_report(doc)) == 0


def test_overlaps_report_single_utterance():
    doc = make_timed_doc([("u1", 0, 3)])
    assert overlaps_report(doc).pairs == ()


def test_overlaps_report_unanchored_document():
    doc = make_timed_doc([])
    doc = doc._replace(
        annotations=tuple(
            Annotation(
                id=f"u{i}",
                source="src",
                range=None,
                qualifiers=(Qualifier("utterance", ""),),
                layer="events",
            )
            for i in range(2)
        ),
    )
    sequenced = sequence_implicit(doc)
    assert overlaps_report(sequenced).pairs == ()


def test_overlaps_report_matches_brute_force_on_dense_fixture():
    intervals = [
        ("a", 0, 4), ("b", 1, 3), ("c", 3, 6), ("d", 4, 7), ("e", 0, 7), ("f", 2, 2),
    ]
    doc = make_timed_doc(intervals)
    report = overlaps_report(doc)
    assert {frozenset((p.a, p.b)) for p in report.pairs} == brute_force_pairs(doc)
    # symmetric closure and irreflexivity
    assert all(p.a != p.b for p in report.pairs)
    seen = {(p.a, p.b) for p in report.pairs}
    assert not any((b, a) in seen for a, b in seen)


def test_overlaps_report_is_deterministically_ordered():
    intervals = [("late", 2, 6), ("early", 0, 3), ("mid", 1, 5)]
    doc = make_timed_doc(intervals)
    report = overlaps_report(doc)
    assert [(p.a, p.b) for p in report.pairs] == [
        ("early", "mid"),
        ("early", "late"),
        ("mid", "late"),
    ]


def test_sequence_implicit_places_events_after_anchored_material():
    doc = make_timed_doc([("u1", 0, 3)], point_count=4)
    doc = doc._replace(
        annotations=doc.annotations
        + (
            Annotation(
                id="u2",
                source="src",
                range=None,
                qualifiers=(Qualifier("utterance", "later"),),
                layer="events",
            ),
        ),
    )
    sequenced = sequence_implicit(doc)
    u2 = sequenced.annotation("u2")
    assert u2.range is not None
    tl = sequenced.primary_timeline
    assert u2.range.start.startswith("~auto")
    assert u2.range.start in tl.synthetic
    assert relation(sequenced.annotation("u1").range, u2.range, tl) is R.BEFORE


def test_sequence_implicit_on_trailing_utterance_fixture():
    doc, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    doc, _ = resolve_anchors(doc)
    sequenced = sequence_implicit(doc)
    tl = sequenced.primary_timeline
    u3 = sequenced.annotation("u3")
    for other in ("u1", "u2"):
        assert relation(sequenced.annotation(other).range, u3.range, tl) is R.BEFORE


def test_sequence_implicit_is_identity_on_fully_anchored_documents():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    doc, _ = resolve_anchors(doc)
    assert sequence_implicit(doc) is doc


def test_sequence_implicit_mints_only_ids_the_timeline_does_not_hold():
    declared = ("~auto2", "~auto4", "~auto7")
    unanchored = tuple(
        Annotation(
            id=f"u{n}",
            source="src",
            range=None,
            qualifiers=(Qualifier("utterance", "x"),),
            layer="events",
        )
        for n in (1, 2)
    )
    doc = Document(
        sources=(SourceRef("src"),),
        timelines=(Timeline.of("tl", declared),),
        annotations=unanchored,
    )
    sequenced = sequence_implicit(doc)
    # The count starts after the three declared ``~auto`` ids, at 4.
    assert [(a.range.start, a.range.end) for a in sequenced.annotations] == [
        ("~auto5", "~auto6"),
        ("~auto8", "~auto9"),
    ]
    tl = sequenced.primary_timeline
    assert tl.ids == declared + ("~auto5", "~auto6", "~auto8", "~auto9")
    assert tl.synthetic == {"~auto5", "~auto6", "~auto8", "~auto9"}


def test_sequence_implicit_is_idempotent():
    doc, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    doc, _ = resolve_anchors(doc)
    once = sequence_implicit(doc)
    assert sequence_implicit(once) == once


def test_overlaps_report_never_pairs_across_timelines():
    tl_a = Timeline.of("tlA", ["a0", "a1", "a2"])
    tl_b = Timeline.of("tlB", ["b0", "b1", "b2"])
    doc = Document(
        sources=(SourceRef("src"),),
        timelines=(tl_a, tl_b),
        annotations=(
            Annotation(
                id="onA",
                source="src",
                range=EventInterval("a0", "a2", "tlA"),
                qualifiers=(Qualifier("utterance", "x"),),
                layer="events",
            ),
            Annotation(
                id="onB",
                source="src",
                range=EventInterval("b0", "b2", "tlB"),
                qualifiers=(Qualifier("utterance", "y"),),
                layer="events",
            ),
        ),
    )
    assert overlaps_report(doc).pairs == ()



def all_pairs_overlaps(doc):
    """Reference: compare every pair of resolved annotations.

    An interval lies on the first timeline with its id whose point list holds
    both its points, found by position, so the reference does not rely on the
    timeline's id index either. Only annotations on one timeline object pair.
    """
    resolved = []
    skipped = 0
    for ann in doc.annotations:
        rng = ann.range
        tl = next(
            (
                t
                for t in doc.timelines
                if isinstance(rng, EventInterval)
                and t.id == rng.timeline
                and rng.start in t.ids
                and rng.end in t.ids
            ),
            None,
        )
        if tl is None:
            skipped += 1
            continue
        ids = list(tl.ids)
        resolved.append((ids.index(rng.start), ids.index(rng.end), ann.id, tl))
    resolved.sort(key=lambda item: item[:3])
    pairs = []
    for i, (s1, e1, id1, tl1) in enumerate(resolved):
        for s2, e2, id2, tl2 in resolved[i + 1 :]:
            start, end = max(s1, s2), min(e1, e2)
            if tl1 is tl2 and start < end:
                pairs.append((id1, id2, tl1.ids[start], tl1.ids[end], tl1.id))
    return pairs, skipped


TIMELINE_A = Timeline.of("tlA", [f"a{i}" for i in range(6)])
TIMELINE_B = Timeline.of("tlB", [f"b{i}" for i in range(5)])
TIMELINE_B_SHARED = Timeline.of("tlA", TIMELINE_B.ids)
UNRESOLVABLE = (
    EventInterval("a0", "zz", "tlA"),
    EventInterval("b9", "b1", "tlB"),
    EventInterval("a0", "a1", "tlX"),
    EventInterval("a1", "b2", "tlA"),  # one point on each timeline
)


def random_range(rand: random.Random, n: int, timelines):
    kind = rand.random()
    if kind < 0.75:
        tl = rand.choice(timelines)
        start, end = rand.randrange(len(tl.ids)), rand.randrange(len(tl.ids))
        if rand.random() < 0.7:
            start, end = sorted((start, end))
        return EventInterval(tl.ids[start], tl.ids[end], tl.id)
    if kind < 0.82:
        return rand.choice(UNRESOLVABLE)
    if kind < 0.89:
        return ScaleInterval(0, rand.randint(0, 3))
    if kind < 0.96:
        return ComponentRefs((f"t{n}",))
    return None


def random_overlap_doc(rand: random.Random, timelines) -> Document:
    """Events on two timelines over few points, so ties and empty spans are common."""
    annotations = tuple(
        Annotation(
            id=f"e{rand.randrange(30):02d}",
            source="src",
            range=random_range(rand, n, timelines),
            qualifiers=(Qualifier("utterance", ""),),
            layer="events",
        )
        for n in range(rand.randint(0, 24))
    )
    return Document(
        sources=(SourceRef("src"),),
        timelines=timelines,
        annotations=annotations,
    )


def shapes_of(doc, report):
    """Which of the shapes the random documents must cover this document has."""
    second = doc.timelines[1]
    ranked = sorted(
        (tl.index_of(a.range.start), tl.index_of(a.range.end), n)
        for a in doc.annotations
        for n, tl in enumerate(doc.timelines)
        if isinstance(a.range, EventInterval)
        and a.range.timeline == tl.id
        and a.range.start in tl
        and a.range.end in tl
    )
    timeline_order = [n for _, _, n in ranked]
    switches = sum(a != b for a, b in zip(timeline_order, timeline_order[1:]))
    non_event = sum(not isinstance(a.range, EventInterval) for a in doc.annotations)
    shapes = {
        "interleaved": switches >= 2,
        "zero-length": any(s == e for s, e, _ in ranked),
        "tie": len(ranked) != len(set(ranked)),
        "unknown": report.skipped > non_event,
        "scale": any(isinstance(a.range, ScaleInterval) for a in doc.annotations),
        "component": any(isinstance(a.range, ComponentRefs) for a in doc.annotations),
        "pairs on each timeline": {row[2] in second for row in report.rows} == {False, True},
    }
    return {name for name, present in shapes.items() if present}


def test_overlaps_report_matches_all_pairs_reference_on_random_documents():
    # The second variant puts the second timeline under the first one's id.
    for timelines in ((TIMELINE_A, TIMELINE_B), (TIMELINE_A, TIMELINE_B_SHARED)):
        rand = random.Random(20111017)
        seen = set()
        for _ in range(400):
            doc = random_overlap_doc(rand, timelines)
            report = overlaps_report(doc)
            got = [
                (p.a, p.b, p.shared.start, p.shared.end, p.shared.timeline) for p in report.pairs
            ]
            assert (got, report.skipped) == all_pairs_overlaps(doc)
            # The pairs are built from plain tuple rows, which hold the same values.
            assert report.rows == tuple(got)
            assert all(type(row) is tuple for row in report.rows)
            seen |= shapes_of(doc, report)
        assert seen == {
            "interleaved", "zero-length", "tie", "unknown", "scale", "component",
            "pairs on each timeline",
        }


def test_overlaps_report_finds_intervals_on_the_second_of_two_timelines_sharing_an_id():
    doc, _ = parse_document(
        b'<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc>'
        b"<titleStmt><title>t</title></titleStmt><publicationStmt><p>p</p></publicationStmt>"
        b"<sourceDesc><p>s</p></sourceDesc></fileDesc></teiHeader><text>"
        b'<timeline xml:id="tl"><when xml:id="a"/><when xml:id="b"/></timeline>'
        b'<timeline xml:id="tl"><when xml:id="c"/><when xml:id="d"/><when xml:id="e"/></timeline>'
        b'<body><u xml:id="u1"><anchor synch="#c"/>Hi <anchor synch="#e"/></u>'
        b'<u xml:id="u2"><anchor synch="#c"/>Ho <anchor synch="#d"/></u></body></text></TEI>'
    )
    doc, _ = resolve_anchors(doc)
    report = overlaps_report(doc)
    assert (report.rows, report.skipped) == ((("u2", "u1", "c", "d", "tl"),), 0)
