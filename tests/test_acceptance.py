"""Acceptance suite: one test per release criterion.

Each criterion prints a single pass line when it holds (run with ``-s`` to
see them); a failing criterion fails its test. Expected values are frozen
from independent oracles computed alongside the assertions.
"""

from __future__ import annotations

import itertools
import random
import time

from spokenkit.core import (
    EventInterval,
    Qualifier,
    TemporalRelation,
    overlaps_report,
    relation,
    relation_by_index,
)
from spokenkit.core.temporal import SHARING_RELATIONS
from spokenkit.datacat import LANGUAGE_RESTRICTED, OK, load_registry
from spokenkit.featstruct import (
    EMPTY,
    FeatureStructure,
    Symbol,
    UnificationFailure,
    resolve_tag,
    subsumes,
    unify,
)
from spokenkit.tei import (
    Utterance,
    Vocal,
    build_document_library,
    extract_spans,
    parse_document,
    promote_conventions,
    resolve_ana,
    resolve_anchors,
    serialize_document,
)
from spokenkit.tier import TierDocument, from_core, parse_tier, serialize_tier, to_core
from spokenkit.validate import check_ids, validate_all
from tests.conftest import fixture_bytes
from tests.test_featstruct import random_structure, value_at
from tests.test_tier import random_tier_document

PID = "http://dcr.example.org/"


def ok(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS - {message}")


def test_criterion_01_dialogue_round_trip():
    start = time.perf_counter()
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    reparsed, _ = parse_document(serialize_document(doc))
    elapsed = time.perf_counter() - start

    assert reparsed == doc
    assert len(doc.metadata.participants) == 2
    assert len(doc.primary_timeline.ids) == 8
    utterances = [i for i in doc.body if isinstance(i, Utterance)]
    assert len(utterances) == 3
    incidents = [a for a in doc.annotations if a.qualifiers[0].feature == "incident"]
    assert len(incidents) == 1
    assert elapsed < 1.0
    ok(1, f"anchored-dialogue round-trip structurally equal in {elapsed * 1000:.0f} ms")


def test_criterion_02_dialogue_overlap_report():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    doc, _ = resolve_anchors(doc)
    report = overlaps_report(doc)

    pairs = {frozenset((p.a, p.b)): (p.shared.start, p.shared.end) for p in report.pairs}
    assert pairs == {
        frozenset(("u1", "u2")): ("T3", "T4"),
        frozenset(("u1", "incident1")): ("T3", "T4"),
        frozenset(("u2", "incident1")): ("T3", "T5"),
    }
    assert frozenset(("u2", "u3")) not in pairs  # they meet at T6

    # brute-force O(n^2) oracle over the relation classification
    timeline = doc.primary_timeline
    timed = [a for a in doc.annotations if isinstance(a.range, EventInterval)]
    oracle = {
        frozenset((a.id, b.id))
        for a, b in itertools.combinations(timed, 2)
        if relation(a.range, b.range, timeline) in SHARING_RELATIONS
    }
    assert set(pairs) == oracle
    ok(2, "dialogue overlaps are exactly the 3 expected pairs, matching the pairwise oracle")


def test_criterion_03_tagset_expansion():
    expected = FeatureStructure(
        {
            "partOfSpeech": Symbol("commonNoun"),
            "grammaticalGender": Symbol("masculine"),
            "grammaticalNumber": Symbol("singular"),
        }
    )
    tags_doc, _ = parse_document(fixture_bytes("tags.xml"))
    lib = build_document_library(tags_doc)
    assert resolve_tag(lib, "Ncms__") == expected

    sentence_doc, _ = parse_document(fixture_bytes("tagged_sentence.xml"))
    w = next(
        item
        for u in sentence_doc.body
        if isinstance(u, Utterance)
        for item in u.content
        if getattr(item, "ana", None) is not None
    )
    assert w.text == "chat"
    assert resolve_ana(sentence_doc, None, w.ana) == expected
    ok(3, "Ncms__ expands to the three expected feature-value pairs, for the tag and for @ana")


def test_criterion_04_language_restriction():
    registry = load_registry(fixture_bytes("registry.tsv"))
    gender = PID + "grammaticalGender"
    neuter = PID + "neuter"
    assert registry.validate_value(gender, neuter, "fr") == LANGUAGE_RESTRICTED
    assert registry.validate_value(gender, neuter) == OK
    assert registry.validate_value(gender, neuter, "de") == OK
    ok(4, "neuter is restricted for fr and accepted without language or for de")


def test_criterion_05_span_extraction():
    doc, _ = parse_document(fixture_bytes("pomme.xml"))
    word_forms, findings = extract_spans(doc)
    assert findings == []
    (wf,) = word_forms
    assert set(wf.tokens) == {"t1", "t2", "t3"}
    assert wf.orth == "pomme de terre"
    assert Qualifier("number", "singular") in wf.qualifiers

    shared_doc, _ = parse_document(fixture_bytes("shared_token.xml"))
    shared_forms, shared_findings = extract_spans(shared_doc)
    assert shared_findings == []
    assert len(shared_forms) == 2
    assert set(shared_forms[0].tokens) & set(shared_forms[1].tokens) == {"t2"}
    ok(5, "word form covers tokens t1..t3 with orth and number; shared tokens are legal")


def test_criterion_06_convention_promotion():
    original = "Alors ça dépend ((cough)) un petit peu."
    utterance = Utterance(id="u1", content=(original,))
    promoted, findings = promote_conventions(utterance)
    assert findings == []
    assert promoted.content == (
        "Alors ça dépend ",
        Vocal(desc="cough"),
        " un petit peu.",
    )
    before, after = original.split("((cough))")
    assert promoted.content[0] == before
    assert promoted.content[2] == after
    again, _ = promote_conventions(promoted)
    assert again == promoted
    ok(6, "((cough)) promotes to a vocal element with surrounding text byte-exact, idempotently")


def test_criterion_07_defect_detection():
    inline, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    dup_issues = [i for i in check_ids(inline) if i.code == "DUP_ID"]
    assert [(i.code, i.location) for i in dup_issues] == [("DUP_ID", "tp2u")]

    category, _ = parse_document(fixture_bytes("category_flib.xml"))
    bad_issues = [i for i in check_ids(category) if i.code == "BAD_ID"]
    assert [(i.code, i.location) for i in bad_issues] == [("BAD_ID", "#NC")]

    dialogue, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    report = validate_all(dialogue)
    assert report.errors == () and report.warnings == ()
    ok(7, "one DUP_ID (tp2u), one BAD_ID (#NC), anchored dialogue entirely clean")


def test_criterion_08_unification_property_suite():
    rng = random.Random(0xFEA7)
    structures = [random_structure(rng) for _ in range(12_000)]
    assert len(structures) >= 10_000
    checked = 0
    for a, b in zip(structures[::2], structures[1::2]):
        forward = unify(a, b)
        backward = unify(b, a)
        failed = isinstance(forward, UnificationFailure)
        assert failed == isinstance(backward, UnificationFailure)
        if failed:
            left = value_at(a, forward.path)
            right = value_at(b, forward.path)
            assert left is not None and right is not None
            assert left != right or type(left) is not type(right)
        else:
            assert forward == backward
            assert subsumes(a, forward) and subsumes(b, forward)
        assert unify(a, EMPTY) == a and unify(EMPTY, b) == b
        checked += 1
    assert checked == 6_000
    ok(8, f"unification properties hold on {len(structures)} random structures, no counterexamples")


def test_criterion_09_interval_algebra_exhaustive():
    pairs_checked = 0
    for point_count in range(2, 7):
        intervals = [
            (i, j) for i in range(point_count) for j in range(i + 1, point_count)
        ]
        for (s1, e1), (s2, e2) in itertools.product(intervals, repeat=2):
            holding = [
                rel
                for rel, pred in _ALLEN_ORACLE.items()
                if pred(s1, e1, s2, e2)
            ]
            assert len(holding) == 1
            computed = relation_by_index(s1, e1, s2, e2)
            assert computed is holding[0]
            assert relation_by_index(s2, e2, s1, e1) is computed.inverse
            pairs_checked += 1
    assert pairs_checked == sum(
        (n * (n - 1) // 2) ** 2 for n in range(2, 7)
    )
    ok(9, f"exactly one of 13 relations holds and inverts correctly on {pairs_checked} pairs")


_ALLEN_ORACLE = {
    TemporalRelation.BEFORE: lambda s1, e1, s2, e2: e1 < s2,
    TemporalRelation.AFTER: lambda s1, e1, s2, e2: e2 < s1,
    TemporalRelation.MEETS: lambda s1, e1, s2, e2: e1 == s2,
    TemporalRelation.MET_BY: lambda s1, e1, s2, e2: e2 == s1,
    TemporalRelation.OVERLAPS: lambda s1, e1, s2, e2: s1 < s2 < e1 < e2,
    TemporalRelation.OVERLAPPED_BY: lambda s1, e1, s2, e2: s2 < s1 < e2 < e1,
    TemporalRelation.STARTS: lambda s1, e1, s2, e2: s1 == s2 and e1 < e2,
    TemporalRelation.STARTED_BY: lambda s1, e1, s2, e2: s1 == s2 and e2 < e1,
    TemporalRelation.DURING: lambda s1, e1, s2, e2: s2 < s1 and e1 < e2,
    TemporalRelation.CONTAINS: lambda s1, e1, s2, e2: s1 < s2 and e2 < e1,
    TemporalRelation.FINISHES: lambda s1, e1, s2, e2: e1 == e2 and s2 < s1,
    TemporalRelation.FINISHED_BY: lambda s1, e1, s2, e2: e1 == e2 and s1 < s2,
    TemporalRelation.EQUALS: lambda s1, e1, s2, e2: s1 == s2 and e1 == e2,
}


def test_criterion_10_tier_round_trip():
    rng = random.Random(0x71E12)
    from spokenkit.core import Timeline

    for _ in range(100):
        td = random_tier_document(rng)
        doc = to_core(td)
        converted, residue = from_core(doc)
        assert residue == []
        assert converted == TierDocument(td.speakers, td.point_ids, td.offsets, td.tiers)
        assert parse_tier(serialize_tier(td)) == td

        timeline = doc.primary_timeline
        reference = Timeline.of("ref", td.point_ids)
        events = [
            (f"{tier.id}_e{n}", start, end)
            for tier in td.tiers
            for n, (start, end, _) in enumerate(tier.events, start=1)
        ]
        for (id_a, start_a, end_a), (id_b, start_b, end_b) in itertools.combinations(events, 2):
            direct = relation(
                EventInterval(start_a, end_a, "ref"),
                EventInterval(start_b, end_b, "ref"),
                reference,
            )
            assert (
                relation(doc.annotation(id_a).range, doc.annotation(id_b).range, timeline)
                is direct
            )
    ok(10, "100 random tier documents convert losslessly with invariant temporal relations")


def test_criterion_11_seg_statistics():
    from spokenkit.tei import seg_stats

    doc, _ = parse_document(fixture_bytes("seg.xml"))
    assert seg_stats(doc) == {"sentence": 1, "phrase": 3, "word": 12, "punct": 1}
    ok(11, "segment statistics are sentence:1 phrase:3 word:12 punct:1")
