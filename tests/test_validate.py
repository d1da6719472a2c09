from __future__ import annotations

from dataclasses import replace

import pytest

from spokenkit.core import (
    Annotation,
    ComponentRefs,
    Qualifier,
    TimePoint,
    Timeline,
)
from spokenkit.datacat import load_registry
from spokenkit.tei import parse_document
from spokenkit.validate import (
    ANCHOR_ORDER,
    BAD_ID,
    DANGLING_REF,
    DOMAIN_VIOLATION,
    DUP_ID,
    LEVEL_INCOHERENT,
    OFFSET_ORDER,
    SPAN_ORDER,
    UNKNOWN_TAG,
    ValidateOptions,
    check_ids,
    check_refs,
    check_span_order,
    check_tagset,
    check_temporal,
    validate_all,
)
from tests.conftest import fixture_bytes


@pytest.fixture
def registry():
    return load_registry(fixture_bytes("registry.tsv"))


def codes(issues):
    return [i.code for i in issues]


# ---------------------------------------------------------------- identifiers

def test_inline_anchor_listing_has_exactly_one_duplicate_id(inline_doc):
    issues = check_ids(inline_doc)
    assert [(i.code, i.location) for i in issues] == [(DUP_ID, "tp2u")]


def test_category_library_has_exactly_one_bad_id():
    doc, _ = parse_document(fixture_bytes("category_flib.xml"))
    issues = check_ids(doc)
    assert [(i.code, i.location) for i in issues] == [(BAD_ID, "#NC")]
    assert issues[0].severity == "warning"


def test_dialogue_has_no_id_issues(dialogue_doc):
    assert check_ids(dialogue_doc) == []


def test_whitespace_in_identifier_is_flagged():
    data = fixture_bytes("anchored_dialogue.xml").replace(b'xml:id="T4bar"', b'xml:id="T4 bar"')
    doc, _ = parse_document(data)
    assert (BAD_ID, "T4 bar") in [(i.code, i.location) for i in check_ids(doc)]


# ---------------------------------------------------------------- references

def test_dialogue_references_all_resolve(dialogue_doc):
    assert check_refs(dialogue_doc) == []


def test_dangling_synch_reference():
    data = fixture_bytes("anchored_dialogue.xml").replace(b'synch="#T7"', b'synch="#T99"')
    doc, _ = parse_document(data)
    issues = check_refs(doc)
    assert codes(issues) == [DANGLING_REF]
    assert "synch" in issues[0].message and "T99" in issues[0].message


def test_dangling_ana_reference():
    data = fixture_bytes("tagged_sentence.xml").replace(b'ana="#Ncms__"', b'ana="#NoSuchTag"')
    doc, _ = parse_document(data)
    issues = [i for i in check_refs(doc) if i.code == DANGLING_REF]
    assert len(issues) == 1
    assert "NoSuchTag" in issues[0].message


def test_dangling_who_reference():
    data = fixture_bytes("anchored_dialogue.xml").replace(b'who="#SPK0"', b'who="#GHOST"', 1)
    doc, _ = parse_document(data)
    issues = check_refs(doc)
    assert codes(issues) == [DANGLING_REF]
    assert "GHOST" in issues[0].message


def test_word_form_token_removal_leaves_dangling_reference(pomme_doc):
    from spokenkit.tei import attach_word_forms, extract_spans

    doc, _ = attach_word_forms(pomme_doc)
    assert check_refs(doc) == []
    # remove the middle token from a parsed variant; the word form keeps
    # pointing at it and the reference check must notice
    data = fixture_bytes("pomme.xml").replace(b'<w xml:id="t2">de</w> ', b"")
    stripped, _ = parse_document(data)
    word_forms, _ = extract_spans(pomme_doc)
    stripped = replace(
        stripped,
        annotations=stripped.annotations + tuple(word_forms),
        layers=doc.layers,
        levels=doc.levels,
    )
    issues = [i for i in check_refs(stripped) if i.code == DANGLING_REF]
    assert any("t2" in i.message for i in issues)


# ---------------------------------------------------------------- temporal

def test_dialogue_is_temporally_clean(dialogue_doc):
    assert check_temporal(dialogue_doc) == []


def test_decreasing_anchors_in_one_utterance():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<u who="#SPK0"><anchor synch="#T6"/>Ah oui?. <anchor synch="#T7"/></u>',
        b'<u who="#SPK0"><anchor synch="#T7"/>Ah oui?. <anchor synch="#T6"/></u>',
    )
    doc, _ = parse_document(data)
    issues = check_temporal(doc)
    assert codes(issues) == [ANCHOR_ORDER]
    assert issues[0].severity == "warning"


def test_offset_inversion_is_flagged():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    tl = doc.timelines[0]
    points = list(tl.points)
    points[0] = replace(points[0], offset=500)
    points[1] = replace(points[1], offset=100)
    doc = replace(doc, timelines=(replace(tl, points=tuple(points)),))
    issues = check_temporal(doc)
    assert codes(issues) == [OFFSET_ORDER]


def test_equal_offsets_are_not_flagged():
    tl = Timeline(
        "tl", "ms", (TimePoint("a", 0, offset=100), TimePoint("b", 1, offset=100))
    )
    from spokenkit.core import Document

    assert check_temporal(Document(timelines=(tl,))) == []


# ---------------------------------------------------------------- spans

def test_reversed_span_is_an_error():
    data = fixture_bytes("pomme.xml").replace(
        b'from="#t1" to="#t3"', b'from="#t3" to="#t1"'
    )
    doc, _ = parse_document(data)
    assert codes(check_span_order(doc)) == [SPAN_ORDER]


# ---------------------------------------------------------------- tagsets

def test_tagged_sentence_with_library_is_clean():
    doc, _ = parse_document(fixture_bytes("tagged_sentence.xml"))
    assert check_tagset(doc) == []


def test_unknown_analysis_reference():
    data = fixture_bytes("tagged_sentence.xml").replace(b'ana="#Ncms__"', b'ana="#Zzz"')
    doc, _ = parse_document(data)
    issues = check_tagset(doc)
    assert codes(issues) == [UNKNOWN_TAG]


def test_id_less_token_findings_share_the_utterance_location():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<u who="#SPK0"><anchor synch="#T6"/>Ah oui?. ',
        b'<u xml:id="u1" who="#SPK0"><anchor synch="#T6"/>'
        b'<seg xml:id="s1"><w ana="#nope">Ah</w></seg> oui?. ',
    )
    doc, _ = parse_document(data)
    assert [(i.code, i.location) for i in check_refs(doc)] == [(DANGLING_REF, "u1")]
    assert [(i.code, i.location) for i in check_tagset(doc)] == [(UNKNOWN_TAG, "u1")]


def test_neuter_with_french_restriction_violates_domain(registry):
    doc, _ = parse_document(fixture_bytes("tagged_neuter.xml"))
    issues = check_tagset(doc, registry=registry, language="fr")
    assert codes(issues) == [DOMAIN_VIOLATION]
    assert "neuter" in issues[0].message


def test_neuter_without_language_is_clean(registry):
    doc, _ = parse_document(fixture_bytes("tagged_neuter.xml"))
    assert check_tagset(doc, registry=registry) == []


def test_neuter_with_unrestricted_language_is_clean(registry):
    doc, _ = parse_document(fixture_bytes("tagged_neuter.xml"))
    assert check_tagset(doc, registry=registry, language="de") == []


# ---------------------------------------------------------------- validate_all

def test_dialogue_validates_cleanly(dialogue_doc):
    report = validate_all(dialogue_doc)
    assert report.errors == ()
    assert report.warnings == ()


def test_inline_anchor_listing_reports_duplicate_but_loads(inline_doc):
    report = validate_all(inline_doc)
    assert (DUP_ID, "tp2u") in [(i.code, i.location) for i in report.issues]
    assert report.has_errors


def test_empty_body_document_is_clean():
    doc, _ = parse_document(fixture_bytes("recording.xml"))
    assert validate_all(doc).issues == ()


def test_validate_all_is_idempotent(inline_doc):
    first = validate_all(inline_doc)
    second = validate_all(inline_doc)
    assert first == second


def test_issues_are_ordered_and_deduplicated():
    data = fixture_bytes("anchored_dialogue.xml").replace(b'synch="#T7"', b'synch="#T99"')
    data = data.replace(b'xml:id="T2"', b'xml:id="T1"')
    doc, _ = parse_document(data)
    report = validate_all(doc)
    severities = [i.severity for i in report.issues]
    assert severities == sorted(severities, key=lambda s: 0 if s == "error" else 1)
    keys = [(i.code, i.location) for i in report.issues]
    assert len(keys) == len(set(keys))


def text_doc(text: bytes):
    doc, _ = parse_document(
        b'<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc>'
        b"<titleStmt><title>t</title></titleStmt><publicationStmt><p>p</p></publicationStmt>"
        b"<sourceDesc><p>s</p></sourceDesc></fileDesc></teiHeader><text>" + text + b"</text></TEI>"
    )
    return doc


def test_distinct_findings_at_one_location_are_all_reported():
    doc = text_doc(b'<body><u xml:id="u1" who="#GHOST">Hi <anchor synch="#T9"/></u></body>')
    assert [(i.code, i.location, i.message) for i in validate_all(doc).issues] == [
        (DANGLING_REF, "u1", "@synch reference 'T9' resolves to nothing"),
        (DANGLING_REF, "u1", "@who reference 'GHOST' resolves to nothing"),
    ]


def test_empty_identifier_is_a_bad_id_and_findings_inside_it_are_located_at_body():
    doc = text_doc(
        b'<timeline><when xml:id="T1"/><when xml:id="T2"/></timeline><body>'
        b'<u xml:id="" who="#GHOST"><anchor synch="#T2"/>Hi <anchor synch="#T1"/>'
        b'<anchor synch="#T9"/></u></body>'
    )
    assert [(i.code, i.location) for i in validate_all(doc).issues] == [
        (DANGLING_REF, "body"),
        (DANGLING_REF, "body"),
        (ANCHOR_ORDER, "body"),
        (BAD_ID, "u"),
    ]


def test_severity_overrides_apply():
    doc, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    report = validate_all(
        doc, ValidateOptions(severity_overrides={DUP_ID: "warning"})
    )
    assert not report.has_errors
    assert any(i.code == DUP_ID and i.severity == "warning" for i in report.issues)


def test_level_incoherence_is_reported():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    rogue = Annotation(
        id="rogue",
        source="source1",
        range=ComponentRefs(("T1",)),
        qualifiers=(Qualifier("commentary", "out of band"),),
        layer="events",
    )
    doc = replace(doc, annotations=doc.annotations + (rogue,))
    report = validate_all(doc)
    assert (LEVEL_INCOHERENT, "rogue") in [(i.code, i.location) for i in report.issues]


def test_zero_issue_documents_stay_clean_after_round_trip(dialogue_doc):
    from spokenkit.tei import serialize_document

    reparsed, _ = parse_document(serialize_document(dialogue_doc))
    assert validate_all(reparsed).issues == ()


def test_report_formats():
    doc, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    report = validate_all(doc)
    text = report.to_text()
    assert "DUP_ID" in text and "error(s)" in text
    tsv = report.to_tsv()
    line = next(l for l in tsv.splitlines() if "DUP_ID" in l)
    assert line.split("\t")[:3] == ["error", "DUP_ID", "tp2u"]


def test_preserved_feature_name_typo_surfaces_against_registry(registry):
    # Feature names are matched exactly: a misspelt declaration is kept as
    # parsed and reported when it fails to co-resolve with the registered name.
    data = fixture_bytes("tagged_sentence.xml").replace(
        b'<f name="partOfSpeech" xml:id="NC">', b'<f name="partOfSPeech" xml:id="NC">'
    )
    doc, _ = parse_document(data)
    issues = check_tagset(doc, registry=registry)
    unknown = [i for i in issues if i.code == "UNKNOWN_CATEGORY"]
    assert any("partOfSPeech" in i.message for i in unknown)
    assert all(i.severity == "warning" for i in unknown)
