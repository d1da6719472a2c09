from __future__ import annotations

import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spokenkit.tei.parser
import spokenkit.validate
from spokenkit.core import (
    Annotation,
    ComponentRefs,
    Document,
    EventInterval,
    Qualifier,
    Timeline,
    UnknownIdError,
)
from spokenkit.datacat import load_registry
from spokenkit.featstruct import FeatureStructure, Symbol, TagsetError
from spokenkit.tei import (
    attach_word_forms,
    build_document_library,
    extract_spans,
    parse_document,
    resolve_ana,
    resolve_anchors,
    serialize_document,
)
from spokenkit.tei.parser import analysis_targets
from spokenkit.validate import (
    ANCHOR_ORDER,
    BAD_ID,
    DANGLING_REF,
    DOMAIN_VIOLATION,
    DUP_ID,
    LEVEL_INCOHERENT,
    OFFSET_ORDER,
    SPAN_ORDER,
    TAGSET_ERROR,
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


def test_every_whitespace_code_point_anywhere_in_an_identifier_is_flagged():
    """Each code point that ``str.isspace`` accepts flags an identifier,
    leading, inner or trailing; no other code point of the Basic
    Multilingual Plane does."""
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    flagged = [raw for c in spaces for raw in (c, f"{c}a", f"a{c}b", f"a{c}")]
    clean = [f"a{chr(n)}b" for n in range(0x10000) if not chr(n).isspace() and chr(n) != "#"]
    doc = Document(declared_ids=tuple((raw, "w") for raw in flagged + clean))
    found = [(i.code, i.location) for i in check_ids(doc)]
    assert sorted(found) == sorted((BAD_ID, raw) for raw in flagged)


def test_one_malformed_identifier_among_clean_ones_is_flagged():
    """``check_ids`` tests all identifiers in one search before it looks at
    any one; a single bad identifier among clean ones must still show."""
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    clean = (("u1", "u"), ("w1", "w"), ("T1", "when"))
    cases = [((f"a{c}b", "w"), (BAD_ID, f"a{c}b")) for c in spaces]
    cases += [
        (("a#b", "w"), (BAD_ID, "a#b")),
        (("", "seg"), (BAD_ID, "seg")),
        (("w1", "w"), (DUP_ID, "w1")),
    ]
    for declared, finding in cases:
        doc = Document(declared_ids=clean + (declared,))
        assert [(i.code, i.location) for i in check_ids(doc)] == [finding]
        assert [(i.code, i.location) for i in validate_all(doc).issues] == [finding]


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


def test_dangling_pc_ana_reference_is_checked_and_written_back():
    data = fixture_bytes("tagged_sentence.xml").replace(b"<pc>", b'<pc ana="#nope">')
    doc, _ = parse_document(data)
    issues = validate_all(doc).issues
    assert codes(issues) == [DANGLING_REF, UNKNOWN_TAG]
    assert all("'nope'" in issue.message for issue in issues)
    assert b'<pc ana="#nope">.</pc>' in serialize_document(doc)


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
    stripped = stripped._replace(
        annotations=stripped.annotations + tuple(word_forms),
        layers=doc.layers,
        levels=doc.levels,
    )
    issues = [i for i in check_refs(stripped) if i.code == DANGLING_REF]
    assert any("t2" in i.message for i in issues)



def test_component_targets_are_tokens_for_word_forms_and_any_id_otherwise(pomme_doc):
    from spokenkit.core import WordForm
    from spokenkit.tei import attach_word_forms

    doc, _ = attach_word_forms(pomme_doc)
    utterance = pomme_doc.body[0].id
    extra = tuple(
        cls(
            id=f"{cls.__name__}{n}",
            source=doc.sources[0].id,
            range=ComponentRefs((target,)),
            qualifiers=(Qualifier("wordForm", "x"),),
            layer=doc.layers[-1].id,
        )
        for cls in (Annotation, WordForm)
        for n, target in enumerate(("t2", utterance, "ghost"))
    )
    issues = check_refs(doc._replace(annotations=doc.annotations + extra))
    assert [(i.location, i.message) for i in issues] == [
        ("Annotation2", "@target reference 'ghost' resolves to nothing"),
        ("WordForm1", f"@tokens reference {utterance!r} resolves to nothing"),
        ("WordForm2", "@tokens reference 'ghost' resolves to nothing"),
    ]


def test_app_info_targets_resolve_to_any_identifier():
    from tests.test_tei_roundtrip import RICH_HEADER

    data = RICH_HEADER.replace(b'<ptr target="#u1"/>', b'<ptr target="#u1"/><ptr target="#ghost"/>')
    doc, _ = parse_document(data)
    assert [(i.location, i.message) for i in check_refs(doc)] == [
        ("aligner", "@target reference 'ghost' resolves to nothing"),
    ]


def test_app_info_targets_match_an_identifier_with_one_hash_dropped():
    # "##x" declares "#x", as every reference reads it, and no "x".
    from tests.test_tei_roundtrip import RICH_HEADER

    data = RICH_HEADER.replace(
        b'<ptr target="#u1"/>', b'<ptr target="#u1"/><ptr target="#x"/><ptr target="##x"/>'
    ).replace(b"Bonjour.", b'<w xml:id="##x">Bonjour</w>.')
    doc, _ = parse_document(data)
    assert [(i.location, i.message) for i in check_refs(doc)] == [
        ("aligner", "@target reference 'x' resolves to nothing"),
    ]


def test_known_ids_are_built_only_for_references_that_may_name_any_identifier(monkeypatch):
    # The tagged fixtures have no appInfo target and no component range
    # other than word forms, so nothing reads the set of every identifier.
    def unread(doc, token_ids):
        raise AssertionError("the set of every identifier was built")

    monkeypatch.setattr(spokenkit.validate, "_known_ids", unread)
    for name in ("tagged_neuter.xml", "tagged_sentence.xml", "tags.xml"):
        doc, _ = parse_document(fixture_bytes(name))
        for checked in (doc, attach_word_forms(doc)[0]):
            validate_all(checked)
            validate_all(checked, ValidateOptions(library=build_document_library(doc)))


def test_validate_all_builds_the_document_library_once(monkeypatch):
    built = []

    def counting(doc):
        built.append(doc)
        return build_document_library(doc)

    monkeypatch.setattr(spokenkit.tei.parser, "build_document_library", counting)
    doc, _ = parse_document(fixture_bytes("tagged_neuter.xml"))
    validate_all(doc)
    assert len(built) == 1

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
    offsets = (500, 100) + tl.offsets[2:]
    doc = doc._replace(timelines=(tl._replace(offsets=offsets),))
    issues = check_temporal(doc)
    assert codes(issues) == [OFFSET_ORDER]


def test_equal_offsets_are_not_flagged():
    tl = Timeline("tl", "ms", ("a", "b"), (100, 100))
    from spokenkit.core import Document

    assert check_temporal(Document(timelines=(tl,))) == []


def offset_order_reference(doc: Document) -> list[tuple[str, str, str]]:
    """(code, location, message) of each point whose offset is below the
    offset of the nearest earlier point that has one, timeline by timeline."""
    found = []
    for tl in doc.timelines:
        earlier = None
        for pid, offset in zip(tl.ids, tl.offsets):
            if offset is None:
                continue
            if earlier is not None and earlier[1] > offset:
                message = (
                    f"offset of {pid!r} ({offset}) is smaller than "
                    f"offset of earlier point {earlier[0]!r} ({earlier[1]})"
                )
                found.append((OFFSET_ORDER, pid, message))
            earlier = (pid, offset)
    return found


# Few distinct offsets, so that equal neighbours and decreases are both drawn often.
OFFSET_COLUMNS = st.lists(
    st.lists(st.one_of(st.none(), st.integers(0, 4), st.just(Decimal("2.5"))), max_size=8),
    max_size=3,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(OFFSET_COLUMNS)
def test_offset_order_findings_are_those_of_a_pairwise_loop(columns):
    timelines = tuple(
        Timeline(f"tl{k}", "ms", tuple(f"p{k}_{n}" for n in range(len(col))), tuple(col))
        for k, col in enumerate(columns)
    )
    doc = Document(timelines=timelines)
    found = [(i.code, i.location, i.message) for i in check_temporal(doc)]
    assert found == offset_order_reference(doc)


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


def test_inconsistent_document_tagset_leaves_its_tags_unresolved_in_both_checks():
    data = fixture_bytes("tagged_sentence.xml").replace(b'feats="#NC #mas #sing"', b'feats="#mas #neu"')
    doc, _ = parse_document(data)
    assert [(i.code, i.location) for i in validate_all(doc).issues] == [
        (DANGLING_REF, "w3"),
        (TAGSET_ERROR, "back"),
        (UNKNOWN_TAG, "w3"),
    ]
    with pytest.raises(TagsetError):
        resolve_ana(doc, None, "Ncms__")


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


def test_a_point_on_the_second_of_two_timelines_sharing_an_id_resolves():
    doc = text_doc(
        b'<timeline xml:id="tl"><when xml:id="a"/><when xml:id="b"/></timeline>'
        b'<timeline xml:id="tl"><when xml:id="c"/><when xml:id="d"/></timeline>'
        b'<body><u xml:id="u1"><anchor synch="#c"/>Hi <anchor synch="#d"/></u></body>'
    )
    resolved, _ = resolve_anchors(doc)
    assert resolved.annotations[0].range == EventInterval("c", "d", "tl")
    for checked in (doc, resolved):
        assert [(i.code, i.location) for i in validate_all(checked).issues] == [(DUP_ID, "tl")]


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


def test_inline_vocal_references_are_checked_at_its_utterance():
    doc = text_doc(
        b'<body><u xml:id="u1">a <vocal who="#nobody" start="#T9"><desc>laughs</desc></vocal>'
        b" b</u></body>"
    )
    assert [(i.code, i.location, i.message) for i in validate_all(doc).issues] == [
        (DANGLING_REF, "u1", "@start reference 'T9' resolves to nothing"),
        (DANGLING_REF, "u1", "@who reference 'nobody' resolves to nothing"),
    ]


@pytest.mark.parametrize(
    "body, location",
    [
        # An inline event's generated id is never written, so its body item locates it.
        (b'<u xml:id="u1">a <kinesic who="#nobody"/> b</u>', "u1"),
        (b'<u xml:id="u1">a <vocal xml:id="v1" who="#nobody"/> b</u>', "v1"),
        # A free-standing event is located at its annotation id, generated or not.
        (b'<kinesic who="#nobody"/>', "kinesic1"),
        (b'<vocal xml:id="v1" who="#nobody"/>', "v1"),
    ],
)
def test_event_findings_are_located_at_an_identifier_of_the_document(body, location):
    doc = text_doc(b"<body>" + body + b"</body>")
    assert [(i.code, i.location) for i in validate_all(doc).issues] == [(DANGLING_REF, location)]


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
    doc = doc._replace(annotations=doc.annotations + (rogue,))
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


# ---------------------------------------------------------------- analysis references

# One invented reference of each kind: what its target is, or None.
ANALYSIS_REFS = {"T1": "tag", "fs1": "structure", "lf1": "form", "nothing": None}

ANALYSIS_BACK = (
    b'<back><fLib><f name="pos" xml:id="N"><symbol value="noun"/></f></fLib>'
    b'<fvLib><fs feats="#N" xml:id="T1"/></fvLib>'
    b'<fs xml:id="fs1"><f name="pos"><symbol value="verb"/></f></fs>'
    b'<entry><form xml:id="lf1"><orth>cc</orth></form></entry>'
)


def test_every_consumer_agrees_on_what_an_analysis_reference_resolves_to():
    words = b"".join(
        b'<w ana="#%s" xml:id="w_%s">x</w>' % (ref.encode(), ref.encode()) for ref in ANALYSIS_REFS
    )
    spans = b"".join(
        b'<span ana="#%s" from="#w_%s" to="#w_%s" xml:id="s_%s"/>' % ((ref.encode(),) * 4)
        for ref in ANALYSIS_REFS
    )
    doc = text_doc(
        b'<body><u xml:id="u1">' + words + b"</u></body>"
        + ANALYSIS_BACK + b"<spanGrp>" + spans + b"</spanGrp></back>"
    )
    dangling = {i.location for i in check_refs(doc)}
    unknown = {i.location for i in check_tagset(doc)}
    word_forms, findings = extract_spans(doc)
    unresolved_spans = {f.location for f in findings}
    lex_refs = {wf.id: wf.lex_ref for wf in word_forms}
    for ref, kind in ANALYSIS_REFS.items():
        resolves = kind is not None
        for location in (f"w_{ref}", f"s_{ref}"):
            assert (location in dangling) is not resolves, location
            assert (location in unknown) is not resolves, location
        assert (f"s_{ref}" in unresolved_spans) is not resolves, ref
        assert (lex_refs[f"s_{ref}"] == ref) is (kind == "form"), ref
        if kind in ("tag", "structure"):
            assert isinstance(resolve_ana(doc, None, ref), FeatureStructure)
        else:
            with pytest.raises(UnknownIdError):
                resolve_ana(doc, None, ref)


def test_a_tag_outranks_a_structure_and_a_structure_a_form_of_the_same_id():
    doc = text_doc(
        b"<body/>" + ANALYSIS_BACK
        + b'<fs xml:id="T1"><f name="pos"><symbol value="verb"/></f></fs>'
        + b'<entry><form xml:id="T1"><orth>t</orth></form><form xml:id="fs1"><orth>f</orth></form>'
        + b"</entry></back>"
    )
    targets = analysis_targets(doc)
    assert targets["T1"] == FeatureStructure({"pos": Symbol("noun")})
    assert targets["fs1"] == FeatureStructure({"pos": Symbol("verb")})
