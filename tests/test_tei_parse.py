from __future__ import annotations

from decimal import Decimal

import pytest

from spokenkit.core import EventInterval, Finding, overlaps_report, sequence_implicit
from spokenkit.tei import (
    Kinesic,
    Metadata,
    OpaqueElement,
    Person,
    TeiParseError,
    Utterance,
    Vocal,
    W,
    parse_document,
    resolve_anchors,
    serialize_document,
)
from spokenkit.tei.model import content_items
from tests.conftest import fixture_bytes, header_tags

DIALOGUE_POINT_IDS = ["T1", "T2", "T3", "T4", "T4bar", "T5", "T6", "T7"]


def test_dialogue_structure(dialogue_doc):
    md = dialogue_doc.metadata
    assert [(p.id, p.name) for p in md.participants] == [
        ("SPK0", "Peter Black"),
        ("SPK1", "Judith White"),
    ]
    timeline = dialogue_doc.primary_timeline
    assert timeline.unit == "ms"
    assert list(timeline.ids) == DIALOGUE_POINT_IDS
    utterances = [item for item in dialogue_doc.body if isinstance(item, Utterance)]
    assert len(utterances) == 3
    incidents = [a for a in dialogue_doc.annotations if a.qualifiers[0].feature == "incident"]
    assert len(incidents) == 1
    assert incidents[0].who == "SPK0"


def test_inline_kinesic_is_content_not_annotation(dialogue_doc):
    second = [item for item in dialogue_doc.body if isinstance(item, Utterance)][1]
    kinds = [type(item).__name__ for item in second.content]
    assert "Kinesic" in kinds
    assert all(a.qualifiers[0].feature != "kinesic" for a in dialogue_doc.annotations)


def test_free_standing_vocal_is_an_annotated_event():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b"<body>",
        b'<body><vocal xml:id="v1" start="#T3" end="#T5"><desc>laughs</desc></vocal>'
        b'<vocal type="laugh"/>',
    )
    doc, _ = parse_document(data)
    doc, findings = resolve_anchors(doc)
    assert findings == []
    assert [type(item) for item in doc.body[:2]] == [Vocal, Vocal]
    first, second = doc.annotation("v1"), doc.annotation("vocal1")
    assert (first.qualifiers[0].feature, first.qualifiers[0].value) == ("vocal", "laughs")
    assert first.range == EventInterval("T3", "T5", "timeline1")
    assert second.qualifiers[0].feature == "laugh" and second.range is None


def _between(data: bytes, start: bytes, end: bytes) -> bytes:
    """The bytes of ``data`` from the first ``start`` to the first ``end`` after it, inclusive."""
    first = data.index(start)
    return data[first : data.index(end, first) + len(end)]


def test_recording_metadata():
    """The recordingStmt is kept verbatim in the sourceDesc and written back as read."""
    data = fixture_bytes("recording.xml")
    doc, _ = parse_document(data)
    assert header_tags(doc, "fileDesc/sourceDesc") == ["p", "recordingStmt"]
    statement = doc.metadata.header.find("fileDesc/sourceDesc/recordingStmt")
    (recording,) = statement.children
    assert recording.attrib == (("type", "audio"),)
    assert [child.tag for child in recording.children] == ["equipment", "date"]
    assert _between(data, b"<recordingStmt>", b"</recordingStmt>") in serialize_document(doc)


def test_person_metadata():
    """A participant's birth and languages are kept verbatim in its element."""
    data = fixture_bytes("person.xml")
    doc, _ = parse_document(data)
    (person,) = doc.metadata.participants
    assert person == Person("person1", None, "2", "infant")
    assert header_tags(doc, "profileDesc/particDesc/person") == ["birth", "langKnowledge"]
    assert _between(data, b"<birth", b"</langKnowledge>") in serialize_document(doc)


@pytest.mark.parametrize("section", ["fileDesc", "encodingDesc", "profileDesc"])
def test_repeated_header_section_is_reported_and_the_first_kept(section):
    """The views read the first section; the second is kept where it stands
    and written back there."""
    one = fixture_bytes("anchored_dialogue.xml").replace(
        b"</teiHeader>", b"<encodingDesc><p>first</p></encodingDesc></teiHeader>"
    )
    second = b"<%s><p>second</p></%s></teiHeader>" % (section.encode(), section.encode())
    baseline, baseline_warnings = parse_document(one)
    doc, warnings = parse_document(one.replace(b"</teiHeader>", second))
    message = f"teiHeader has more than one {section}; keeping the first"
    assert warnings == baseline_warnings + [
        Finding("DUP_HEADER_SECTION", "warning", section, message)
    ]
    header = doc.metadata.header
    kept = OpaqueElement(section, children=(OpaqueElement("p", text="second"),), tails=(None,))
    assert header.children[-1] == kept
    first = header._replace(children=header.children[:-1], tails=header.tails[:-1])
    assert doc._replace(metadata=Metadata(first)) == baseline
    written = serialize_document(doc)
    assert b"\n    <%s>\n      <p>second</p>\n    </%s>\n  </teiHeader>" % (
        section.encode(), section.encode()
    ) in written
    assert serialize_document(parse_document(written)[0]) == written


def test_missing_file_desc_is_a_hard_error():
    data = b'<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader/><text><body/></text></TEI>'
    with pytest.raises(TeiParseError):
        parse_document(data)


def test_ill_formed_markup_is_a_hard_error():
    with pytest.raises(TeiParseError):
        parse_document(b"<TEI><unclosed>")


@pytest.mark.parametrize("where", [b"<sourceDesc>", b"<body>"])
def test_too_deep_markup_is_a_parse_error(where):
    deep = fixture_bytes("seg.xml").replace(where, where + b"<x>" * 3000 + b"</x>" * 3000, 1)
    with pytest.raises(TeiParseError, match="nested too deeply"):
        parse_document(deep)


def test_missing_namespace_warns():
    data = (
        b"<TEI><teiHeader><fileDesc><titleStmt><title>t</title></titleStmt>"
        b"<publicationStmt><p>p</p></publicationStmt><sourceDesc><p>s</p></sourceDesc>"
        b"</fileDesc></teiHeader><text><body/></text></TEI>"
    )
    doc, warnings = parse_document(data)
    assert any("namespace" in w.message for w in warnings)
    assert doc.metadata.title == "t"


def test_resolve_anchors_on_dialogue(dialogue_doc):
    doc, findings = resolve_anchors(dialogue_doc)
    assert findings == []
    assert doc.annotation("u2").range == EventInterval("T3", "T6", "timeline1")
    assert doc.annotation("incident1").range == EventInterval("T3", "T5", "timeline1")


def test_resolve_anchors_accepts_bare_and_hash_references(dialogue_doc):
    # The fixture mixes synch="#T3" with start="T3"; both resolved above.
    incident = next(a for a in dialogue_doc.annotations if a.id == "incident1")
    assert incident.range is None  # before resolution
    doc, _ = resolve_anchors(dialogue_doc)
    assert doc.annotation("incident1").range.start == "T3"


def test_resolve_anchors_dangling_point():
    data = fixture_bytes("anchored_dialogue.xml").replace(b'synch="#T7"', b'synch="#T99"')
    doc, _ = parse_document(data)
    doc, findings = resolve_anchors(doc)
    assert any(f.message.endswith("unknown point 'T99'") for f in findings)
    # the utterance keeps its other anchor and still resolves
    assert doc.annotation("u3").range == EventInterval("T6", "T6", "timeline1")


def test_resolve_anchors_locates_findings_of_an_empty_id_at_body():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b"<body>",
        b'<timeline xml:id="tl2"><when xml:id="X1"/></timeline><body>'
        b'<u xml:id=""><anchor synch="#T9"/></u>'
        b'<u xml:id=""><anchor synch="#T1"/><anchor synch="#X1"/></u>'
        b'<kinesic xml:id="" start="T8"/>',
        1,
    )
    doc, _ = parse_document(data)
    _, findings = resolve_anchors(doc)
    assert findings == [
        Finding("DANGLING_REF", "warning", "body", "'' references unknown point 'T9'"),
        Finding("TIMELINE_MISMATCH", "warning", "body", "'' anchors span different timelines"),
        Finding("DANGLING_REF", "warning", "body", "'' references unknown point 'T8'"),
    ]


def test_ends_on_two_timelines_that_share_an_id_are_a_mismatch():
    """A point belongs to the first timeline object that declares it, not to an id."""
    data = (
        '<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc><titleStmt><title>t'
        "</title></titleStmt><publicationStmt><p>p</p></publicationStmt><sourceDesc><p>s</p>"
        '</sourceDesc></fileDesc></teiHeader><text><timeline unit="s" xml:id="tl">'
        '<when xml:id="a"/><when xml:id="b"/></timeline><timeline unit="s" xml:id="tl">'
        '<when xml:id="c"/><when xml:id="d"/></timeline><body>'
        '<u xml:id="u1"><anchor synch="#a"/>x<anchor synch="#d"/></u>'
        '<u xml:id="u2"><anchor synch="#c"/>y<anchor synch="#d"/></u>'
        '<kinesic xml:id="k1" start="#b" end="#c"/><kinesic xml:id="k2" start="#a" end="#b"/>'
        "</body></text></TEI>"
    )
    doc, _ = parse_document(data)
    doc, findings = resolve_anchors(doc)
    assert findings == [
        Finding("TIMELINE_MISMATCH", "warning", "u1", "'u1' anchors span different timelines"),
        Finding(
            "TIMELINE_MISMATCH", "warning", "k1", "'k1' start and end are on different timelines"
        ),
    ]
    assert [ann.range for ann in doc.annotations] == [
        None, EventInterval("c", "d", "tl"), None, EventInterval("a", "b", "tl")
    ]
    # Each interval is placed on the timeline that holds it, and the others are sequenced.
    assert overlaps_report(sequence_implicit(doc)).skipped == 0


def test_free_standing_event_with_an_empty_id_gets_its_interval():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<incident who="SPK0"', b'<incident xml:id="" who="SPK0"'
    )
    doc, _ = parse_document(data)
    doc, findings = resolve_anchors(doc)
    assert findings == []
    assert doc.annotation("").range == EventInterval("T3", "T5", "timeline1")


def test_duplicate_anchor_declaration_keeps_first(inline_doc):
    timeline = inline_doc.primary_timeline
    assert timeline.implicit
    assert timeline.ids == ("tp1u", "tp2u")
    assert [raw for raw, _ in inline_doc.declared_ids].count("tp2u") == 2


def test_inline_anchor_utterances_share_interval(inline_doc):
    doc, _ = resolve_anchors(inline_doc)
    assert doc.annotation("u1").range == doc.annotation("u2").range


def test_vocal_and_text_preserved_verbatim(inline_doc):
    second = [item for item in inline_doc.body if isinstance(item, Utterance)][1]
    vocals = [c for c in second.content if isinstance(c, Vocal)]
    assert vocals == [Vocal(desc="cough", id="vocal1")]
    texts = [c for c in second.content if isinstance(c, str)]
    assert texts == ["Alors ça dépend ", " ", "un petit peu."]


def test_start_only_event_gets_degenerate_interval(inline_doc):
    doc, _ = resolve_anchors(inline_doc)
    kinesic = doc.annotation("kinesic1")
    assert kinesic.range == EventInterval("tp1u", "tp1u", "~implicit")


def test_generated_utterance_ids_are_deterministic():
    first, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    second, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    assert [a.id for a in first.annotations] == [a.id for a in second.annotations]


def test_generated_ids_skip_every_declared_id_as_written_and_without_its_hash():
    doc, _ = parse_document(
        b'<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc>'
        b"<titleStmt><title>t</title></titleStmt><publicationStmt><p>p</p></publicationStmt>"
        b"<sourceDesc><p>s</p></sourceDesc></fileDesc></teiHeader><text><body>"
        b'<u>a</u><u xml:id="u1">b</u><u xml:id="#u2">c</u><u>d</u>'
        b'<kinesic xml:id="kinesic1"/><kinesic/></body></text></TEI>'
    )
    assert [a.id for a in doc.annotations] == ["u3", "u1", "u2", "u4", "kinesic1", "kinesic2"]


def test_resolve_anchors_preserves_order_and_text(dialogue_doc):
    resolved, _ = resolve_anchors(dialogue_doc)
    assert resolved.body == dialogue_doc.body
    assert [a.id for a in resolved.annotations] == [a.id for a in dialogue_doc.annotations]
    originals = [item.plain_text() for item in dialogue_doc.body if isinstance(item, Utterance)]
    after = [item.plain_text() for item in resolved.body if isinstance(item, Utterance)]
    assert after == originals


def test_symbol_text_content_accepted_and_canonicalized():
    data = fixture_bytes("tags.xml").replace(
        b'<symbol value="feminine"/>', b"<symbol>feminine</symbol>"
    )
    doc, _ = parse_document(data)
    baseline, _ = parse_document(fixture_bytes("tags.xml"))
    assert doc == baseline
    from spokenkit.tei import serialize_document

    assert b'<symbol value="feminine"/>' in serialize_document(doc)


def test_anchor_inside_token_is_reported_and_preserved():
    data = fixture_bytes("pomme.xml").replace(
        b'<w xml:id="t2">de</w>', b'<w xml:id="t2">de<anchor synch="#t1"/></w>'
    )
    doc, warnings = parse_document(data)
    assert any("inside w" in w.message for w in warnings)
    from spokenkit.tei import serialize_document

    assert b"<anchor" in serialize_document(doc).split(b'xml:id="t2"')[1].split(b"</w>")[0]


def test_token_with_a_child_element_keeps_its_text_across_round_trips():
    data = fixture_bytes("pomme.xml").replace(
        b'<w xml:id="t2">de</w>', b'<w xml:id="t2">ab<hi>Q</hi>c</w>'
    )
    doc, _ = parse_document(data)
    assert [w.text for w in content_items(doc.body, W) if w.id == "t2"] == ["abc"]
    reparsed, _ = parse_document(serialize_document(doc))
    assert reparsed == doc


def test_punctuation_with_a_child_element_keeps_its_markup_across_round_trips():
    data = fixture_bytes("tagged_sentence.xml").replace(
        b"<pc>.</pc>", b'<pc xml:id="p9">a<c>.</c></pc>'
    )
    doc, warnings = parse_document(data)
    assert [(w.code, w.location) for w in warnings] == [("UNSUPPORTED_IN_PC", "pc")]
    written = serialize_document(doc)
    assert b'<pc xml:id="p9">a<c>.</c></pc>' in written
    reparsed, _ = parse_document(written)
    assert reparsed == doc


def test_timeline_inside_body_is_accepted():
    data = fixture_bytes("anchored_dialogue.xml")
    timeline_block = data[data.index(b"<timeline") : data.index(b"</timeline>") + len(b"</timeline>")]
    moved = data.replace(timeline_block, b"").replace(b"<body>", b"<body>" + timeline_block)
    doc, _ = parse_document(moved)
    baseline, _ = parse_document(data)
    assert doc.primary_timeline == baseline.primary_timeline
    resolved, findings = resolve_anchors(doc)
    assert findings == []


def test_body_items_that_share_an_id_keep_their_own_intervals():
    data = (
        fixture_bytes("anchored_dialogue.xml")
        .replace(
            b'<incident who="SPK0"',
            b'<kinesic xml:id=""/><kinesic xml:id="" start="#T1" end="#T2"/>'
            b'<incident xml:id="" who="SPK0"',
        )
        .replace(b'<u who="#SPK1">', b'<u xml:id="dup" who="#SPK1">')
        .replace(
            b'<u who="#SPK0"><anchor synch="#T6"/>',
            b'<u xml:id="dup" who="#SPK0"><anchor synch="#T6"/>',
        )
    )
    doc, _ = parse_document(data)
    doc, findings = resolve_anchors(doc)
    assert findings == []
    assert [(a.id, a.range) for a in doc.annotations] == [
        ("u1", EventInterval("T1", "T4", "timeline1")),
        ("dup", EventInterval("T3", "T6", "timeline1")),
        ("", None),
        ("", EventInterval("T1", "T2", "timeline1")),
        ("", EventInterval("T3", "T5", "timeline1")),
        ("dup", EventInterval("T6", "T7", "timeline1")),
    ]


def test_only_the_second_of_two_items_with_an_id_resolves():
    data = fixture_bytes("anchored_dialogue.xml")
    body = data[data.index(b"<body>") : data.index(b"</body>") + len(b"</body>")]
    data = data.replace(
        body,
        b'<body><u xml:id="">no anchor</u>'
        b'<u xml:id=""><anchor synch="#T1"/><anchor synch="#T2"/></u></body>',
    )
    doc, _ = parse_document(data)
    doc, _ = resolve_anchors(doc)
    assert [(a.id, a.range) for a in doc.annotations] == [
        ("", None),
        ("", EventInterval("T1", "T2", "timeline1")),
    ]


def test_library_feature_without_a_name_is_reported_and_skipped():
    data = fixture_bytes("tagged_sentence.xml").replace(
        b'<f name="grammaticalGender" xml:id="neu">', b'<f name="" xml:id="neu">'
    )
    doc, warnings = parse_document(data)
    assert [(w.code, w.location) for w in warnings] == [("FEATURE_WITHOUT_NAME", "f")]
    gender = doc.back[1]
    assert [f.id for f in gender.features] == ["fem", "mas"]


@pytest.mark.parametrize(
    "offset, message",
    [
        ("-1", "point 'T2' has a negative offset '-1'"),
        ("NaN", "point 'T2' has a non-numeric offset 'NaN'"),
    ],
)
def test_negative_or_nan_timeline_offset_is_reported_and_dropped(offset, message):
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<when xml:id="T2"/>', b'<when xml:id="T2" absolute="%s"/>' % offset.encode()
    )
    doc, warnings = parse_document(data)
    assert warnings == [Finding("BAD_OFFSET", "warning", "T2", message)]
    assert doc.primary_timeline.offsets == (None,) * len(DIALOGUE_POINT_IDS)


@pytest.mark.parametrize(
    "offset, kind",
    [
        ("-1", "a negative"),
        ("-Infinity", "an infinite"),
        ("Infinity", "an infinite"),
        ("NaN", "a non-numeric"),
        ("sNaN", "a non-numeric"),
        ("NaN123", "a non-numeric"),
        ("-NaN", "a non-numeric"),
        ("one", "a non-numeric"),
    ],
)
def test_each_bad_timeline_offset_gives_its_message(offset, kind):
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<when xml:id="T2"/>', b'<when xml:id="T2" absolute="%s"/>' % offset.encode()
    )
    doc, warnings = parse_document(data)
    message = f"point 'T2' has {kind} offset {offset!r}"
    assert warnings == [Finding("BAD_OFFSET", "warning", "T2", message)]
    assert doc.primary_timeline.offsets == (None,) * len(DIALOGUE_POINT_IDS)


@pytest.mark.parametrize("offset", ["-0", "0", "0.000", "-0.0", "1E+2"])
def test_a_zero_or_positive_timeline_offset_is_kept(offset):
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<when xml:id="T2"/>', b'<when xml:id="T2" absolute="%s"/>' % offset.encode()
    )
    doc, warnings = parse_document(data)
    assert warnings == []
    kept = doc.primary_timeline.offsets[DIALOGUE_POINT_IDS.index("T2")]
    assert type(kept) is Decimal and str(kept) == str(Decimal(offset))
    assert b'absolute="%s"' % str(Decimal(offset)).encode() in serialize_document(doc)


@pytest.mark.parametrize("offset", ["Infinity", "inf", "-Infinity"])
def test_an_infinite_timeline_offset_is_reported_and_dropped(offset):
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<when xml:id="T2"/>', b'<when xml:id="T2" absolute="%s"/>' % offset.encode()
    )
    doc, warnings = parse_document(data)
    message = f"point 'T2' has an infinite offset {offset!r}"
    assert warnings == [Finding("BAD_OFFSET", "warning", "T2", message)]
    assert doc.primary_timeline.offsets == (None,) * len(DIALOGUE_POINT_IDS)
    assert b"absolute" not in serialize_document(doc)


def test_element_before_body_is_kept_opaquely():
    data = fixture_bytes("pomme.xml").replace(b"<body>", b"<front><p>Preface</p></front><body>", 1)
    doc, _ = parse_document(data)
    baseline, _ = parse_document(fixture_bytes("pomme.xml"))
    preface = OpaqueElement("p", (), "Preface")
    assert doc.body[0] == OpaqueElement("front", (), None, (preface,), (None,))
    assert doc.body[1:] == baseline.body
    assert b"<front><p>Preface</p></front>" in serialize_document(doc)


def test_element_in_a_foreign_namespace_is_kept_opaquely():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b"<body>", b'<body><x:kinesic xmlns:x="urn:other" type="wave"/>', 1
    )
    doc, _ = parse_document(data)
    assert doc.body[0] == OpaqueElement("{urn:other}kinesic", (("type", "wave"),))
    assert not any(isinstance(item, Kinesic) and item.type == "wave" for item in doc.body)
    out = serialize_document(doc)
    assert b'<kinesic xmlns="urn:other" type="wave"/>' in out
    assert parse_document(out)[0] == doc
