from __future__ import annotations

from dataclasses import replace

import pytest

from spokenkit.core import sequence_implicit
from spokenkit.tei import (
    OpaqueElement,
    TeiSerializeError,
    Utterance,
    parse_document,
    resolve_anchors,
    serialize_document,
)
from spokenkit.validate import validate_all
from tests.conftest import fixture_bytes, header_tags

FIXTURE_FILES = [
    "anchored_dialogue.xml",
    "inline_anchors.xml",
    "tags.xml",
    "tagged_sentence.xml",
    "tagged_neuter.xml",
    "pomme.xml",
    "shared_token.xml",
    "recording.xml",
    "person.xml",
    "seg.xml",
    "category_flib.xml",
]


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_parse_serialize_parse_is_stable(name):
    first, _ = parse_document(fixture_bytes(name))
    reparsed, _ = parse_document(serialize_document(first))
    assert reparsed == first


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_serialization_is_deterministic(name):
    doc, _ = parse_document(fixture_bytes(name))
    assert serialize_document(doc) == serialize_document(doc)


def test_second_serialization_is_byte_stable():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    once = serialize_document(doc)
    again = serialize_document(parse_document(once)[0])
    assert once == again


def test_an_empty_id_in_back_matter_is_written_back():
    """An empty feature id is kept, and the tagset refuses it as a missing one."""
    data = fixture_bytes("tags.xml").replace(b'xml:id="plur"', b'xml:id=""')
    data = data.replace(
        b"</back>", b'<entry><form type="inflected" xml:id=""><orth>x</orth></form></entry></back>'
    )
    doc, _ = parse_document(data)
    written = serialize_document(doc)
    assert b'<f name="grammaticalNumber" xml:id="">' in written
    assert b'<form type="inflected" xml:id="">' in written
    assert [(i.code, i.message) for i in validate_all(doc).issues if i.severity == "error"] == [
        ("TAGSET_ERROR", "library feature 'grammaticalNumber' has no identifier")
    ]


def test_ampersand_and_angle_brackets_escaped():
    data = fixture_bytes("anchored_dialogue.xml").replace(b"Okay.", b"A &amp; B &lt; C")
    doc, _ = parse_document(data)
    out = serialize_document(doc)
    assert b"A &amp; B &lt; C" in out
    reparsed, _ = parse_document(out)
    assert reparsed == doc


def test_carriage_return_in_text_round_trips():
    data = fixture_bytes("anchored_dialogue.xml").replace(b"Okay.", b"Okay.&#13;")
    doc, _ = parse_document(data)
    out = serialize_document(doc)
    assert b"Okay.&#13;" in out
    assert parse_document(out)[0] == doc


def test_tab_newline_and_carriage_return_in_attribute_round_trip():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b"<body>", b'<body><note n="a&#9;b&#10;c&#13;d">x</note>'
    )
    doc, _ = parse_document(data)
    out = serialize_document(doc)
    assert b'<note n="a&#9;b&#10;c&#13;d">x</note>' in out
    assert parse_document(out)[0] == doc


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x1f", "\ud800", "\ufffe", "\uffff"])
@pytest.mark.parametrize("where", ["text", "attribute"])
def test_characters_xml_cannot_carry_are_refused(char, where):
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    if where == "text":
        doc = replace(doc, body=(Utterance(id="u", content=(f"a{char}b",)),))
    else:
        doc = replace(doc, body=(OpaqueElement("note", (("n", f"a{char}b"),)),))
    with pytest.raises(TeiSerializeError) as exc:
        serialize_document(doc)
    assert str(exc.value) == f"character U+{ord(char):04X} cannot be written in XML"


def test_header_only_document_round_trips():
    minimal = (
        b'<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc>'
        b"<titleStmt><title>t</title></titleStmt>"
        b"<publicationStmt><p>pub</p></publicationStmt>"
        b"<sourceDesc><p>src</p></sourceDesc>"
        b"</fileDesc></teiHeader><text><body/></text></TEI>"
    )
    doc, _ = parse_document(minimal)
    assert doc.annotations == ()
    reparsed, _ = parse_document(serialize_document(doc))
    assert reparsed == doc


def test_unknown_elements_survive_round_trip():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b"<body>",
        b'<body><listBibl b="2" a="1"><bibl>Some <hi rend="it">styled</hi> text</bibl></listBibl>',
    )
    doc, _ = parse_document(data)
    out = serialize_document(doc)
    assert b'<listBibl a="1" b="2"><bibl>Some <hi rend="it">styled</hi> text</bibl></listBibl>' in out
    reparsed, _ = parse_document(out)
    assert reparsed == doc


def test_unknown_element_inside_utterance_survives():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b"Okay. ", b'Okay. <foreign xml:lang="en">well</foreign> '
    )
    doc, _ = parse_document(data)
    out = serialize_document(doc)
    assert b'<foreign xml:lang="en">well</foreign>' in out
    assert parse_document(out)[0] == doc


def test_synthetic_points_refuse_serialization():
    doc, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    doc, _ = resolve_anchors(doc)
    sequenced = sequence_implicit(doc)
    with pytest.raises(TeiSerializeError) as exc:
        serialize_document(sequenced)
    assert "materialize" in str(exc.value)


@pytest.mark.parametrize(
    ("body", "texts"),
    [
        (b"<u>a</u>x<u>b</u>", ["x"]),
        (b"x<u>a</u>", ["x"]),
        (b"<u>a</u>x", ["x"]),
        (b"\n  x y \n<u>a</u>\t&lt;z&gt;\r\n", ["x y", "<z>"]),
    ],
)
def test_body_level_text_is_read_without_its_layout(body, texts):
    # The body has element-only content, so the white space around text
    # there is layout: the writer adds its own, and the reader drops it.
    data = fixture_bytes("anchored_dialogue.xml")
    start, end = data.index(b"<body>") + len(b"<body>"), data.index(b"</body>")
    doc, _ = parse_document(data[:start] + body + data[end:])
    assert [item for item in doc.body if isinstance(item, str)] == texts
    once = serialize_document(doc)
    assert parse_document(once)[0] == doc
    assert serialize_document(parse_document(once)[0]) == once


def test_materialized_timeline_round_trips_cleanly():
    doc, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    doc, _ = resolve_anchors(doc)
    sequenced = sequence_implicit(doc)
    out = serialize_document(sequenced, materialize_timeline=True)
    assert b"<timeline" in out and b"~auto1" in out
    reparsed, warnings = parse_document(out)
    timeline = reparsed.primary_timeline
    assert timeline.ids == ("tp1u", "tp2u", "~auto1", "~auto2")
    assert not timeline.implicit
    # declaring anchors were rewritten into references, so no duplicate ids
    from spokenkit.validate import check_ids

    assert [i for i in check_ids(reparsed) if i.code == "DUP_ID"] == []


def test_document_without_metadata_is_refused():
    from spokenkit.core import Document

    with pytest.raises(TeiSerializeError):
        serialize_document(Document())


def test_dialogue_round_trip_under_a_second():
    import time

    start = time.perf_counter()
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    reparsed, _ = parse_document(serialize_document(doc))
    assert reparsed == doc
    assert time.perf_counter() - start < 1.0


def test_namespace_free_input_parses_to_equal_document():
    data = fixture_bytes("anchored_dialogue.xml")
    stripped = data.replace(b' xmlns="http://www.tei-c.org/ns/1.0"', b"")
    with_ns, _ = parse_document(data)
    without_ns, warnings = parse_document(stripped)
    assert any("namespace" in w.message for w in warnings)
    assert without_ns == with_ns
    assert parse_document(serialize_document(without_ns))[0] == with_ns


def test_attribute_order_does_not_matter():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'<incident who="SPK0" type="nv" start="T3" end="T5">',
        b'<incident end="T5" start="T3" type="nv" who="SPK0">',
    )
    reordered, _ = parse_document(data)
    baseline, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    assert reordered == baseline


def _minimal_tei(text: str) -> bytes:
    return (
        '<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc>'
        "<titleStmt><title>t</title></titleStmt><publicationStmt><p>p</p></publicationStmt>"
        '<sourceDesc><p>s</p></sourceDesc></fileDesc><profileDesc><particDesc>'
        '<person xml:id="S1"/></particDesc></profileDesc></teiHeader>'
        f"<text>{text}</text></TEI>"
    ).encode("utf-8")


@pytest.mark.parametrize(
    "text, kept",
    [
        (
            '<timeline unit="s"><when xml:id="T1"/></timeline><body><u>a <vocal xml:id="v1" '
            'who="#S1" type="laugh" start="#T1"><desc>laughs</desc></vocal> b</u></body>',
            b'<u>a <vocal start="#T1" type="laugh" who="#S1" xml:id="v1"><desc>laughs</desc>'
            b"</vocal> b</u>",
        ),
        ("<body><u>a <vocal/> b</u></body>", b"<u>a <vocal/> b</u>"),
        (
            '<body><vocal who="#S1" xml:id="v2"><desc>laughs</desc></vocal></body>',
            b'<vocal who="#S1" xml:id="v2">\n        <desc>laughs</desc>\n      </vocal>',
        ),
        (
            '<timeline xml:id="tl1" unit="s"/><body><u><anchor xml:id="a1"/>a'
            '<anchor xml:id="a2"/></u></body>',
            b'<timeline unit="s" xml:id="tl1">',
        ),
        ('<timeline unit="s"/><body><u>a</u></body>', b'<timeline unit="s">'),
    ],
)
def test_what_the_reader_accepted_is_a_fixed_point(text, kept):
    doc, _ = parse_document(_minimal_tei(text))
    once = serialize_document(doc)
    assert kept in once
    reparsed, _ = parse_document(once)
    assert reparsed == doc
    assert serialize_document(reparsed) == once


def _random_document(rng):
    import random as _random

    from spokenkit.core import Document, SourceRef, Timeline
    from spokenkit.tei import (
        AnchorRef,
        Incident,
        Kinesic,
        Metadata,
        Person,
        Utterance,
    )

    n_points = rng.randint(2, 8)
    timeline = Timeline(
        "tl",
        "ms",
        tuple(f"T{i}" for i in range(n_points)),
        (None,) * n_points,
        id_declared=True,
    )
    people = tuple(Person(id=f"S{i}", name=f"Speaker {i}") for i in range(rng.randint(1, 3)))
    words = ["très", "bien", "alors", "ça &", "<dépend>", "peu."]
    body = []
    for n in range(rng.randint(1, 6)):
        if rng.random() < 0.25:  # body-level text, which the reader takes without layout
            body.append(" ".join(rng.sample(words, rng.randint(1, 2))))
        content = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(4)
            if kind == 0:
                content.append(" ".join(rng.sample(words, rng.randint(1, 3))) + " ")
            elif kind == 1:
                content.append(AnchorRef(synch=f"T{rng.randrange(n_points)}"))
            elif kind == 2:
                content.append(_random_vocal(rng, people, n_points, f"v{n}_{len(content)}"))
            else:
                content.append(Kinesic(type="cough"))
        body.append(
            Utterance(id=f"u{n + 1}", who=rng.choice(people).id, content=tuple(content))
        )
        if rng.random() < 0.2:  # a free-standing vocal
            body.append(_random_vocal(rng, people, n_points, f"bv{n}"))
        if rng.random() < 0.3:
            lo, hi = sorted(rng.sample(range(n_points), 2))
            body.append(
                Incident(
                    desc="noise",
                    type="nv",
                    who=rng.choice(people).id,
                    start=f"T{lo}",
                    end=f"T{hi}",
                    id=f"inc{n}",
                    id_generated=False,
                )
            )
    metadata = Metadata.of(title="Generated", publication="None", source="Synthetic", participants=people)
    return Document(
        metadata=metadata,
        sources=(SourceRef("source1"),),
        timelines=(timeline,),
        body=tuple(body),
    )


def _random_vocal(rng, people, n_points, ident):
    """A vocal with each of its attributes set or not, and with or without a description."""
    from spokenkit.tei import Vocal

    def point():
        return f"T{rng.randrange(n_points)}" if rng.random() < 0.5 else None

    if rng.random() < 0.2:
        return Vocal()
    explicit = rng.random() < 0.5
    return Vocal(
        desc=rng.choice(["cough", "laugh", "", None]),
        type=rng.choice([None, "laugh", "nv"]),
        who=rng.choice([None, *(p.id for p in people)]),
        start=point(),
        end=point(),
        id=ident if explicit else None,
        id_generated=not explicit,
    )


def test_random_documents_round_trip_byte_stably():
    import random

    rng = random.Random(20260808)
    for _ in range(40):
        doc = _random_document(rng)
        first = serialize_document(doc)
        reparsed, _ = parse_document(first)
        second = serialize_document(reparsed)
        assert second == first
        assert parse_document(second)[0] == reparsed


RICH_HEADER = b"""<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0">
  <teiHeader>
    <fileDesc>
      <titleStmt>
        <title>Fully described recording</title>
      </titleStmt>
      <publicationStmt>
        <p>Unpublished</p>
      </publicationStmt>
      <sourceDesc>
        <p>Radio interview</p>
        <recordingStmt>
          <recording type="audio">
            <equipment>
              <p>Portable recorder</p>
            </equipment>
            <date>3 Mar 2011</date>
            <broadcast>
              <recording type="audio">
                <date>1 Mar 2011</date>
              </recording>
            </broadcast>
          </recording>
        </recordingStmt>
      </sourceDesc>
    </fileDesc>
    <encodingDesc>
      <appInfo>
        <application ident="aligner" version="2.1">
          <label>Forced aligner</label>
          <ptr target="#u1"/>
        </application>
      </appInfo>
    </encodingDesc>
    <profileDesc>
      <particDesc>
        <person xml:id="SPK1">
          <persName>Alice Example</persName>
        </person>
      </particDesc>
      <settingDesc>
        <p>Studio, morning session</p>
      </settingDesc>
      <langUsage>
        <language ident="fr">French</language>
      </langUsage>
    </profileDesc>
    <revisionDesc>
      <change when="2011-04-01" who="#SPK1">First pass</change>
    </revisionDesc>
  </teiHeader>
  <text>
    <body>
      <u who="#SPK1" xml:id="u1">Bonjour.</u>
    </body>
  </text>
</TEI>
"""


def test_rich_header_round_trips():
    doc, warnings = parse_document(RICH_HEADER)
    assert warnings == []
    md = doc.metadata
    assert md.applications[0].ident == "aligner"
    assert md.applications[0].targets == ("u1",)
    # The recording, setting, language usage and revision are kept verbatim,
    # each where it stood, and written back as read.
    assert header_tags(doc) == ["fileDesc", "encodingDesc", "profileDesc", "revisionDesc"]
    assert header_tags(doc, "fileDesc/sourceDesc") == ["p", "recordingStmt"]
    assert header_tags(doc, "profileDesc") == ["particDesc", "settingDesc", "langUsage"]
    assert serialize_document(doc) == RICH_HEADER
    reparsed, _ = parse_document(serialize_document(doc))
    assert reparsed == doc
    from spokenkit.validate import validate_all

    assert validate_all(doc).issues == ()


HEADER_EXTRAS = """<?xml version="1.0" encoding="UTF-8"?>
<TEI xmlns="http://www.tei-c.org/ns/1.0">
  <teiHeader>
    <fileDesc>
      <titleStmt>
        <title>T</title>
        <author>A</author>
      </titleStmt>
      <publicationStmt>
        <p>P</p>
        <availability status="free"/>
      </publicationStmt>
      <sourceDesc>
        <p>S</p>
        <bibl>B</bibl>
      </sourceDesc>
      <notesStmt><note>N</note></notesStmt>
    </fileDesc>
    <encodingDesc>
      <appInfo>
{application}        <note type="app">kept inside appInfo</note>
      </appInfo>
      <projectDesc><p>D</p></projectDesc>
    </encodingDesc>
    <profileDesc>
      <particDesc>
        <listOrg/>
      </particDesc>
      <textClass><keywords><term>K</term></keywords></textClass>
    </profileDesc>
    <revisionDesc>
      <listChange/>
    </revisionDesc>
    <xenoData>X</xenoData>
  </teiHeader>
  <text>
    <body>
      <u>Hi</u>
    </body>
  </text>
</TEI>
"""


@pytest.mark.parametrize(
    "application", ["", '        <application ident="aligner" version="2.1"/>\n']
)
def test_unknown_header_elements_round_trip_in_their_slots(application):
    # One unknown element in every header container; an <appInfo> child other
    # than <application> stays inside <appInfo>, which is written even without
    # applications.
    text = HEADER_EXTRAS.format(application=application).encode("utf-8")
    doc, warnings = parse_document(text)
    assert warnings == []
    assert serialize_document(doc) == text
    assert header_tags(doc) == [
        "fileDesc", "encodingDesc", "profileDesc", "revisionDesc", "xenoData"
    ]
    assert header_tags(doc, "fileDesc") == [
        "titleStmt", "publicationStmt", "sourceDesc", "notesStmt"
    ]
    assert header_tags(doc, "fileDesc/titleStmt") == ["title", "author"]
    assert header_tags(doc, "fileDesc/publicationStmt") == ["p", "availability"]
    assert header_tags(doc, "fileDesc/sourceDesc") == ["p", "bibl"]
    apps = ["application"] if application else []
    assert header_tags(doc, "encodingDesc") == ["appInfo", "projectDesc"]
    assert header_tags(doc, "encodingDesc/appInfo") == apps + ["note"]
    assert header_tags(doc, "profileDesc") == ["particDesc", "textClass"]
    assert header_tags(doc, "profileDesc/particDesc") == ["listOrg"]


def test_unknown_header_elements_before_known_ones_round_trip():
    # The header is written in the order it was read, so unknown elements
    # before the known ones stay before them.
    text = (
        '<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader>'
        "<revisionDesc><listChange/></revisionDesc><xenoData>X</xenoData>"
        "<fileDesc><notesStmt><note>N</note></notesStmt>"
        "<titleStmt><title>T</title><author>A</author></titleStmt>"
        "<publicationStmt><p>P</p></publicationStmt><sourceDesc><p>S</p></sourceDesc>"
        "</fileDesc></teiHeader><text><body/></text></TEI>"
    )
    doc, _ = parse_document(text)
    assert header_tags(doc) == ["revisionDesc", "xenoData", "fileDesc"]
    assert header_tags(doc, "fileDesc") == [
        "notesStmt", "titleStmt", "publicationStmt", "sourceDesc"
    ]
    written = serialize_document(doc)
    assert written.index(b"<xenoData>") < written.index(b"<notesStmt>") < written.index(b"<title>")
    again, _ = parse_document(written)
    assert again == doc
    assert serialize_document(again) == written

