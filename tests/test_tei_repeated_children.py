"""Repeated and unknown children of the root and the header.

The header is kept whole, every repeated child where it stands. The views
read the first child of each kind, except that the items of every
``appInfo`` and ``particDesc`` are applications and participants. So a TEI
round trip keeps every header element, and a second pass gives the same
bytes. A child of the root
that the model has no place for is reported as ``DROPPED_ROOT_CHILD``.
The last tests pin the ids the reader generates and the implicit timeline's id.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from spokenkit.core import EventInterval, Finding, sequence_implicit
from spokenkit.tei import parse_document, resolve_anchors, serialize_document
from spokenkit.validate import validate_all
from tests.conftest import header_tags

TEI = "{http://www.tei-c.org/ns/1.0}"
TITLE = "<titleStmt><title>t</title></titleStmt>"
PUBLICATION = "<publicationStmt><p>p</p></publicationStmt>"
SOURCE = "<sourceDesc><p>s</p></sourceDesc>"


def tei(file_desc: str = TITLE + PUBLICATION + SOURCE, header: str = "", root: str = "") -> str:
    return (
        '<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader>'
        f"<fileDesc>{file_desc}</fileDesc>{header}</teiHeader>"
        f"<text><body><u>a</u></body></text>{root}</TEI>"
    )


def header_elements(data: bytes | str) -> Counter:
    """Every element under ``teiHeader``, as (tag, attributes, stripped text)."""
    header = ET.fromstring(data).find(TEI + "teiHeader")
    return Counter(
        (el.tag.removeprefix(TEI), tuple(sorted(el.attrib.items())), (el.text or "").strip())
        for el in header.iter()
    )


def written_twice(data: str) -> tuple[bytes, list[Finding]]:
    """The first TEI → TEI output and the reader's warnings on the input;
    the second pass must give the same bytes."""
    doc, warnings = parse_document(data)
    first = serialize_document(doc)
    again, _ = parse_document(first)
    assert again == doc
    assert serialize_document(again) == first
    return first, warnings


def assert_every_header_element_kept(data: str) -> None:
    written, _ = written_twice(data)
    assert not header_elements(data) - header_elements(written)


def test_a_second_title_with_a_type_is_kept():
    titles = '<titleStmt><title>Main</title><title type="sub">Sub</title></titleStmt>'
    data = tei(titles + PUBLICATION + SOURCE)
    assert_every_header_element_kept(data)
    doc, _ = parse_document(data)
    assert doc.metadata.title == "Main"


@pytest.mark.parametrize(
    "statement, code",
    [("publicationStmt", "NO_PUBLICATION"), ("sourceDesc", "NO_SOURCE_DESC")],
)
def test_an_empty_first_p_is_kept_and_judged(statement, code):
    file_desc = TITLE + PUBLICATION + SOURCE
    file_desc = file_desc.replace(f"<{statement}><p>", f"<{statement}><p/><p>")
    data = tei(file_desc)
    assert_every_header_element_kept(data)
    _, warnings = parse_document(data)
    assert [w.code for w in warnings] == [code]


def test_a_second_setting_and_language_usage_are_kept():
    profile = (
        "<profileDesc><settingDesc><p>Paris</p></settingDesc>"
        '<langUsage><language ident="fr">French</language></langUsage>'
        "<settingDesc><p>Lyon</p></settingDesc>"
        '<langUsage><language ident="de">German</language></langUsage></profileDesc>'
    )
    data = tei(header=profile)
    assert_every_header_element_kept(data)
    doc, _ = parse_document(data)
    assert header_tags(doc, "profileDesc") == ["settingDesc", "langUsage"] * 2


@pytest.mark.parametrize(
    "root, name",
    [
        ("<standOff><listPerson/></standOff>", "standOff"),
        ("<text><body><u>b</u></body></text>", "text"),
        ("<teiHeader/>", "teiHeader"),
    ],
)
def test_a_root_child_without_a_place_is_reported(root, name):
    written, warnings = written_twice(tei(root=root))
    message = f"TEI child {name!r} has no place in the model; dropped"
    assert warnings == [Finding("DROPPED_ROOT_CHILD", "warning", name, message)]
    assert written == written_twice(tei())[0]


def test_a_person_in_a_second_particdesc_is_a_speaker():
    profile = (
        '<profileDesc><particDesc><person xml:id="A"/></particDesc>'
        '<particDesc><person xml:id="B"/></particDesc></profileDesc>'
    )
    data = tei(header=profile).replace("<u>a</u>", '<u who="#A">a</u><u who="#B">b</u>')
    written, warnings = written_twice(data)
    assert warnings == []
    doc, _ = parse_document(written)
    assert [person.id for person in doc.metadata.participants] == ["A", "B"]
    assert validate_all(doc).issues == ()


@pytest.mark.parametrize(
    "header, field, codes",
    [
        (
            "<encodingDesc><appInfo/><appInfo>"
            '<application ident="a" version="1"><ptr target="#nowhere"/></application>'
            "</appInfo></encodingDesc>",
            "applications",
            ["DANGLING_REF"],
        ),
        (
            '<profileDesc><particDesc/><particDesc><person xml:id="A"/></particDesc></profileDesc>',
            "participants",
            [],
        ),
    ],
)
def test_the_items_of_a_list_after_an_empty_one_are_typed_and_checked(header, field, codes):
    written, warnings = written_twice(tei(header=header))
    assert warnings == []
    doc, _ = parse_document(written)
    assert len(getattr(doc.metadata, field)) == 1
    assert [issue.code for issue in validate_all(doc).issues] == codes


EMPTY_THEN_FULL_ENCODING = (
    '<encodingDesc/><encodingDesc><appInfo><application ident="a" version="1"/></appInfo>'
    "</encodingDesc>"
)
EMPTY_THEN_FULL_PROFILE = (
    '<profileDesc/><profileDesc><particDesc><person xml:id="S1"/></particDesc></profileDesc>'
)


@pytest.mark.parametrize(
    "header",
    [
        EMPTY_THEN_FULL_ENCODING,
        EMPTY_THEN_FULL_PROFILE,
        EMPTY_THEN_FULL_ENCODING + EMPTY_THEN_FULL_PROFILE,
    ],
    ids=["encodingDesc", "profileDesc", "both"],
)
def test_an_empty_first_section_is_written_before_the_kept_one(header):
    data = tei(header=header).replace("<u>a</u>", '<u who="#S1">a</u>')
    assert_every_header_element_kept(data)
    doc, _ = parse_document(data)
    again, _ = parse_document(serialize_document(doc))
    assert again.metadata == doc.metadata
    # The person of the kept section is no speaker, before and after.
    assert validate_all(again).issues == validate_all(doc).issues


def test_every_recording_stmt_is_kept_verbatim():
    source = (
        "<sourceDesc><p>s</p><recordingStmt/>"
        '<recordingStmt><p>note</p><recording type="audio"/></recordingStmt>'
        '<recordingStmt><recording type="video"/></recordingStmt></sourceDesc>'
    )
    data = tei(TITLE + PUBLICATION + source)
    written, warnings = written_twice(data)
    assert warnings == []
    assert header_elements(written) == header_elements(data)
    doc, _ = parse_document(written)
    assert header_tags(doc, "fileDesc/sourceDesc") == ["p"] + ["recordingStmt"] * 3


# ---------------------------------------------------------------- generated ids

def test_generated_ids_skip_declared_ids_across_kinds():
    data = tei(
        header="<profileDesc><particDesc>"
        '<person/><person xml:id="person1"/><person/></particDesc></profileDesc>',
    ).replace(
        "<text><body><u>a</u></body></text>",
        '<text><timeline unit="ms"/><timeline unit="ms" xml:id="#timeline1"/>'
        '<timeline unit="ms"/><body><u>a</u><u xml:id="u1">b</u><u>c<vocal/></u>'
        '<kinesic/><incident xml:id="incident1"/><incident/>'
        '<vocal xml:id="#vocal2"/><vocal/></body></text>',
    )
    doc, _ = parse_document(data)
    assert [p.id for p in doc.metadata.participants] == ["person2", "person1", "person3"]
    assert [(tl.id, tl.id_declared) for tl in doc.timelines] == [
        ("timeline2", False), ("timeline1", True), ("timeline3", False)
    ]
    assert [(item.id, item.id_generated) for item in doc.body] == [
        ("u2", True), ("u1", False), ("u3", True), ("kinesic1", True),
        ("incident1", False), ("incident2", True), ("vocal2", False), ("vocal3", True),
    ]
    (inline,) = [item for item in doc.body[2].content if not isinstance(item, str)]
    assert (inline.id, inline.id_generated) == ("vocal1", True)


# ---------------------------------------------------------------- implicit timeline

def test_sequencing_a_document_without_a_timeline_names_the_implicit_one():
    doc, _ = parse_document(tei())
    assert doc.timelines == ()
    sequenced = sequence_implicit(doc)
    (timeline,) = sequenced.timelines
    assert (timeline.id, timeline.implicit) == ("~implicit", True)
    assert sequenced.annotations[0].range == EventInterval("~auto1", "~auto2", "~implicit")


def test_anchor_points_and_sequenced_points_share_the_implicit_timeline():
    doc, _ = parse_document(
        tei().replace("<u>a</u>", '<u><anchor xml:id="p1"/>a<anchor xml:id="p2"/></u><u>b</u>')
    )
    sequenced = sequence_implicit(resolve_anchors(doc)[0])
    (timeline,) = sequenced.timelines
    assert timeline.id == "~implicit"
    assert timeline.ids == ("p1", "p2", "~auto1", "~auto2")


def test_the_declarations_of_a_second_back_are_kept():
    data = tei().replace(
        "</body></text>", '</body><back><fs xml:id="a"/></back><back><fs xml:id="b"/></back></text>'
    )
    written, warnings = written_twice(data)
    assert warnings == []
    assert [item.id for item in parse_document(written)[0].back] == ["a", "b"]
