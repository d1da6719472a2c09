"""The header is kept verbatim.

spokenkit reads the title, publication and source texts, the applications
and the participants' ids, names, sex and age, as views of the kept header.
A recording, a participant's birth or languages, a setting and a revision
are kept where they stand, as parsed, and written back as read, and so are
the attributes and markup of the elements the views read: a TEI round trip
loses none of their elements, attributes or texts.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from spokenkit.tei import parse_document, serialize_document
from tests.conftest import header_tags

TEI_NS = "{http://www.tei-c.org/ns/1.0}"

# One header holding an element of each kind the reader once typed and flattened.
FIVE_LOSSES = (
    '<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc>'
    "<titleStmt><title>t</title></titleStmt><publicationStmt><p>p</p></publicationStmt>"
    '<sourceDesc><p>s</p><recordingStmt><recording type="audio">'
    "<equipment><p>Two mics</p><p>44.1 kHz</p></equipment></recording></recordingStmt>"
    "</sourceDesc></fileDesc><profileDesc><particDesc>"
    '<person xml:id="S1"><birth when="1980"><placeName>Berlin</placeName></birth>'
    '<langKnowledge><langKnown n="1" tag="de">German</langKnown></langKnowledge></person>'
    "</particDesc><settingDesc><setting><name>Paris</name><date>2010</date></setting>"
    "</settingDesc></profileDesc><revisionDesc><change>fixed <name>typo</name></change>"
    '</revisionDesc></teiHeader><text><body><u who="#S1">a</u></body></text></TEI>'
)


def elements(data: bytes | str) -> Counter:
    """Every element, as (tag, attributes, stripped text, stripped tail)."""
    return Counter(
        (
            el.tag,
            tuple(sorted(el.attrib.items())),
            (el.text or "").strip(),
            (el.tail or "").strip(),
        )
        for el in ET.fromstring(data).iter()
    )


def test_the_five_lost_header_elements_are_kept():
    doc, warnings = parse_document(FIVE_LOSSES)
    assert warnings == []
    written = serialize_document(doc)
    assert elements(written) == elements(FIVE_LOSSES)
    again, _ = parse_document(written)
    assert again == doc
    assert serialize_document(again) == written
    for kept in (
        b"<p>44.1 kHz</p>",
        b"<placeName>Berlin</placeName>",
        b'<langKnown n="1" tag="de">German</langKnown>',
        b"<setting><name>Paris</name><date>2010</date></setting>",
        b"<change>fixed <name>typo</name></change>",
    ):
        assert kept in written


def test_the_first_persname_is_typed_and_a_second_kept():
    names = "<persName>Ann</persName><persName>Annie</persName>"
    data = FIVE_LOSSES.replace('<person xml:id="S1">', f'<person xml:id="S1">{names}')
    doc, _ = parse_document(data)
    (person,) = doc.metadata.participants
    assert person.name == "Ann"
    assert header_tags(doc, "profileDesc/particDesc/person") == [
        "persName", "persName", "birth", "langKnowledge"
    ]
    written = serialize_document(doc)
    assert elements(written) == elements(data)
    assert serialize_document(parse_document(written)[0]) == written


def header(title="<title>t</title>", source="<sourceDesc><p>s</p></sourceDesc>",
           application='<application ident="a" version="1"/>', person='<person xml:id="S1"/>'):
    return (
        '<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader><fileDesc>'
        f"<titleStmt>{title}</titleStmt><publicationStmt><p>p</p></publicationStmt>{source}"
        f"</fileDesc><encodingDesc><appInfo>{application}</appInfo></encodingDesc>"
        f"<profileDesc><particDesc>{person}</particDesc></profileDesc></teiHeader>"
        '<text><body><u who="#S1">a</u></body></text></TEI>'
    )


def written_twice(data: str) -> bytes:
    """The TEI → TEI output of ``data``, which keeps every element; the
    second pass must read the same document and give the same bytes."""
    doc, warnings = parse_document(data)
    assert warnings == []
    written = serialize_document(doc)
    assert elements(written) == elements(data)
    again, _ = parse_document(written)
    assert again == doc
    assert serialize_document(again) == written
    return written


@pytest.mark.parametrize(
    "data, kept, view, value",
    [
        (
            header(title='<title type="main" xml:lang="fr">A <hi>B</hi></title>'),
            b'<title type="main" xml:lang="fr">A <hi>B</hi></title>',
            lambda md: md.title,
            "A B",
        ),
        (
            header(person='<person xml:id="S1"><persName><forename>Ann</forename> '
                   "<surname>Lee</surname></persName></person>"),
            b"<persName><forename>Ann</forename> <surname>Lee</surname></persName>",
            lambda md: md.participants[0].name,
            "Ann Lee",
        ),
        (
            header(person='<person role="interviewer" xml:id="S1"/>'),
            b'<person role="interviewer" xml:id="S1"/>',
            lambda md: md.participants[0].id,
            "S1",
        ),
        (
            header(application='<application ident="a" n="x" version="1"/>'),
            b'<application ident="a" n="x" version="1"/>',
            lambda md: md.applications[0].ident,
            "a",
        ),
        (
            header(source="<sourceDesc>note<p>s</p></sourceDesc>"),
            b"<sourceDesc>note<p>s</p></sourceDesc>",
            lambda md: md.source,
            "s",
        ),
    ],
    ids=["title attributes", "structured name", "person role", "application n", "container text"],
)
def test_what_a_view_reads_is_kept_whole(data, kept, view, value):
    written = written_twice(data)
    assert kept in written
    assert view(parse_document(data)[0].metadata) == value


FOREIGN_ATTRIBUTE = '<note xmlns:x="http://example.org/x" x:a="1">n</note>'
TEI_IN_FOREIGN = '<x:foo xmlns:x="http://example.org/x"><p>q</p></x:foo>'


@pytest.mark.parametrize("where", ["header", "body"])
def test_an_attribute_in_another_namespace_keeps_it(where):
    if where == "header":
        data = header(source=f"<sourceDesc><p>s</p>{FOREIGN_ATTRIBUTE}</sourceDesc>")
    else:
        data = header().replace("</body>", f"{FOREIGN_ATTRIBUTE}</body>")
    written = written_twice(data)
    (note,) = ET.fromstring(written).iter(TEI_NS + "note")
    assert note.attrib == {"{http://example.org/x}a": "1"}


@pytest.mark.parametrize("where", ["header", "body"])
def test_a_tei_element_in_a_foreign_one_stays_in_tei(where):
    if where == "header":
        data = header(source=f"<sourceDesc><p>s</p>{TEI_IN_FOREIGN}</sourceDesc>")
    else:
        data = header().replace("</body>", f"{TEI_IN_FOREIGN}</body>")
    written = written_twice(data)
    (foo,) = ET.fromstring(written).iter("{http://example.org/x}foo")
    assert [child.tag for child in foo] == [TEI_NS + "p"]
