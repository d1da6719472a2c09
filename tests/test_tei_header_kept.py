"""Header elements spokenkit does not read are kept verbatim.

The header types only the title, publication and source texts, the
applications and the participants' ids, names, sex and age. A recording,
a participant's birth or languages, a setting and a revision are kept
where they stand, as parsed, and written back as read: a TEI round trip
loses none of their elements, attributes or texts.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter

from spokenkit.tei import parse_document, serialize_document

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
    assert [extra.tag for extra in person.extras] == ["persName", "birth", "langKnowledge"]
    written = serialize_document(doc)
    assert elements(written) == elements(data)
    assert serialize_document(parse_document(written)[0]) == written
