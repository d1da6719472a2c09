"""Generated headers with unknown elements in every slot, in any order: a
parsed document equals itself after a TEI round trip, and a second write
gives the same bytes. Generated recordings, settings, revisions and
participant details, nested with attributes and inline markup, keep every
element, attribute and text."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.tei import parse_document, serialize_document
from tests.test_tei_header_kept import elements

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
# None of these names is understood anywhere in the header.
UNKNOWN_NAMES = ("note", "bibl", "extent", "listOrg", "xenoData", "notesStmt")
TEXT = st.text(st.sampled_from("ab &<>\"'é \n"), max_size=4)


def _esc(text: str) -> str:
    for char, ref in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")):
        text = text.replace(char, ref)
    return text


@st.composite
def unknown_elements(draw) -> list[str]:
    elements = []
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(UNKNOWN_NAMES))
        attrs = f' n="{_esc(draw(TEXT))}"' if draw(st.booleans()) else ""
        elements.append(f"<{name}{attrs}>{_esc(draw(TEXT))}</{name}>")
    return elements


@st.composite
def section(draw, name: str, known: list[str], optional: bool = False) -> list[str]:
    """``<name>`` holding its known children and unknown ones, shuffled; an
    optional section may be left out."""
    if optional and not draw(st.booleans()):
        return []
    children = draw(st.permutations(known + draw(unknown_elements())))
    return [f"<{name}>{''.join(children)}</{name}>"]


@st.composite
def headers(draw) -> str:
    file_desc = section(
        "fileDesc",
        draw(section("titleStmt", ["<title>T</title>"]))
        + draw(section("publicationStmt", ["<p>P</p>"]))
        + draw(section("sourceDesc", ["<p>S</p>"]))
        + draw(unknown_elements()),
    )
    app_info = section("appInfo", ['<application ident="a" version="1"/>'], optional=True)
    partic = section("particDesc", ['<person xml:id="S1"/>'], optional=True)
    parts = (
        draw(file_desc)
        + draw(section("encodingDesc", draw(app_info), optional=True))
        + draw(section("profileDesc", draw(partic), optional=True))
        + draw(section("revisionDesc", ['<change when="2011">c</change>'], optional=True))
        + draw(unknown_elements())
    )
    return "<teiHeader>" + "".join(draw(st.permutations(parts))) + "</teiHeader>"


@PROPERTY_SETTINGS
@given(headers())
def test_header_extras_round_trip_in_any_order(header):
    text = f'<TEI xmlns="http://www.tei-c.org/ns/1.0">{header}<text><body/></text></TEI>'
    doc, _ = parse_document(text)
    written = serialize_document(doc)
    again, _ = parse_document(written)
    assert again == doc
    assert serialize_document(again) == written


# Names of header elements the model does not type, among them those it once did.
KEPT_NAMES = (
    "recording", "equipment", "p", "date", "broadcast", "birth", "placeName", "name",
    "langKnowledge", "langKnown", "setting", "change", "hi", "foreign",
)
# Global attributes of every TEI element (att.global).
GLOBAL_ATTRIBUTES = ("n", "rend", "xml:lang")


@st.composite
def untyped(draw, depth: int = 0) -> str:
    """An untyped element with some global attributes, holding text and,
    above the deepest level, child elements with text between them."""
    name = draw(st.sampled_from(KEPT_NAMES))
    attrs = "".join(
        f' {attr}="{_esc(draw(TEXT))}"' for attr in GLOBAL_ATTRIBUTES if draw(st.booleans())
    )
    inner = _esc(draw(TEXT))
    if depth < 2:
        for child in draw(st.lists(untyped(depth + 1), max_size=2)):
            inner += child + _esc(draw(TEXT))
    return f"<{name}{attrs}>{inner}</{name}>"


@st.composite
def kept_headers(draw) -> str:
    def holding(start: str, end: str) -> str:
        return start + "".join(draw(st.lists(untyped(), max_size=3))) + end

    return (
        "<teiHeader><fileDesc><titleStmt><title>T</title></titleStmt>"
        "<publicationStmt><p>P</p></publicationStmt><sourceDesc><p>S</p>"
        + holding("<recordingStmt>", "</recordingStmt>")
        + "</sourceDesc></fileDesc><profileDesc><particDesc>"
        + holding('<person xml:id="S1">', "</person>")
        + "</particDesc>"
        + holding("<settingDesc>", "</settingDesc>")
        + "</profileDesc>"
        + holding("<revisionDesc>", "</revisionDesc>")
        + "</teiHeader>"
    )


@PROPERTY_SETTINGS
@given(kept_headers())
def test_untyped_header_elements_keep_their_elements_attributes_and_texts(header):
    text = f'<TEI xmlns="http://www.tei-c.org/ns/1.0">{header}<text><body/></text></TEI>'
    doc, _ = parse_document(text)
    written = serialize_document(doc)
    assert elements(written) == elements(text)
    assert serialize_document(parse_document(written)[0]) == written
