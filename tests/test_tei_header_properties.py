"""Generated headers with unknown elements in every slot, in any order: a
parsed document equals itself after a TEI round trip, and a second write
gives the same bytes."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.tei import parse_document, serialize_document

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
