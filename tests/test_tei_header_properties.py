"""Generated headers with unknown elements in every container, in any order:
a parsed document equals itself after a TEI round trip, and a second write
gives the same bytes. Generated recordings, settings, revisions and
participant details, nested with attributes and inline markup, keep every
element, attribute and text; so do the titles, paragraphs, applications,
persons and person names the views read, with attributes, inline markup and
text inside their containers."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.core import Document
from spokenkit.tei import AppInfo, Metadata, Person, parse_document, serialize_document
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


# Attributes of the elements the views read: global ones (att.global) and a type.
TYPED_ATTRIBUTES = ("n", "rend", "type", "xml:lang")
# Text between a container's children: layout, or text the container holds.
GAPS = ("", "\n  ", "note", " x ")


@st.composite
def attributes(draw) -> str:
    return "".join(
        f' {attr}="{_esc(draw(TEXT))}"' for attr in TYPED_ATTRIBUTES if draw(st.booleans())
    )


@st.composite
def inline(draw, depth: int = 0) -> str:
    """Text with inline elements, nested, holding attributes of their own."""
    content = _esc(draw(TEXT))
    if depth < 2:
        for _ in range(draw(st.integers(0, 2))):
            name = draw(st.sampled_from(("hi", "foreign", "abbr", "forename")))
            content += f"<{name}{draw(attributes())}>{draw(inline(depth + 1))}</{name}>"
            content += _esc(draw(TEXT))
    return content


@st.composite
def container(draw, name: str, children: list[str], attrs: str = "") -> str:
    """``<name>`` holding ``children``, with layout or text around each."""
    content = draw(st.sampled_from(GAPS))
    for child in children:
        content += child + draw(st.sampled_from(GAPS))
    return f"<{name}{attrs}>{content}</{name}>"


@st.composite
def typed_headers(draw) -> str:
    def leaf(name: str) -> str:
        return f"<{name}{draw(attributes())}>{draw(inline())}</{name}>"

    statements = [
        draw(container("titleStmt", [leaf("title")])),
        draw(container("publicationStmt", [leaf("p")])),
        draw(container("sourceDesc", [leaf("p")])),
    ]
    ident = ' ident="a"' if draw(st.booleans()) else ""
    app_children = [leaf("label")] if draw(st.booleans()) else []
    app = draw(container("application", app_children, f'{ident} version="1"{draw(attributes())}'))
    person = draw(container("person", [leaf("persName")], f' xml:id="S1"{draw(attributes())}'))
    sections = [
        draw(container("fileDesc", statements)),
        draw(container("encodingDesc", [draw(container("appInfo", [app]))])),
        draw(container("profileDesc", [draw(container("particDesc", [person]))])),
    ]
    return draw(container("teiHeader", sections))


@PROPERTY_SETTINGS
@given(typed_headers())
def test_the_elements_the_views_read_keep_their_attributes_markup_and_texts(header):
    text = f'<TEI xmlns="http://www.tei-c.org/ns/1.0">{header}<text><body/></text></TEI>'
    doc, _ = parse_document(text)
    written = serialize_document(doc)
    assert elements(written) == elements(text)
    again, _ = parse_document(written)
    assert again == doc
    assert serialize_document(again) == written


OPTIONAL_TEXT = st.none() | TEXT
APPLICATIONS = st.builds(AppInfo, TEXT, TEXT, OPTIONAL_TEXT, st.lists(TEXT, max_size=2).map(tuple))
PEOPLE = st.builds(Person, TEXT, OPTIONAL_TEXT, OPTIONAL_TEXT, OPTIONAL_TEXT)


@PROPERTY_SETTINGS
@given(
    TEXT, TEXT, TEXT,
    st.lists(APPLICATIONS, max_size=2).map(tuple),
    st.lists(PEOPLE, max_size=2).map(tuple),
)
def test_a_built_header_reads_back_as_built(title, publication, source, applications, people):
    metadata = Metadata.of(title, publication, source, applications, people)
    again = parse_document(serialize_document(Document(metadata=metadata)))[0].metadata
    assert again == metadata
    assert (again.title, again.publication, again.source) == (
        title.strip(), publication.strip(), source.strip()
    )
