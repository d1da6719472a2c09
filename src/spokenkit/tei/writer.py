"""Canonical serialiser for the spoken-transcription markup subset.

Output form is fixed: UTF-8, two-space indentation for structural elements,
alphabetical attribute order, references written with a leading '#'. '&',
'<' and '>' are escaped everywhere, and '"' in attribute values; CR is
written as a character reference everywhere, and tab and LF in attribute
values. Characters XML 1.0 cannot carry at all are refused with
``TeiSerializeError``. Mixed content inside utterances is emitted verbatim,
so parsing the output reproduces the document structurally. The header is
written as read, each element on one line, except that its containers put
each child on a line of its own.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from decimal import Decimal
from typing import Any

from spokenkit.core.model import CategoryRef, Document, EventInterval, SpokenkitError, Timeline
from spokenkit.featstruct import (
    Binary,
    Feature,
    FeatureStructure,
    FSValue,
    Numeric,
    Str,
    Symbol,
)
from spokenkit.tei.model import (
    EVENT_CLASSES,
    HEADER_CONTAINERS,
    AnchorRef,
    FeatureLib,
    InflectedForm,
    InlineStructure,
    Kinesic,
    LexicalEntry,
    OpaqueElement,
    Pc,
    Seg,
    Span,
    SpanGroup,
    TagLib,
    TimedEvent,
    Utterance,
    W,
)

TEI_NS = "http://www.tei-c.org/ns/1.0"


class TeiSerializeError(SpokenkitError, ValueError):
    """The document cannot be serialised as requested."""


# Characters XML 1.0 cannot carry, not even as character references (§2.2),
# are refused: the escapes below refuse the C0 controls other than tab, LF
# and CR, and ``_Writer.render`` refuses U+FFFE, U+FFFF and lone surrogates.
# Keeping every class below U+0100 keeps its compilation at import cheap.
_C0_NOT_XML = "\x00-\x08\x0b\x0c\x0e-\x1f"
# CR is a reference everywhere, or end-of-line handling turns it into LF
# (§2.11); tab and LF are references in attributes, or attribute-value
# normalisation turns them into spaces (§3.3.3).
_TEXT_SPECIAL = re.compile(f"[&<>\r{_C0_NOT_XML}]")
_ATTR_SPECIAL = re.compile(f'[&<>"\t\n\r{_C0_NOT_XML}]')
_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "\t": "&#9;",
    "\n": "&#10;",
    "\r": "&#13;",
}


def _not_xml(char: str) -> TeiSerializeError:
    return TeiSerializeError(f"character U+{ord(char):04X} cannot be written in XML")


def _escape(match: re.Match) -> str:
    char = match.group()
    try:
        return _ESCAPES[char]
    except KeyError:
        raise _not_xml(char) from None


def _esc_text(text: str) -> str:
    return _TEXT_SPECIAL.sub(_escape, text) if _TEXT_SPECIAL.search(text) else text


def _esc_attr(value: str) -> str:
    return _ATTR_SPECIAL.sub(_escape, value) if _ATTR_SPECIAL.search(value) else value


def _attrs(pairs: dict[str, str | None]) -> str:
    """Rendered attributes in dict order; every caller lists names alphabetically."""
    return "".join(
        f' {name}="{_esc_attr(value)}"' for name, value in pairs.items() if value is not None
    )


def _ref(value: str | None) -> str | None:
    return f"#{value}" if value is not None else None


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def render(self) -> bytes:
        text = "\n".join(self.lines) + "\n"
        for char in "\ufffe\uffff":
            if char in text:
                raise _not_xml(char)
        try:
            return text.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise _not_xml(exc.object[exc.start]) from None


def serialize_document(doc: Document, materialize_timeline: bool = False) -> bytes:
    """Serialise a document to canonical markup bytes.

    Synthetic timeline points (from implicit sequencing) are refused unless
    ``materialize_timeline`` is set; materialising writes every point as an
    explicit timeline entry and rewrites declaring anchors into references.
    Documents without body content but with event-ranged annotations get a
    body generated from the annotations.
    """
    if doc.metadata is None:
        raise TeiSerializeError("document has no header metadata; a file description is mandatory")
    has_synthetic = any(tl.synthetic for tl in doc.timelines)
    if has_synthetic and not materialize_timeline:
        raise TeiSerializeError(
            "document contains synthetic timeline points; serialise with "
            "materialize_timeline=True (--materialize-timeline) to write them out"
        )

    w = _Writer()
    w.line(0, '<?xml version="1.0" encoding="UTF-8"?>')
    w.line(0, f'<TEI xmlns="{TEI_NS}">')
    try:
        _write_header(w, 1, doc.metadata.header)
        w.line(1, "<text>")
        for timeline in doc.timelines:
            _write_timeline(w, 2, timeline, materialize_timeline)
        w.line(2, "<body>")
        if doc.body:
            for item in doc.body:
                _writer_of(_BODY, item, "body")(w, 3, item, materialize_timeline)
        else:
            _write_generated_body(w, 3, doc)
        w.line(2, "</body>")
        if doc.back:
            w.line(2, "<back>")
            for item in doc.back:
                _write_back_item(w, 3, item)
            w.line(2, "</back>")
    except RecursionError:
        raise TeiSerializeError("markup is nested too deeply to serialise") from None
    w.line(1, "</text>")
    w.line(0, "</TEI>")
    return w.render()


# ---------------------------------------------------------------- header

def _write_header(w: _Writer, depth: int, el: OpaqueElement) -> None:
    """A header container with each child on a line of its own; any other
    element, and a container that holds text, as read."""
    if el.tag in HEADER_CONTAINERS and el.children and el.text is None and not any(el.tails):
        w.line(depth, _start_tag(el, False)[1] + ">")
        for child in el.children:
            _write_header(w, depth + 1, child)
        w.line(depth, f"</{el.tag}>")
    else:
        w.line(depth, _render_opaque(el))


def _leaf(tag: str, attrs: dict[str, str | None], text: str) -> str:
    rendered = _attrs(attrs)
    if text:
        return f"<{tag}{rendered}>{_esc_text(text)}</{tag}>"
    return f"<{tag}{rendered}/>"


# ---------------------------------------------------------------- timeline and body

def _write_timeline(w: _Writer, depth: int, timeline: Timeline, materialize: bool) -> None:
    if timeline.implicit and not materialize:
        return
    hidden = frozenset() if materialize else timeline.anchor_declared | timeline.synthetic
    attrs: dict[str, str | None] = {"unit": timeline.unit}
    if timeline.id_declared:
        attrs["xml:id"] = timeline.id
    w.line(depth, f"<timeline{_attrs(attrs)}>")
    indent = "  " * (depth + 1)
    append = w.lines.append
    special = _ATTR_SPECIAL.search
    for pid, offset in zip(timeline.ids, timeline.offsets):
        if pid in hidden:
            continue
        if special(pid):
            pid = _ATTR_SPECIAL.sub(_escape, pid)
        if offset is None:
            append(f'{indent}<when xml:id="{pid}"/>')
        else:
            number = str(offset) if offset.__class__ is Decimal else _number(offset)
            append(f'{indent}<when absolute="{number}" xml:id="{pid}"/>')
    w.line(depth, "</timeline>")


def _number(value) -> str:
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _write_generated_body(w: _Writer, depth: int, doc: Document) -> None:
    """Body lines generated from event-ranged annotations (converted input).

    The element kind follows the layer's tier category when one is declared;
    qualifier features redirected to registry pids then still serialise as
    the right element. Utterances hold the text between two anchors; other
    kinds are timed events whose ``desc`` holds the text.
    """
    indent = "  " * depth
    inner = "  " * (depth + 1)
    append = w.lines.append
    special, text_special = _ATTR_SPECIAL.search, _TEXT_SPECIAL.search
    attr_sub, text_sub = _ATTR_SPECIAL.sub, _TEXT_SPECIAL.sub
    layer_categories = {layer.id: layer.category for layer in doc.layers}
    for ann in doc.annotations:
        ident, _, interval, qualifiers, layer, who = ann[:6]
        if not isinstance(interval, EventInterval):
            continue
        start, end, _ = interval
        feature, text = qualifiers[0]
        feature = layer_categories.get(layer) or (
            feature.pid if isinstance(feature, CategoryRef) else feature
        )
        if text.__class__ is not str:
            text = text.pid if isinstance(text, CategoryRef) else str(text)
        # A value is escaped only where the search finds a special character; a C0
        # control is one, so ``_escape`` still refuses it.
        if text_special(text):
            text = text_sub(_escape, text)
        if special(start):
            start = attr_sub(_escape, start)
        if special(end):
            end = attr_sub(_escape, end)
        if special(ident):
            ident = attr_sub(_escape, ident)
        if who is None:
            who = ""
        else:
            who = f' who="#{attr_sub(_escape, who) if special(who) else who}"'
        if feature in ("utterance", "verbal"):
            append(
                f'{indent}<u{who} xml:id="{ident}"><anchor synch="#{start}"/>'
                f'{text}<anchor synch="#{end}"/></u>'
            )
        else:
            tag = EVENT_CLASSES.get(feature, Kinesic).tag
            kind = "" if feature == tag else f' type="{_esc_attr(feature)}"'
            append(f'{indent}<{tag} end="#{end}" start="#{start}"{kind}{who} xml:id="{ident}">')
            append(f"{inner}<desc>{text}</desc>" if text else f"{inner}<desc/>")
            append(f"{indent}</{tag}>")


def _writer_of(table: dict, item, place: str) -> Callable:
    """The entry of ``item``'s class in ``table`` (``_INLINE`` or ``_BODY``)
    or, for a subclass, of its nearest base class there."""
    for cls in type(item).__mro__:
        entry = table.get(cls)
        if entry is not None:
            return entry
    raise TeiSerializeError(f"cannot serialise {place} item {item!r}")


def _write_line(w: _Writer, depth: int, item, materialize: bool) -> None:
    """Write an item that may also stand in content on a body line of its own."""
    out = ["  " * depth]
    _writer_of(_INLINE, item, "content")(out, item, materialize)
    w.lines.append("".join(out))


def _write_utterance(w: _Writer, depth: int, utt: Utterance, materialize: bool) -> None:
    who = "" if utt.who is None else f' who="#{_esc_attr(utt.who)}"'
    ident = "" if utt.id_generated or utt.id is None else f' xml:id="{_esc_attr(utt.id)}"'
    out = ["  " * depth, f"<u{who}{ident}>"]
    table = _INLINE
    for part in utt.content:
        (table.get(type(part)) or _writer_of(table, part, "content"))(out, part, materialize)
    out.append("</u>")
    w.lines.append("".join(out))


def _event_tag(item: TimedEvent) -> str:
    """The start tag of a timed event, without its closing '>'."""
    attrs = {
        "end": _ref(item.end),
        "start": _ref(item.start),
        "type": item.type,
        "who": _ref(item.who),
    }
    if not item.id_generated:
        attrs["xml:id"] = item.id
    return f"<{item.tag}{_attrs(attrs)}"


def _write_event(w: _Writer, depth: int, item: TimedEvent, materialize: bool) -> None:
    if item.desc is None:
        w.line(depth, f"{_event_tag(item)}/>")
    else:
        w.line(depth, f"{_event_tag(item)}>")
        w.line(depth + 1, _leaf("desc", {}, item.desc))
        w.line(depth, f"</{item.tag}>")


def _render_event(out: list, item: TimedEvent, materialize: bool) -> None:
    if item.desc is None:
        out.append(f"{_event_tag(item)}/>")
    else:
        out.append(f"{_event_tag(item)}><desc>{_esc_text(item.desc)}</desc></{item.tag}>")


def _render_text(out: list, item: str, materialize: bool) -> None:
    out.append(_esc_text(item))


def _render_anchor(out: list, anchor: AnchorRef, materialize: bool) -> None:
    point = anchor.point
    if point is None:
        out.append("<anchor/>")
    elif anchor.declares is not None and not materialize:
        out.append(f'<anchor xml:id="{_esc_attr(point)}"/>')
    else:
        out.append(f'<anchor synch="#{_esc_attr(point)}"/>')


def _render_seg(out: list, seg: Seg, materialize: bool) -> None:
    # The content loop is here and not in a helper, so that each nesting
    # level costs one frame, as it does in the reader.
    subtype = "" if seg.subtype is None else f' subtype="{_esc_attr(seg.subtype)}"'
    kind = "" if seg.type is None else f' type="{_esc_attr(seg.type)}"'
    ident = "" if seg.id is None else f' xml:id="{_esc_attr(seg.id)}"'
    out.append(f"<seg{subtype}{kind}{ident}>")
    table = _INLINE
    for part in seg.content:
        (table.get(type(part)) or _writer_of(table, part, "content"))(out, part, materialize)
    out.append("</seg>")


def _render_w(out: list, item: W, materialize: bool) -> None:
    ana = "" if item.ana is None else f' ana="#{_esc_attr(item.ana)}"'
    ident = "" if item.id is None else f' xml:id="{_esc_attr(item.id)}"'
    if item.extras:
        out.append(f"<w{ana}{ident}>{_esc_text(item.text)}")
        out.extend(map(_render_opaque, item.extras))
        out.append("</w>")
    else:
        out.append(f"<w{ana}{ident}>{_esc_text(item.text)}</w>")


def _render_pc(out: list, item: Pc, materialize: bool) -> None:
    ana = "" if item.ana is None else f' ana="#{_esc_attr(item.ana)}"'
    ident = "" if item.id is None else f' xml:id="{_esc_attr(item.id)}"'
    out.append(f"<pc{ana}{ident}>{_esc_text(item.text)}")
    out.extend(map(_render_opaque, item.extras))
    out.append("</pc>")


def _render_opaque_item(out: list, item: OpaqueElement, materialize: bool) -> None:
    out.append(_render_opaque(item))


def _write_span_group(w: _Writer, depth: int, group: SpanGroup, materialize: bool = False) -> None:
    w.line(depth, f"<spanGrp{_attrs({'type': group.type})}>")
    for span in group.spans:
        _write_span(w, depth + 1, span)
    w.line(depth, "</spanGrp>")


def _write_span(w: _Writer, depth: int, span: Span) -> None:
    attrs = {
        "ana": _ref(span.ana),
        "from": _ref(span.from_),
        "to": _ref(span.to),
        "xml:id": span.id,
    }
    if span.text:
        w.line(depth, f"<span{_attrs(attrs)}>{_esc_text(span.text)}</span>")
    else:
        w.line(depth, f"<span{_attrs(attrs)}/>")


# How each class that utterance content can hold appends its markup to the
# utterance's list of fragments.
_INLINE: dict[type, Callable[[list, Any, bool], None]] = {
    str: _render_text,
    AnchorRef: _render_anchor,
    OpaqueElement: _render_opaque_item,
    Seg: _render_seg,
    W: _render_w,
    Pc: _render_pc,
    **{cls: _render_event for cls in EVENT_CLASSES.values()},
}

# How each class that the body can hold adds its lines to the body.
_BODY: dict[type, Callable[[_Writer, int, Any, bool], None]] = {
    str: _write_line,
    AnchorRef: _write_line,
    OpaqueElement: _write_line,
    Utterance: _write_utterance,
    SpanGroup: _write_span_group,
    **{cls: _write_event for cls in EVENT_CLASSES.values()},
}

# ---------------------------------------------------------------- back matter

def _write_back_item(w: _Writer, depth: int, item) -> None:
    if isinstance(item, FeatureLib):
        w.line(depth, f"<fLib{_attrs({'n': item.label})}>")
        for feature in item.features:
            _write_feature(w, depth + 1, feature)
        w.line(depth, "</fLib>")
    elif isinstance(item, TagLib):
        w.line(depth, f"<fvLib{_attrs({'n': item.label})}>")
        for tag in item.tags:
            feats = " ".join(f"#{ref}" for ref in tag.feats)
            w.line(depth + 1, f"<fs{_attrs({'feats': feats, 'xml:id': tag.id})}/>")
        w.line(depth, "</fvLib>")
    elif isinstance(item, LexicalEntry):
        w.line(depth, "<entry>")
        for form in item.forms:
            _write_form(w, depth + 1, form)
        w.line(depth, "</entry>")
    elif isinstance(item, InlineStructure):
        _write_fs(w, depth, item.fs, fs_id=item.id)
    elif isinstance(item, SpanGroup):
        _write_span_group(w, depth, item)
    elif isinstance(item, OpaqueElement):
        w.line(depth, _render_opaque(item))
    else:
        raise TeiSerializeError(f"cannot serialise back item {item!r}")


def _write_feature(w: _Writer, depth: int, feature: Feature) -> None:
    attrs = {"name": feature.name, "xml:id": feature.id}
    if isinstance(feature.value, FeatureStructure):
        w.line(depth, f"<f{_attrs(attrs)}>")
        _write_fs(w, depth + 1, feature.value)
        w.line(depth, "</f>")
    else:
        w.line(depth, f"<f{_attrs(attrs)}>{_render_atom(feature.value)}</f>")


def _render_atom(value: FSValue) -> str:
    if isinstance(value, Binary):
        return f'<binary value="{"true" if value.value else "false"}"/>'
    if isinstance(value, Symbol):
        return f"<symbol{_attrs({'value': value.name})}/>"
    if isinstance(value, Numeric):
        return f"<numeric{_attrs({'value': _number(value.value)})}/>"
    if isinstance(value, Str):
        return f"<string>{_esc_text(value.text)}</string>" if value.text else "<string/>"
    raise TeiSerializeError(f"cannot serialise value {value!r}")


def _write_fs(w: _Writer, depth: int, fs: FeatureStructure, fs_id: str | None = None) -> None:
    attrs = {"type": fs.type, "xml:id": fs_id}
    if not fs.features:
        w.line(depth, f"<fs{_attrs(attrs)}/>")
        return
    w.line(depth, f"<fs{_attrs(attrs)}>")
    for name, value in fs.features.items():
        if isinstance(value, FeatureStructure):
            w.line(depth + 1, f"<f{_attrs({'name': name})}>")
            _write_fs(w, depth + 2, value)
            w.line(depth + 1, "</f>")
        else:
            w.line(depth + 1, f"<f{_attrs({'name': name})}>{_render_atom(value)}</f>")
    w.line(depth, "</fs>")


def _write_form(w: _Writer, depth: int, form: InflectedForm) -> None:
    attrs = {"type": form.type, "xml:id": form.id}
    w.line(depth, f"<form{_attrs(attrs)}>")
    w.line(depth + 1, _leaf("orth", {}, form.orth))
    if form.grammar:
        w.line(depth + 1, "<gramGrp>")
        for name, value in form.grammar:
            w.line(depth + 2, _leaf(name, {}, value))
        w.line(depth + 1, "</gramGrp>")
    w.line(depth, "</form>")


# ---------------------------------------------------------------- opaque

def _start_tag(el: OpaqueElement, in_foreign: bool) -> tuple[str, str]:
    """The name of ``el`` as written, and its start tag without the closing '>'.

    An element in another namespace declares it as its default, and a TEI
    element in such an element declares TEI's again (``in_foreign``). An
    attribute in another namespace is written with a prefix declared on
    its element.
    """
    if el.tag.startswith("{"):
        ns, name = el.tag[1:].split("}", 1)
        tag = f'<{name} xmlns="{_esc_attr(ns)}"'
    else:
        name = el.tag
        tag = f'<{name} xmlns="{TEI_NS}"' if in_foreign else f"<{name}"
    prefixes: dict[str, str] = {}
    attrs = ""
    for key, value in sorted(el.attrib):
        if key.startswith("{"):
            ns, local = key[1:].split("}", 1)
            prefix = prefixes.get(ns)
            if prefix is None:
                prefix = prefixes[ns] = f"ns{len(prefixes)}"
                tag += f' xmlns:{prefix}="{_esc_attr(ns)}"'
            key = f"{prefix}:{local}"
        attrs += f' {key}="{_esc_attr(value)}"'
    return name, tag + attrs


def _render_opaque(el: OpaqueElement, in_foreign: bool = False) -> str:
    """``el`` as read, on one line; ``in_foreign`` as for ``_start_tag``."""
    name, open_tag = _start_tag(el, in_foreign)
    foreign = el.tag.startswith("{")
    inner = _esc_text(el.text) if el.text else ""
    tails = el.tails or (None,) * len(el.children)
    for child, tail in zip(el.children, tails):
        inner += _render_opaque(child, foreign)
        if tail:
            inner += _esc_text(tail)
    if inner:
        return f"{open_tag}>{inner}</{name}>"
    return f"{open_tag}/>"
