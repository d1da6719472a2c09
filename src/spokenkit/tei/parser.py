"""Reader for the spoken-transcription markup subset.

Parsing maps markup onto the generic annotation model: utterances and
free-standing events become annotations, timelines and anchors become
reference points, feature libraries become tagset declarations. The header
is kept as one element tree, without the layout white space of its
containers; unknown elements in the text are preserved opaquely, so that
serialisation round-trips. A child of the root the model has no place for
is reported. Parsing is deliberately forgiving: defective but well-formed
input loads, and the defects surface through the validator.

The element tree is private to one ``parse_document`` call, and the model
keeps none of its elements, only strings and its own tuples. So the reader
clears each child of ``<text>`` and of ``<body>`` once it has built its
value. Freeing the subtree as the walk goes lowers the count of live
container objects that triggers the cyclic collector, which therefore runs
less often during a parse and scans less each time it does.

The reader's loops, and ``resolve_anchors``, build each value with
``tuple.__new__`` from fields they read themselves, with no helper call per
item: ``W``, ``Pc``, ``AnchorRef``, ``Seg``, ``Utterance``, ``Qualifier``,
the ``TimedEvent`` classes and ``EventInterval``, whose generated
constructors check nothing. ``Annotation`` checks that it has a qualifier,
so it is built so only with a one-element qualifier tuple written in the
same statement; elsewhere it goes through its keyword constructor.

Each timeline is checked and indexed once, as it is read: the loop over its
points refuses what the ``Timeline`` constructor refuses and fills the point
index, ``Timeline.positions``, which later stages read instead of rebuilding.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from decimal import Decimal, InvalidOperation
from operator import itemgetter

from spokenkit.core.model import (
    _INFINITY,
    _ZERO,
    MECH_EVENT,
    PRIMARY,
    TIMELINE_UNITS,
    UNIT_SYMBOLIC,
    WARNING,
    Annotation,
    Document,
    EventInterval,
    Finding,
    Layer,
    Level,
    Qualifier,
    SourceRef,
    SpokenkitError,
    Timeline,
    UnknownIdError,
    first_timeline,
)
from spokenkit.featstruct import (
    Binary,
    Feature,
    FeatureStructure,
    FSValue,
    Numeric,
    Str,
    Symbol,
    TagDecl,
    TagsetError,
    TagsetLibrary,
    build_library,
    strip_ref,
)
from spokenkit.tei.model import (
    EVENT_CLASSES,
    HEADER_CONTAINERS,
    AnchorRef,
    FeatureLib,
    InflectedForm,
    InlineStructure,
    LexicalEntry,
    Metadata,
    OpaqueElement,
    Pc,
    Seg,
    Span,
    SpanGroup,
    TagLib,
    TimedEvent,
    Utterance,
    W,
    annotated_items,
)

TEI_NS = "http://www.tei-c.org/ns/1.0"
XML_NS = "http://www.w3.org/XML/1998/namespace"
XML_ID = "{%s}id" % XML_NS

EVENTS_LAYER = "events"
TRANSCRIPTION_LEVEL = "transcription"
DEFAULT_SOURCE = "source1"

# Event features every parse-built transcription level admits.
BASE_EVENT_FEATURES = frozenset({"utterance", *EVENT_CLASSES})


class TeiParseError(SpokenkitError, ValueError):
    """The input cannot be loaded at all (ill-formed, or no file description)."""


# Every element name the reader dispatches on. Their tags, with and without
# the TEI namespace, resolve to the local name by one dictionary lookup, which
# the reader's loops make inline; ``_local`` also names tags outside it.
_VOCABULARY = (
    "TEI", "text", "timeline", "when", "body", "back", "u", "anchor", "vocal", "desc",
    "kinesic", "incident", "seg", "w", "pc", "spanGrp", "span", "fLib", "fvLib", "fs", "f",
    "binary", "symbol", "numeric", "string", "entry", "form", "orth", "gramGrp",
)
_TEI_PREFIX = f"{{{TEI_NS}}}"
_LOCAL_NAMES = {name: name for name in _VOCABULARY}
_LOCAL_NAMES.update({_TEI_PREFIX + name: name for name in _VOCABULARY})


# Builds a value from its fields, past its constructor; the module docstring
# names the classes built so, and a test pins that their constructors check nothing.
_new = tuple.__new__


def _local(tag: str) -> str:
    """The local name of a tag in the TEI namespace or in none. A tag in any
    other namespace keeps it, so it never passes for a TEI element."""
    local = _LOCAL_NAMES.get(tag)
    if local is not None:
        return local
    if isinstance(tag, str) and tag.startswith(_TEI_PREFIX):
        return tag[len(_TEI_PREFIX):]
    return tag


def _norm_ref(value: str | None) -> str | None:
    return strip_ref(value) if value is not None else None


def _attr_name(name: str) -> str:
    if name == XML_ID:
        return "xml:id"
    if name.startswith("{%s}" % XML_NS):
        return "xml:" + name.rsplit("}", 1)[-1]
    return name


def _opaque(el: ET.Element, containers: frozenset[str] = frozenset()) -> OpaqueElement:
    """``el`` as parsed. In an element named in ``containers``, reached
    through such elements only, text and tails of white space alone are
    layout, and dropped."""
    local = _local(el.tag)
    attrib = tuple(sorted((_attr_name(k), v) for k, v in el.attrib.items()))
    if local in containers:
        children = tuple(_opaque(child, containers) for child in el)
        tails = tuple(map(_unless_layout, (child.tail for child in el)))
        return OpaqueElement(local, attrib, _unless_layout(el.text), children, tails)
    children = tuple(_opaque(child) for child in el)
    tails = tuple(child.tail for child in el)
    return OpaqueElement(local, attrib, el.text, children, tails)


def _unless_layout(text: str | None) -> str | None:
    return text if text and text.strip(" \t\n\r") else None


def _text_of(el: ET.Element | None) -> str | None:
    if el is None:
        return None
    return "".join(el.itertext()).strip()


class _ParseContext:
    """What one ``parse_document`` call gathers as it reads."""

    __slots__ = ("warnings", "anchor_order", "counters", "declared_ids", "taken", "annotations")

    def __init__(self) -> None:
        self.warnings: list[Finding] = []
        self.anchor_order: list[str] = []
        self.counters: dict[str, int] = {}
        self.declared_ids: list[tuple[str, str]] = []
        # The declared ids as written, built when an id is first generated.
        self.taken: set[str] | None = None
        self.annotations: list[Annotation] = []

    def warn(self, code: str, location: str, message: str) -> None:
        self.warnings.append(Finding(code, WARNING, location, message))

    def element_id(self, el: ET.Element, prefix: str) -> tuple[str, bool]:
        """``el``'s ``xml:id`` without its '#', and False; or else, with True,
        a generated id ``prefix``N that no element declares, as written or
        without its '#'."""
        explicit = el.get(XML_ID)
        if explicit is not None:
            return strip_ref(explicit), False
        if self.taken is None:
            self.taken = set(map(itemgetter(0), self.declared_ids))
        n = self.counters.get(prefix, 0)
        while True:
            n += 1
            candidate = f"{prefix}{n}"
            if candidate not in self.taken and "#" + candidate not in self.taken:
                self.counters[prefix] = n
                return candidate, True


def parse_document(data: bytes | str) -> tuple[Document, list[Finding]]:
    """Parse markup into a Document, returning it with any parse warnings.

    Accepts input with or without the TEI namespace (a warning is recorded
    when it is absent). A missing file description is a hard error; every
    other defect is tolerated and left for the validator to report.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise TeiParseError(f"ill-formed markup: {exc}") from exc
    except (LookupError, ValueError) as exc:  # an unknown or unusable encoding declaration
        raise TeiParseError(f"cannot decode markup: {exc}") from exc

    ctx = _ParseContext()
    if root.tag.startswith("{"):
        ns = root.tag[1:].split("}", 1)[0]
        if ns != TEI_NS:
            raise TeiParseError(f"unexpected root namespace {ns!r}")
    else:
        ctx.warn("NO_TEI_NS", "TEI", "document is not in the TEI namespace")
    if _local(root.tag) != "TEI":
        raise TeiParseError(f"expected a TEI root element, got {_local(root.tag)!r}")

    local_names = _LOCAL_NAMES
    declared_ids = [
        (raw, local_names.get(el.tag) or _local(el.tag))
        for el in root.iter()
        if (raw := el.get(XML_ID)) is not None
    ]
    ctx.declared_ids = declared_ids

    # The model holds one header and one text; any other child of the root is reported.
    header_el = text_el = None
    for child in root:
        local = _local(child.tag)
        if local == "teiHeader" and header_el is None:
            header_el = child
        elif local == "text" and text_el is None:
            text_el = child
        else:
            message = f"TEI child {local!r} has no place in the model; dropped"
            ctx.warn("DROPPED_ROOT_CHILD", local, message)
    if header_el is None:
        raise TeiParseError("document has no teiHeader")
    timelines: list[Timeline] = []
    body_items: list = []
    back_items: list = []
    try:
        metadata = _parse_header(header_el, ctx)
        for child in () if text_el is None else text_el:
            local = local_names.get(child.tag)
            if local == "timeline":
                timelines.append(_parse_timeline(child, ctx))
            elif local == "body":
                _parse_body(child, ctx, timelines, body_items)
            elif local == "back":
                back_items += _parse_back(child, ctx)
            else:
                body_items.append(_opaque(child))
            child.clear()
    except RecursionError:
        raise TeiParseError("markup is nested too deeply to parse") from None

    timelines = _absorb_anchor_points(timelines, ctx)
    # One annotation per utterance and free-standing event, in body order, on
    # a transcription level that admits each event feature in use.
    annotations = tuple(ctx.annotations)
    layers: tuple[Layer, ...] = ()
    levels: tuple[Level, ...] = ()
    if annotations:
        features = {ann.qualifiers[0].feature for ann in annotations}
        layers = (Layer(EVENTS_LAYER, "transcription events", TRANSCRIPTION_LEVEL),)
        levels = (
            Level(
                TRANSCRIPTION_LEVEL,
                sources=frozenset({DEFAULT_SOURCE}),
                ranging_mechanism=MECH_EVENT,
                category_selection=frozenset(BASE_EVENT_FEATURES | features),
            ),
        )
    doc = Document(
        metadata=metadata,
        sources=(SourceRef(DEFAULT_SOURCE, PRIMARY),),
        timelines=tuple(timelines),
        layers=layers,
        levels=levels,
        annotations=annotations,
        body=tuple(body_items),
        back=tuple(back_items),
        declared_ids=tuple(declared_ids),
    )
    return doc, ctx.warnings


def _child(el: ET.Element, name: str) -> ET.Element | None:
    """The first child named ``name``, one of the reader's vocabulary."""
    for child in el:
        if _LOCAL_NAMES.get(child.tag) == name:
            return child
    return None


def _children(el: ET.Element, name: str) -> list[ET.Element]:
    """The children named ``name``, one of the reader's vocabulary."""
    return [child for child in el if _LOCAL_NAMES.get(child.tag) == name]


# ---------------------------------------------------------------- header

def _parse_header(header_el: ET.Element, ctx: _ParseContext) -> Metadata:
    # A participant without an id gets a generated one. The tree keeps it, so it is written.
    profile = next((el for el in header_el if _local(el.tag) == "profileDesc"), None)
    for partic in () if profile is None else profile:
        if _local(partic.tag) != "particDesc":
            continue
        for person in partic:
            if _local(person.tag) == "person" and person.get(XML_ID) is None:
                person.set(XML_ID, ctx.element_id(person, "person")[0])
    metadata = Metadata(_opaque(header_el, HEADER_CONTAINERS))

    if metadata.header.find("fileDesc") is None:
        raise TeiParseError("teiHeader has no fileDesc")
    if not metadata.title:
        ctx.warn("NO_TITLE", "fileDesc", "fileDesc has no title")
    if not metadata.publication:
        ctx.warn("NO_PUBLICATION", "fileDesc", "fileDesc has no publication statement text")
    if not metadata.source:
        ctx.warn("NO_SOURCE_DESC", "fileDesc", "fileDesc has no source description text")
    # The views read the first of each section; a later one is kept, and reported.
    seen: set[str] = set()
    for section in metadata.header.children:
        if section.tag in ("fileDesc", "encodingDesc", "profileDesc"):
            if section.tag in seen:
                message = f"teiHeader has more than one {section.tag}; keeping the first"
                ctx.warn("DUP_HEADER_SECTION", section.tag, message)
            seen.add(section.tag)
    return metadata


# ---------------------------------------------------------------- text

def _parse_timeline(tl_el: ET.Element, ctx: _ParseContext) -> Timeline:
    unit = tl_el.get("unit", UNIT_SYMBOLIC)
    if unit not in TIMELINE_UNITS:
        message = f"timeline unit {unit!r} is not recognised; treating as symbolic"
        ctx.warn("UNKNOWN_UNIT", "timeline", message)
        unit = UNIT_SYMBOLIC
    by_id: dict[str, int] = {}  # the point index: each kept point's position
    offsets: list[Decimal | None] = []
    for when in tl_el:
        if _LOCAL_NAMES.get(when.tag) != "when":
            continue
        pid = when.get(XML_ID)
        if pid is None:
            ctx.warn("POINT_WITHOUT_ID", "when", "timeline point without xml:id ignored")
            continue
        if pid[:1] == "#":
            pid = pid[1:]
        if pid in by_id:
            ctx.warn("DUP_POINT", pid, f"duplicate timeline point {pid!r}; keeping the first")
            continue
        by_id[pid] = len(offsets)
        offset = None
        raw_offset = when.get("absolute")
        if raw_offset is not None:
            kind = None
            try:
                offset = Decimal(raw_offset)
                # A NaN refuses the comparison, and raises as an ill-formed number does.
                if not _ZERO <= offset < _INFINITY:
                    kind = "an infinite" if offset.is_infinite() else "a negative"
            except InvalidOperation:
                kind = "a non-numeric"
            if kind is not None:
                offset = None
                message = f"point {pid!r} has {kind} offset {raw_offset!r}"
                ctx.warn("BAD_OFFSET", pid, message)
        offsets.append(offset)
    tl_id, generated = ctx.element_id(tl_el, "timeline")
    # Checked as the constructor checks: a known unit, unique ids, offsets in bounds.
    none = frozenset()
    fields = (tl_id, unit, tuple(by_id), tuple(offsets), none, none, False, not generated)
    return Timeline._indexed(fields, by_id)


def _absorb_anchor_points(timelines: list[Timeline], ctx: _ParseContext) -> list[Timeline]:
    """Append anchor-declared point ids that no timeline covers.

    Documents without an explicit timeline get an implicit one in anchor
    document order; it is never serialised as a timeline element.
    """
    extra = [
        pid for pid in dict.fromkeys(ctx.anchor_order) if not any(pid in tl for tl in timelines)
    ]
    if not extra:
        return timelines
    base = first_timeline(timelines)
    return [base.append_flagged(extra, synthetic=False), *timelines[1:]]


def _parse_body(
    body_el: ET.Element, ctx: _ParseContext, timelines: list[Timeline], items: list
) -> None:
    """Append the body items to ``items``, and annotate each utterance and
    free-standing event among them. Text between them is kept stripped of
    layout. Each child is cleared once its item is built."""
    if body_el.text and (text := body_el.text.strip()):
        items.append(text)
    # Tokens are not annotations: each identified ``w`` is a component of the
    # body already, read with ``document_tokens``.
    annotate = ctx.annotations.append
    for child in body_el:
        tail = child.tail
        local = _LOCAL_NAMES.get(child.tag)
        if local == "u":
            utt_id = child.get(XML_ID)
            if utt_id is None:
                utt_id, generated = ctx.element_id(child, "u")
            else:
                generated = False
                if utt_id[:1] == "#":
                    utt_id = utt_id[1:]
            who = child.get("who")
            if who is not None and who[:1] == "#":
                who = who[1:]
            parts: list[str] = []
            content = tuple(_parse_mixed(child, ctx, parts))
            items.append(_new(Utterance, (utt_id, who, content, generated)))
            qualifier = _new(Qualifier, ("utterance", "".join(parts)))
            annotate(
                _new(Annotation, (utt_id, DEFAULT_SOURCE, None, (qualifier,), EVENTS_LAYER, who))
            )
        elif local in EVENT_CLASSES:
            event = _parse_event(child, EVENT_CLASSES[local], ctx)
            items.append(event)
            desc, kind, who, _, _, event_id, _ = event
            # An informative @type refines the category; 'nv' only marks the
            # event as non-verbal and is not a category of its own.
            feature = kind if kind and kind != "nv" else local
            qualifier = _new(Qualifier, (feature, desc or ""))
            annotate(
                _new(Annotation, (event_id, DEFAULT_SOURCE, None, (qualifier,), EVENTS_LAYER, who))
            )
        elif local == "anchor":
            items.append(_parse_anchor(child, ctx))
        elif local == "spanGrp":
            items.append(_parse_span_group(child, ctx))
        elif local == "timeline":
            timelines.append(_parse_timeline(child, ctx))
        else:
            items.append(_opaque(child))
        child.clear()
        if tail and (text := tail.strip()):
            items.append(text)


def _parse_anchor(el: ET.Element, ctx: _ParseContext) -> AnchorRef:
    declares = el.get(XML_ID)
    if declares is not None:
        if declares[:1] == "#":
            declares = declares[1:]
        ctx.anchor_order.append(declares)
    synch = el.get("synch")
    if synch is not None and synch[:1] == "#":
        synch = synch[1:]
    return _new(AnchorRef, (synch, declares))


def _parse_event(el: ET.Element, cls: type[TimedEvent], ctx: _ParseContext) -> TimedEvent:
    desc = None
    for child in el:
        if _LOCAL_NAMES.get(child.tag) == "desc":
            desc = "".join(child.itertext()).strip()
            break
    event_id = el.get(XML_ID)
    if event_id is None:
        event_id, generated = ctx.element_id(el, cls.tag)
    else:
        generated = False
        if event_id[:1] == "#":
            event_id = event_id[1:]
    who = el.get("who")
    if who is not None and who[:1] == "#":
        who = who[1:]
    start = el.get("start")
    if start is not None and start[:1] == "#":
        start = start[1:]
    end = el.get("end")
    if end is not None and end[:1] == "#":
        end = end[1:]
    return _new(cls, (desc, el.get("type"), who, start, end, event_id, generated))


def _parse_mixed(el: ET.Element, ctx: _ParseContext, parts: list[str]) -> list:
    """The content items of ``el``, with nested segs.

    In the same walk, the text that ``content_text`` would give for these
    items goes to ``parts``, in document order.
    """
    items: list = []
    append = items.append
    add_text = parts.append
    anchor_order = ctx.anchor_order
    text = el.text
    if text:
        append(text)
        add_text(text)
    for child in el:
        local = _LOCAL_NAMES.get(child.tag)
        if local == "w" or local == "pc":
            # The token's text is its own characters: the element's text and
            # the tails of its children, never text inside a child.
            token_text = child.text or ""
            extras: tuple[OpaqueElement, ...] = ()
            if len(child):
                for sub in child:
                    # Anchors may not split tokens; anything inside a token
                    # is preserved opaquely and reported.
                    message = (
                        f"element {_local(sub.tag)!r} inside {local} is not supported; "
                        "preserved opaquely"
                    )
                    ctx.warn(f"UNSUPPORTED_IN_{local.upper()}", local, message)
                    if sub.tail:
                        token_text += sub.tail
                extras = tuple(_opaque(sub) for sub in child)
            token_id = child.get(XML_ID)
            if token_id and token_id[0] == "#":
                token_id = token_id[1:]
            ana = child.get("ana")
            if ana is not None and ana[:1] == "#":
                ana = ana[1:]
            append(_new(W if local == "w" else Pc, (token_text, token_id, ana, extras)))
            add_text(token_text)
        elif local == "anchor":
            declares = child.get(XML_ID)
            if declares is not None:
                if declares[:1] == "#":
                    declares = declares[1:]
                anchor_order.append(declares)
            synch = child.get("synch")
            if synch is not None and synch[:1] == "#":
                synch = synch[1:]
            append(_new(AnchorRef, (synch, declares)))
        elif local == "seg":
            seg_id = child.get(XML_ID)
            if seg_id is not None and seg_id[:1] == "#":
                seg_id = seg_id[1:]
            content = tuple(_parse_mixed(child, ctx, parts))
            append(_new(Seg, (child.get("type"), child.get("subtype"), content, seg_id)))
        elif local in EVENT_CLASSES:
            append(_parse_event(child, EVENT_CLASSES[local], ctx))
        else:
            append(_opaque(child))
        tail = child.tail
        if tail:
            append(tail)
            add_text(tail)
    return items


def _parse_span_group(el: ET.Element, ctx: _ParseContext) -> SpanGroup:
    spans: list[Span] = []
    for child in _children(el, "span"):
        text = _text_of(child)
        spans.append(
            Span(
                from_=_norm_ref(child.get("from")) or "",
                to=_norm_ref(child.get("to")) or "",
                ana=_norm_ref(child.get("ana")),
                id=_norm_ref(child.get(XML_ID)),
                text=text or None,
            )
        )
    return SpanGroup(el.get("type"), tuple(spans))


# ---------------------------------------------------------------- back matter

def _parse_back(back_el: ET.Element, ctx: _ParseContext) -> list:
    items: list = []
    for child in back_el:
        local = _LOCAL_NAMES.get(child.tag)
        if local == "fLib":
            items.append(_parse_flib(child, ctx))
        elif local == "fvLib":
            items.append(_parse_fvlib(child, ctx))
        elif local == "entry":
            items.append(_parse_entry(child))
        elif local == "spanGrp":
            items.append(_parse_span_group(child, ctx))
        elif local == "fs":
            inline = _parse_inline_fs(child, ctx)
            if inline is not None:
                items.append(inline)
        else:
            items.append(_opaque(child))
    return items


def _parse_flib(el: ET.Element, ctx: _ParseContext) -> FeatureLib:
    features: list[Feature] = []
    for name, f_el in _named_features(el, ctx):
        fid = f_el.get(XML_ID)
        if fid is None:
            # The identifier occasionally sits on the value element instead.
            for sub in f_el:
                fid = sub.get(XML_ID)
                if fid is not None:
                    break
        if fid is not None and fid != strip_ref(fid):
            message = f"feature identifier {fid!r} contains '#'; normalised to {strip_ref(fid)!r}"
            ctx.warn("HASH_IN_FEATURE_ID", fid, message)
        features.append(Feature(name, _parse_fsvalue(f_el, ctx), _norm_ref(fid)))
    return FeatureLib(tuple(features), el.get("n"))


def _parse_fvlib(el: ET.Element, ctx: _ParseContext) -> TagLib:
    tags: list[TagDecl] = []
    for fs_el in _children(el, "fs"):
        tag_id = fs_el.get(XML_ID)
        feats = fs_el.get("feats")
        if tag_id is None or feats is None:
            ctx.warn("INCOMPLETE_TAG", "fs", "fvLib entry without xml:id and feats ignored")
            continue
        tags.append(TagDecl(strip_ref(tag_id), tuple(strip_ref(r) for r in feats.split())))
    return TagLib(tuple(tags), el.get("n"))


def _parse_inline_fs(el: ET.Element, ctx: _ParseContext) -> InlineStructure | None:
    fs_id = el.get(XML_ID)
    if fs_id is None:
        ctx.warn("FS_WITHOUT_ID", "fs", "free-standing fs without xml:id ignored")
        return None
    return InlineStructure(strip_ref(fs_id), _parse_fs(el, ctx))


def _parse_fs(el: ET.Element, ctx: _ParseContext) -> FeatureStructure:
    features: dict[str, FSValue] = {}
    for name, f_el in _named_features(el, ctx):
        if name in features:
            message = f"feature {name!r} bound twice in one structure; keeping the first"
            ctx.warn("DUP_FEATURE", name, message)
            continue
        features[name] = _parse_fsvalue(f_el, ctx)
    return FeatureStructure(features, type=el.get("type"))


def _named_features(el: ET.Element, ctx: _ParseContext):
    """The name and element of each ``<f>`` child; a nameless one is reported and skipped."""
    for f_el in _children(el, "f"):
        name = f_el.get("name", "")
        if name:
            yield name, f_el
        else:
            ctx.warn("FEATURE_WITHOUT_NAME", "f", "feature without a name ignored")


def _parse_fsvalue(f_el: ET.Element, ctx: _ParseContext) -> FSValue:
    for child in f_el:
        local = _LOCAL_NAMES.get(child.tag)
        if local == "binary":
            return Binary(child.get("value", "false").lower() == "true")
        if local == "symbol":
            name = child.get("value") or (_text_of(child) or "")
            return Symbol(name) if name else Str("")
        if local == "numeric":
            raw = child.get("value") or (_text_of(child) or "0")
            try:
                return Numeric(int(raw)) if re.fullmatch(r"-?\d+", raw) else Numeric(float(raw))
            except ValueError:
                ctx.warn("BAD_NUMERIC", "numeric", f"non-numeric value {raw!r}; kept as string")
                return Str(raw)
        if local == "string":
            return Str(_text_of(child) or "")
        if local == "fs":
            return _parse_fs(child, ctx)
    return Str(_text_of(f_el) or "")


def _parse_entry(el: ET.Element) -> LexicalEntry:
    forms: list[InflectedForm] = []
    for form_el in _children(el, "form"):
        orth = _text_of(_child(form_el, "orth")) or ""
        grammar: list[tuple[str, str]] = []
        gram = _child(form_el, "gramGrp")
        if gram is not None:
            for feat in gram:
                grammar.append((_local(feat.tag), _text_of(feat) or ""))
        forms.append(
            InflectedForm(
                id=_norm_ref(form_el.get(XML_ID)),
                orth=orth,
                type=form_el.get("type"),
                grammar=tuple(grammar),
            )
        )
    return LexicalEntry(tuple(forms))


# ---------------------------------------------------------------- anchors

def resolve_anchors(doc: Document) -> tuple[Document, list[Finding]]:
    """Compute event intervals from anchors and start/end attributes.

    An utterance spans [first anchor, last anchor); free-standing events use
    their start/end references. Dangling point references are findings, and
    the affected event keeps no interval. So is an event whose ends lie on two
    timelines, even two that share an id (``TIMELINE_MISMATCH``): a point
    belongs to the first timeline that declares it. Findings are located at
    the event id, or at ``body`` when the id is empty. Each interval goes to
    its item's annotation, as ``annotated_items`` pairs them.
    """
    findings: list[Finding] = []
    point_home: dict[str, Timeline] = {}  # each point's first declaring timeline
    for tl in reversed(doc.timelines):
        point_home.update(dict.fromkeys(tl.ids, tl))

    resolved: list[tuple[int, EventInterval]] = []  # (body position, interval)
    for n, item in enumerate(doc.body):
        interval = None
        if isinstance(item, Utterance):
            utt_id = item.id
            location = utt_id or "body"
            first = last = None
            # Nested content is walked in document order, one iterator per open container.
            pending = [iter(item.content)]
            while pending:
                for inner in pending[-1]:
                    if isinstance(inner, AnchorRef):
                        synch, pid = inner
                        if pid is None:
                            pid = synch
                            if pid is None:
                                continue
                        if pid in point_home:
                            if first is None:
                                first = pid
                            last = pid
                        else:
                            findings.append(_dangling(utt_id, location, pid))
                    elif isinstance(inner, (Seg, Utterance)):
                        pending.append(iter(inner.content))
                        break
                else:
                    pending.pop()
            if first is not None:
                home = point_home[first]
                if home is point_home[last]:
                    interval = _new(EventInterval, (first, last, home.id))
                else:
                    message = f"{utt_id!r} anchors span different timelines"
                    findings.append(Finding("TIMELINE_MISMATCH", WARNING, location, message))
        elif isinstance(item, TimedEvent) and item.id is not None:
            _, _, _, start, end, event_id, _ = item
            location = event_id or "body"
            if start is not None and start not in point_home:
                findings.append(_dangling(event_id, location, start))
                start = None
            if end is not None and end not in point_home:
                findings.append(_dangling(event_id, location, end))
                end = None
            if start is not None and end is not None:
                home = point_home[start]
                if home is point_home[end]:
                    interval = _new(EventInterval, (start, end, home.id))
                else:
                    message = f"{event_id!r} start and end are on different timelines"
                    findings.append(Finding("TIMELINE_MISMATCH", WARNING, location, message))
            elif start is not None:
                interval = _new(EventInterval, (start, start, point_home[start].id))
        if interval is not None:
            resolved.append((n, interval))

    if not resolved:
        return doc, findings
    owners = annotated_items(doc.body, doc.annotations)
    annotations = list(doc.annotations)
    for n, interval in resolved:
        owner = owners.get(n)
        if owner is not None and annotations[owner].range is None:
            annotations[owner] = annotations[owner].with_range(interval)
    return doc._replace(annotations=tuple(annotations)), findings


def _dangling(event_id: str, location: str, pid: str) -> Finding:
    message = f"{event_id!r} references unknown point {pid!r}"
    return Finding("DANGLING_REF", WARNING, location, message)


# ---------------------------------------------------------------- analyses

def build_document_library(doc: Document) -> TagsetLibrary:
    """Build the tagset library from the document's own declarations."""
    features: list[Feature] = []
    tags: list[TagDecl] = []
    for item in doc.back:
        if isinstance(item, FeatureLib):
            features.extend(item.features)
        elif isinstance(item, TagLib):
            tags.extend(item.tags)
    return build_library(features, tags)


def own_library(doc: Document) -> tuple[TagsetLibrary, TagsetError | None]:
    """The document's own tagset library, with None; or else, when it is
    inconsistent, an empty library with the error that says so."""
    try:
        return build_document_library(doc), None
    except TagsetError as exc:
        return TagsetLibrary({}, {}), exc


def analysis_targets(
    doc: Document, lib: TagsetLibrary | None = None
) -> dict[str, FeatureStructure | InflectedForm]:
    """What each analysis reference of the document resolves to, by target id.

    The table holds the tags of ``lib``, expanded into their structures; the
    document's free-standing structures; and its lexical forms. An id in more
    than one of these resolves to the tag, then the structure, then the form.
    ``lib`` defaults to the document's own library; when that is
    inconsistent, no tag resolves.
    """
    if lib is None:
        lib, _ = own_library(doc)
    targets: dict[str, FeatureStructure | InflectedForm] = {
        form.id: form for entry in doc.lexical_entries for form in entry.forms if form.id
    }
    targets.update((item.id, item.fs) for item in doc.back if isinstance(item, InlineStructure))
    targets.update((tag_id, tag.expanded) for tag_id, tag in lib.tag_lib.items())
    return targets


def resolve_ana(
    doc: Document, lib: TagsetLibrary | None, ref: str
) -> FeatureStructure:
    """Resolve an analysis reference to its feature structure.

    Tag references resolve through the library (built from the document when
    not supplied, raising :class:`TagsetError` when it is inconsistent);
    references to free-standing structures resolve directly.
    """
    if lib is None:
        lib = build_document_library(doc)
    target = analysis_targets(doc, lib).get(strip_ref(ref))
    if not isinstance(target, FeatureStructure):
        raise UnknownIdError("analysis target", ref)
    return target
