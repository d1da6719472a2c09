"""The reader's one-pass walk against the content walkers it replaces.

``parse_document`` builds each utterance's text while it parses the content,
and ``resolve_anchors`` keeps only the first and last resolved anchor. The
references below compute the same results from the parsed content with
``content_text`` and ``content_items``, on random documents. Tokens are not
annotations: the annotations are exactly one per utterance and free-standing
event, in body order. ``validate_all`` finds the same in a parsed document as
in its resolved copy, so ``spokenkit validate`` resolves no anchors. A TEI
→ TEI pass keeps every explicit ``xml:id``, empty ones included. The reader
clears the element tree as it goes; no element reaches the model, and a
parse leaves nothing for the cyclic collector.
"""

from __future__ import annotations

import gc
import random
import xml.etree.ElementTree as ET
from collections import Counter

from spokenkit.core import Annotation, EventInterval, Finding, Qualifier
from spokenkit.core.model import WARNING
from spokenkit.tei import (
    AnchorRef,
    Incident,
    Kinesic,
    Pc,
    Seg,
    TimedEvent,
    Utterance,
    Vocal,
    W,
    parse_document,
    resolve_anchors,
    serialize_document,
)
from spokenkit.tei.model import content_items, content_text
from spokenkit.validate import validate_all
from tests.conftest import FIXTURES, cyclic_garbage

TEI_NS = "http://www.tei-c.org/ns/1.0"
XML_ID = "{http://www.w3.org/XML/1998/namespace}id"
WORDS = ("oui", "non", "très", "bien", "a&b", "x<y", " ", "")
TIMELINE_IDS = ("T0", "T1", "T2", "T3", "T4")
SECOND_TIMELINE_IDS = ("X0", "X1")


class _Gen:
    """Random markup for one document; ids are numbered per document."""

    def __init__(self, rand: random.Random) -> None:
        self.rand = rand
        self.n = 0
        self.declared: list[str] = []
        self.words: list[str] = []

    def next_id(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def ident(self, prefix: str, share: float) -> str:
        """An ``xml:id`` attribute: a new id with probability ``share``, an
        empty one with 0.1, or else none."""
        roll = self.rand.random()
        if roll >= share:
            return ' xml:id=""' if roll < share + 0.1 else ""
        ident = self.next_id(prefix)
        if prefix == "w":
            self.words.append(ident)
        return f' xml:id="{ident}"'

    def text(self) -> str:
        word = self.rand.choice(WORDS)
        return word.replace("&", "&amp;").replace("<", "&lt;")

    def point_ref(self) -> str:
        choices = list(TIMELINE_IDS) + list(SECOND_TIMELINE_IDS) + self.declared + ["nowhere"]
        ref = self.rand.choice(choices)
        return ref if self.rand.random() < 0.3 else "#" + ref

    def anchor(self) -> str:
        if self.rand.random() < 0.3:
            pid = self.next_id("A")
            self.declared.append(pid)
            return f'<anchor xml:id="{pid}"/>'
        if self.rand.random() < 0.05:
            return "<anchor/>"
        return f'<anchor synch="{self.point_ref()}"/>'

    def w(self) -> str:
        attrs = self.ident("w", 0.7)
        if self.rand.random() < 0.3:
            attrs += ' ana="#tag"'
        if self.rand.random() < 0.1:
            inner = f"{self.text()}<hi>{self.text()}</hi>{self.text()}"
        elif self.rand.random() < 0.05:
            inner = f"{self.text()}{self.anchor()}{self.text()}"
        else:
            inner = self.text()
        return f"<w{attrs}>{inner}</w>"

    def pc(self) -> str:
        attrs = self.ident("p", 0.5)
        inner = "<c>.</c>." if self.rand.random() < 0.1 else self.rand.choice((".", ",", ""))
        return f"<pc{attrs}>{inner}</pc>"

    def event(self, tag: str, free: bool) -> str:
        attrs = f' type="{self.rand.choice(("nv", "gesture", ""))}"'
        if self.rand.random() < 0.6:
            attrs += f' xml:id="{self.next_id(tag[0])}"'
        if free and self.rand.random() < 0.8:
            attrs += f' start="{self.point_ref()}"'
            if self.rand.random() < 0.7:
                attrs += f' end="{self.point_ref()}"'
        if self.rand.random() < 0.3:
            return f"<{tag}{attrs}/>"
        return f"<{tag}{attrs}><desc>{self.text()}</desc></{tag}>"

    def content(self, depth: int) -> str:
        parts = [self.text()]
        for _ in range(self.rand.randint(0, 6)):
            kind = self.rand.random()
            if kind < 0.3:
                parts.append(self.w())
            elif kind < 0.45:
                parts.append(self.anchor())
            elif kind < 0.55:
                parts.append(self.pc())
            elif kind < 0.7 and depth < 3:
                seg_id = self.ident("s", 0.5)
                parts.append(f'<seg type="phrase"{seg_id}>{self.content(depth + 1)}</seg>')
            elif kind < 0.75:
                parts.append(self.event("vocal", free=False))
            elif kind < 0.8:
                parts.append(self.event("kinesic", free=False))
            elif kind < 0.85:
                parts.append(self.event("incident", free=False))
            elif kind < 0.9:
                parts.append(f"<hi>{self.text()}</hi>")
            parts.append(self.text())
        return "".join(parts)

    def utterance(self) -> str:
        return f'<u who="#S1"{self.ident("u", 0.6)}>{self.content(0)}</u>'

    def span_group(self) -> str:
        """Mostly nothing; else spans over the words so far, or over a word
        that is not there."""
        if self.rand.random() >= 0.3:
            return ""
        spans = []
        for _ in range(self.rand.randint(1, 3)):
            ends = [self.rand.choice(self.words or ["nowhere"]) for _ in range(2)]
            spans.append(f'<span{self.ident("sp", 0.5)} from="#{ends[0]}" to="#{ends[1]}"/>')
        return f'<spanGrp type="phrase">{"".join(spans)}</spanGrp>'

    def document(self) -> str:
        timelines = []
        if self.rand.random() < 0.8:
            whens = "".join(f'<when xml:id="{pid}"/>' for pid in TIMELINE_IDS)
            timelines.append(f'<timeline unit="ms" xml:id="tl1">{whens}</timeline>')
        if self.rand.random() < 0.3:
            whens = "".join(f'<when xml:id="{pid}"/>' for pid in SECOND_TIMELINE_IDS)
            timelines.append(f'<timeline xml:id="tl2">{whens}</timeline>')
        body = []
        for _ in range(self.rand.randint(0, 6)):
            kind = self.rand.random()
            if kind < 0.6:
                body.append(self.utterance())
            elif kind < 0.7:
                body.append(self.event("vocal", free=True))
            elif kind < 0.8:
                body.append(self.event("kinesic", free=True))
            elif kind < 0.9:
                body.append(self.event("incident", free=True))
            else:
                body.append(self.anchor())
        body.append(self.span_group())
        ns = f' xmlns="{TEI_NS}"' if self.rand.random() < 0.85 else ""
        return (
            f"<TEI{ns}><teiHeader><fileDesc><titleStmt><title>t</title></titleStmt>"
            "<publicationStmt><p>p</p></publicationStmt><sourceDesc><p>s</p></sourceDesc>"
            f"</fileDesc></teiHeader><text>{''.join(timelines)}"
            f"<body>{''.join(body)}</body></text></TEI>"
        )


def reference_annotations(doc) -> list[Annotation]:
    """One annotation per utterance and free-standing event, in body order."""
    annotations = []
    for item in doc.body:
        if isinstance(item, Utterance):
            qualifier = Qualifier("utterance", content_text(item.content))
        elif isinstance(item, TimedEvent):
            feature = item.type if item.type and item.type != "nv" else item.tag
            qualifier = Qualifier(feature, item.desc or "")
        else:
            continue
        annotations.append(
            Annotation(
                id=item.id,
                source="source1",
                range=None,
                qualifiers=(qualifier,),
                layer="events",
                who=item.who,
            )
        )
    return annotations


def reference_resolution(doc) -> tuple[list[EventInterval | None], list[Finding]]:
    """Intervals and findings from the first and last resolved anchor of each utterance.

    There is one interval, or None, per utterance and free-standing event, in
    body order.
    """
    home = {}  # each point's first declaring timeline
    for tl in doc.timelines:
        for pid in tl.ids:
            home.setdefault(pid, tl)
    intervals: list[EventInterval | None] = []
    findings: list[Finding] = []

    def known(item, pid):
        if pid is not None and pid not in home:
            message = f"{item.id!r} references unknown point {pid!r}"
            findings.append(Finding("DANGLING_REF", WARNING, item.id or "body", message))
            return None
        return pid

    for item in doc.body:
        interval = None
        if isinstance(item, Utterance):
            points = [anchor.point for anchor in content_items(item.content, AnchorRef)]
            resolved = [known(item, pid) for pid in points if pid is not None]
            resolved = [pid for pid in resolved if pid is not None]
            if resolved:
                first, last = resolved[0], resolved[-1]
                if home[first] is home[last]:
                    interval = EventInterval(first, last, home[first].id)
                else:
                    message = f"{item.id!r} anchors span different timelines"
                    findings.append(
                        Finding("TIMELINE_MISMATCH", WARNING, item.id or "body", message)
                    )
        elif isinstance(item, TimedEvent):
            start, end = known(item, item.start), known(item, item.end)
            if start is not None and end is not None:
                if home[start] is home[end]:
                    interval = EventInterval(start, end, home[start].id)
                else:
                    message = f"{item.id!r} start and end are on different timelines"
                    findings.append(
                        Finding("TIMELINE_MISMATCH", WARNING, item.id or "body", message)
                    )
            elif start is not None:
                interval = EventInterval(start, start, home[start].id)
        else:
            continue
        intervals.append(interval)
    return intervals, findings


def cases_of(doc, warnings, findings) -> set[str]:
    """Which of the cases the random documents must cover this document has."""
    words = content_items(doc.body, W)
    anchors = content_items(doc.body, AnchorRef)
    utterances = [item for item in doc.body if isinstance(item, Utterance)]
    inline = [item for u in utterances for item in content_items(u.content, TimedEvent)]
    cases = {
        "nested seg": any(content_items(seg.content, Seg) for seg in content_items(doc.body, Seg)),
        "identified w": any(w.id for w in words),
        "id-less w": any(not w.id for w in words),
        "w with child": any(w.extras for w in words),
        "pc": bool(content_items(doc.body, Pc)),
        "inline vocal": any(isinstance(item, Vocal) for item in inline),
        "inline kinesic": any(isinstance(item, Kinesic) for item in inline),
        "inline incident": any(isinstance(item, Incident) for item in inline),
        "free vocal": any(isinstance(item, Vocal) for item in doc.body),
        "declaring anchor": any(a.declares for a in anchors),
        "referencing anchor": any(a.synch for a in anchors),
        "unknown point": any(f.code == "DANGLING_REF" for f in findings),
        "timeline mismatch": any(f.code == "TIMELINE_MISMATCH" for f in findings),
        "empty utterance id": any(u.id == "" for u in utterances),
        "second timeline": len(doc.timelines) > 1,
        "no namespace": any(w.code == "NO_TEI_NS" for w in warnings),
    }
    return {name for name, present in cases.items() if present}


def test_one_pass_read_matches_content_walkers_on_random_documents():
    rand = random.Random(20111018)
    seen: set[str] = set()
    for _ in range(300):
        doc, warnings = parse_document(_Gen(rand).document())

        expected = reference_annotations(doc)
        assert list(doc.annotations) == expected
        assert [layer.id for layer in doc.layers] == (["events"] if expected else [])

        resolved, findings = resolve_anchors(doc)
        intervals, expected_findings = reference_resolution(doc)
        assert findings == expected_findings
        assert [(type(a), a.id) for a in resolved.annotations] == [
            (type(a), a.id) for a in doc.annotations
        ]
        assert [a.range for a in resolved.annotations] == intervals
        seen |= cases_of(doc, warnings, findings)
    assert seen == {
        "nested seg", "identified w", "id-less w", "w with child", "pc", "inline vocal",
        "inline kinesic", "inline incident", "free vocal", "declaring anchor", "referencing anchor",
        "unknown point", "timeline mismatch", "empty utterance id", "second timeline",
        "no namespace",
    }


def test_validate_finds_the_same_without_anchor_resolution_on_random_documents():
    """Each document also runs with its second timeline renamed to the first's
    id, so that resolved intervals lie on the second of two timelines ``tl1``."""
    rand = random.Random(20111019)
    on_shared_id = 0
    for _ in range(300):
        markup = _Gen(rand).document()
        for text in (markup, markup.replace('xml:id="tl2"', 'xml:id="tl1"')):
            doc, _ = parse_document(text)
            resolved, _ = resolve_anchors(doc)
            assert validate_all(doc) == validate_all(resolved)
        on_shared_id += len(doc.timelines) == 2 and any(
            a.range is not None and a.range.start in SECOND_TIMELINE_IDS
            for a in resolved.annotations
        )
    assert on_shared_id >= 10


def _ids(markup: str | bytes) -> Counter:
    """The local name and ``xml:id`` of each element that has one."""
    return Counter(
        (el.tag.rsplit("}", 1)[-1], el.get(XML_ID))
        for el in ET.fromstring(markup).iter()
        if el.get(XML_ID) is not None
    )


def test_tei_to_tei_keeps_every_explicit_id_on_random_documents():
    """Empty ids included, so the output validates as the input does."""
    rand = random.Random(20111020)
    empty: set[str] = set()
    for _ in range(300):
        markup = _Gen(rand).document()
        doc, _ = parse_document(markup)
        written = serialize_document(doc)
        assert _ids(written) == _ids(markup)
        assert validate_all(parse_document(written)[0]) == validate_all(doc)
        empty |= {tag for tag, ident in _ids(markup) if ident == ""}
    assert empty == {"u", "w", "pc", "seg", "span"}


def _elements_reachable(*roots) -> list[ET.Element]:
    """The elements reachable from ``roots`` by object references; classes
    are not followed, so the walk stays within the values."""
    found: list[ET.Element] = []
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, ET.Element):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_the_walk_finds_an_element_held_by_a_value():
    element = ET.Element("w")
    assert _elements_reachable([W("x", extras=({"k": (element,)},))]) == [element]


def _markups():
    for path in sorted(FIXTURES.glob("*.xml")):
        yield path.read_bytes()
    rand = random.Random(20111021)
    for _ in range(100):
        yield _Gen(rand).document()


def test_no_element_escapes_into_the_model_and_no_garbage_is_left():
    markups = list(_markups())
    assert cyclic_garbage(lambda: [parse_document(markup) for markup in markups]) == 0
    for markup in markups:
        doc, warnings = parse_document(markup)
        assert _elements_reachable(doc, warnings) == []
