"""``convert --to tei`` on generated documents: convention promotion, then the writer.

Promotion rebuilds only the utterances that a rule changed and re-derives
only their annotations' text. On parsed documents, whose annotation text is
the text of their utterances, that gives what rebuilding every utterance and
re-deriving every text gave; the reference below is that algorithm. The
writer renders content through one table keyed by class; what it writes must
read back as the same document and write the same bytes again.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.core import Finding, Qualifier
from spokenkit.core.model import WARNING
from spokenkit.tei import (
    AnchorRef,
    Kinesic,
    OpaqueElement,
    Pc,
    Seg,
    TeiSerializeError,
    Utterance,
    W,
    load_convention_rules,
    parse_document,
    promote_document,
    serialize_document,
)
from spokenkit.tei.conventions import BUILTIN_RULES, _apply_rules
from spokenkit.tei.model import content_items
from tests.conftest import parse_fixture
from tests.test_tei_read_path import _Gen

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

MARKED = ("((cough))", "a ((laugh)) b", "((", "x ((y", "((a))((b))", "[g:nod]", "((a)) ((", "))")
RULE_SETS = (
    None,
    load_convention_rules("\\(\\((.+?)\\)\\)\tvocal\t1\n\\[g:(.+?)\\]\tkinesic\t1\n"),
)


class _MarkedGen(_Gen):
    """The read path's random documents, with convention markers and stray
    ``((`` in their text, nested segs included."""

    def text(self) -> str:
        return self.rand.choice(MARKED) if self.rand.random() < 0.3 else super().text()


def _marked_document(seed: int):
    return parse_document(_MarkedGen(random.Random(seed)).document())[0]


def reference_promote_document(doc, rules):
    """Promotion as it was: every utterance rebuilt, the rebuilt document
    compared with the old one, and after any change the text of every
    utterance annotation re-derived."""
    rules = BUILTIN_RULES if rules is None else rules
    findings: list[Finding] = []
    body = []
    for item in doc.body:
        if isinstance(item, Utterance):
            content = []
            for part in item.content:
                pieces = _apply_rules(part, rules) if isinstance(part, str) else []
                if any(isinstance(p, str) and "((" in p for p in pieces):
                    message = f"unbalanced '((' in utterance {item.id!r}; text left as is"
                    findings.append(Finding("UNBALANCED_MARKER", WARNING, item.id, message))
                    content.append(part)
                elif pieces:
                    content.extend(p for p in pieces if p)
                else:
                    content.append(part)
            item = item._replace(content=tuple(content))
        body.append(item)
    if tuple(body) == doc.body:
        return doc, findings
    texts: dict[str, list[str]] = {}
    for item in body:
        if isinstance(item, Utterance):
            texts.setdefault(item.id, []).append(item.plain_text())
    queues = {key: iter(queue) for key, queue in texts.items()}
    annotations = []
    for ann in doc.annotations:
        if ann.qualifiers and ann.qualifiers[0].feature == "utterance":
            text = next(queues.get(ann.id, iter(())), None)
            if text is not None:
                ann = ann._replace(qualifiers=(Qualifier("utterance", text),))
        annotations.append(ann)
    return doc._replace(body=tuple(body), annotations=tuple(annotations)), findings


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from(RULE_SETS))
def test_promotion_matches_rebuilding_every_utterance(seed, rules):
    doc = _marked_document(seed)
    promoted, findings = promote_document(doc, rules)
    assert (promoted, findings) == reference_promote_document(doc, rules)
    # What no rule changed is kept as the same object.
    for old, new in zip(doc.body, promoted.body):
        assert (new is old) is (new == old)
    for old, new in zip(doc.annotations, promoted.annotations):
        assert (new is old) is (new == old)
    assert (promoted is doc) is (promoted.body == doc.body)


def test_generated_documents_reach_every_promotion_case():
    seen: set[str] = set()
    for seed in range(100):
        doc = _marked_document(seed)
        promoted, findings = promote_document(doc)
        pairs = [(a, b) for a, b in zip(doc.body, promoted.body) if isinstance(a, Utterance)]
        segs = content_items(doc.body, Seg)
        nested = [inner for seg in segs for inner in content_items(seg.content, Seg)]
        seen |= {
            name
            for name, present in {
                "changed": any(new is not old for old, new in pairs),
                "unchanged": any(new is old for old, new in pairs),
                "stray marker": bool(findings),
                "unchanged document": promoted is doc,
                "marker in nested seg": any(
                    "((" in t for s in nested for t in s.content if isinstance(t, str)
                ),
            }.items()
            if present
        }
    assert seen == {
        "changed", "unchanged", "stray marker", "unchanged document", "marker in nested seg",
    }


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_written_documents_read_back_and_write_the_same_bytes(seed):
    doc, _ = parse_document(_Gen(random.Random(seed)).document())
    written = serialize_document(doc)
    again, _ = parse_document(written)
    assert again == doc
    assert serialize_document(again) == written
    # Materialising writes declaring anchors as references, so the document
    # read back from the first write is the one that must be stable.
    materialized, _ = parse_document(serialize_document(doc, materialize_timeline=True))
    written = serialize_document(materialized, materialize_timeline=True)
    again, _ = parse_document(written)
    assert again == materialized
    assert serialize_document(again, materialize_timeline=True) == written


class _MarkedW(W):
    __slots__ = ()


class _Nod(Kinesic):
    __slots__ = ()


class _Note(OpaqueElement):
    __slots__ = ()


class _Turn(Utterance):
    __slots__ = ()


def _with_body(*items):
    return parse_fixture("seg.xml")._replace(body=items)


def test_a_subclass_is_written_as_its_base_class():
    base = (
        W("oui", id="w1", ana="t"),
        Kinesic(desc="nod", start="T0", id="k1", id_generated=False),
        OpaqueElement("hi", text="x"),
    )
    derived = (
        _MarkedW("oui", id="w1", ana="t"),
        _Nod(desc="nod", start="T0", id="k1", id_generated=False),
        _Note("hi", text="x"),
    )
    expected = serialize_document(_with_body(Utterance("u1", content=base), *base[1:]))
    assert serialize_document(_with_body(_Turn("u1", content=derived), *derived[1:])) == expected


@pytest.mark.parametrize(
    "body, message",
    [
        ((W("oui"),), "cannot serialise body item W("),
        ((Pc("."),), "cannot serialise body item Pc("),
        ((Seg(),), "cannot serialise body item Seg("),
        ((object(),), "cannot serialise body item <object"),
        ((Utterance("u", content=(Utterance("v"),)),), "cannot serialise content item Utterance("),
        ((Utterance("u1", content=(AnchorRef(), 3)),), "cannot serialise content item 3"),
    ],
)
def test_an_item_out_of_place_is_refused(body, message):
    with pytest.raises(TeiSerializeError) as exc:
        serialize_document(_with_body(*body))
    assert str(exc.value).startswith(message)
