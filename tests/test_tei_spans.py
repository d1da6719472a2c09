from __future__ import annotations

import pytest

from spokenkit.core import Qualifier, UnknownIdError
from spokenkit.featstruct import FeatureStructure, Symbol, flatten
from spokenkit.tei import (
    build_document_library,
    extract_spans,
    parse_document,
    resolve_ana,
    seg_stats,
)
from spokenkit.tei.model import AnchorRef, Pc, Seg, Utterance, W, content_items
from tests.conftest import fixture_bytes


def test_extract_spans_compound_word_form(pomme_doc):
    word_forms, findings = extract_spans(pomme_doc)
    assert findings == []
    (wf,) = word_forms
    assert wf.tokens == ("t1", "t2", "t3")
    assert wf.orth == "pomme de terre"
    assert wf.lex_ref == "pomme_de_terre_sing"
    assert Qualifier("number", "singular") in wf.qualifiers


def test_extract_spans_single_token():
    data = fixture_bytes("pomme.xml").replace(
        b'from="#t1" to="#t3"', b'from="#t2" to="#t2"'
    )
    doc, _ = parse_document(data)
    word_forms, findings = extract_spans(doc)
    assert findings == []
    assert word_forms[0].tokens == ("t2",)


def test_extract_spans_shared_token_is_legal():
    doc, _ = parse_document(fixture_bytes("shared_token.xml"))
    word_forms, findings = extract_spans(doc)
    assert findings == []
    assert [wf.tokens for wf in word_forms] == [("t1", "t2"), ("t2", "t3", "t4")]
    shared = set(word_forms[0].tokens) & set(word_forms[1].tokens)
    assert shared == {"t2"}


def test_extract_spans_reversed_span_is_a_finding():
    data = fixture_bytes("pomme.xml").replace(
        b'from="#t1" to="#t3"', b'from="#t3" to="#t1"'
    )
    doc, _ = parse_document(data)
    word_forms, findings = extract_spans(doc)
    assert word_forms == []
    assert any("against document order" in f.message for f in findings)


def test_extract_spans_dangling_token_is_a_finding():
    data = fixture_bytes("pomme.xml").replace(b'to="#t3"', b'to="#t9"')
    doc, _ = parse_document(data)
    word_forms, findings = extract_spans(doc)
    assert word_forms == []
    assert any("t9" in f.message for f in findings)


def test_resolve_ana_through_the_tagset(tags_doc):
    fs = resolve_ana(tags_doc, None, "#Ncms__")
    assert set(flatten(fs)) == {
        ("partOfSpeech", "commonNoun"),
        ("grammaticalGender", "masculine"),
        ("grammaticalNumber", "singular"),
    }


def test_resolve_ana_inline_structure():
    data = fixture_bytes("tags.xml").replace(
        b"</back>",
        b'<fs type="analysis" xml:id="inline1"><f name="mood"><symbol value="indicative"/></f></fs></back>',
    )
    doc, _ = parse_document(data)
    fs = resolve_ana(doc, None, "#inline1")
    assert fs == FeatureStructure({"mood": Symbol("indicative")}, type="analysis")


def test_resolve_ana_unknown_reference(tags_doc):
    with pytest.raises(UnknownIdError) as exc:
        resolve_ana(tags_doc, None, "#NoSuchTag")
    assert "NoSuchTag" in str(exc.value)


def test_w_ana_resolves_like_cli_expansion():
    doc, _ = parse_document(fixture_bytes("tagged_sentence.xml"))
    lib = build_document_library(doc)
    fs = resolve_ana(doc, lib, "#Ncms__")
    assert fs.features["grammaticalNumber"] == Symbol("singular")


def test_seg_stats_on_the_segmented_sentence():
    doc, _ = parse_document(fixture_bytes("seg.xml"))
    assert seg_stats(doc) == {"sentence": 1, "phrase": 3, "word": 12, "punct": 1}


def test_seg_stats_empty_document():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    assert seg_stats(doc) == {}


def test_seg_stats_counts_nested_segments():
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b"<anchor synch=\"#T1\"/>Okay. ",
        b'<anchor synch="#T1"/><seg type="phrase"><seg type="phrase">Okay.</seg></seg> ',
    )
    doc, _ = parse_document(data)
    assert seg_stats(doc) == {"phrase": 2}


_W1 = W("b", id="w1")
_W2 = W("c", id="w2")
_ANCHOR = AnchorRef(synch="T1")
_INNER = Seg(type="inner", content=(_ANCHOR, _W2))
_OUTER = Seg(type="outer", content=(_W1, _INNER))
_UTT = Utterance("u1", content=("a ", _OUTER, Pc(".")))


@pytest.mark.parametrize(
    "items, kind, expected",
    [
        ((_UTT,), W, [_W1, _W2]),
        ((_UTT, _W1), (W, AnchorRef), [_W1, _ANCHOR, _W2, _W1]),
        ((_UTT,), (Utterance, Seg), [_UTT, _OUTER, _INNER]),
        ((), W, []),
    ],
    ids=["nested-segs", "kind-tuple", "container-first", "empty"],
)
def test_content_items(items, kind, expected):
    assert content_items(items, kind) == expected
