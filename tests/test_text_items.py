"""Transcription text is held as plain ``str``, never as an object.

Utterance and seg content, and the body, hold each run of text as an exact
``str`` between the markup items. So the cyclic collector never tracks it.
The text the model gives, per utterance and per paired annotation, is pinned
on every fixture that holds utterances.
"""

from __future__ import annotations

import gc
import random

import pytest

from spokenkit.tei import (
    AnchorRef,
    Incident,
    Kinesic,
    OpaqueElement,
    Pc,
    Seg,
    SpanGroup,
    Utterance,
    Vocal,
    W,
    parse_document,
    promote_document,
    serialize_document,
)
from spokenkit.tei.model import annotated_items
from tests.conftest import FIXTURES
from tests.test_convert_tei_properties import _marked_document
from tests.test_tei_read_path import _Gen
from tests.test_tei_roundtrip import _random_document

CONTENT_TYPES = {str, AnchorRef, Vocal, Kinesic, Incident, Seg, W, Pc, OpaqueElement}
BODY_TYPES = {str, Utterance, Vocal, Kinesic, Incident, AnchorRef, SpanGroup, OpaqueElement}

# The plain_text() of each body utterance, in body order, which is also the
# text of its paired annotation.
UTTERANCE_TEXTS = {
    "anchored_dialogue.xml": [
        "Okay. Très bien, très bien.",
        "Alors ça depend un petit peu. ",
        "Ah oui?. ",
    ],
    "inline_anchors.xml": [
        "Okay. Très bien, très bien.",
        "Alors ça dépend  un petit peu.",
        "Ah oui?.",
    ],
    "pomme.xml": ["pomme de terre"],
    "seg.xml": ["Literate and illiterate speech in a language like English are plainly different."],
    "shared_token.xml": ["du coup de main"],
    "tagged_neuter.xml": ["Das Kind lacht."],
    "tagged_sentence.xml": ["Le petit chat est mort."],
}


def text_items(doc) -> list:
    """Every text item of the body and of utterance and seg content, after
    checking that each item of either is of a type it may hold."""
    texts = []

    def walk(items, allowed):
        for item in items:
            assert type(item) in allowed, item
            if isinstance(item, str):
                texts.append(item)
            elif isinstance(item, (Utterance, Seg)):
                walk(item.content, CONTENT_TYPES)

    walk(doc.body, BODY_TYPES)
    return texts


def assert_plain(texts) -> None:
    for text in texts:
        assert type(text) is str
        assert not gc.is_tracked(text)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.xml")), ids=lambda path: path.name)
def test_fixture_text_is_plain_str(fixture):
    doc, _ = parse_document(fixture.read_bytes())
    texts = text_items(doc)
    assert_plain(texts)
    assert bool(texts) is (fixture.name in UTTERANCE_TEXTS)


@pytest.mark.parametrize("name", sorted(UTTERANCE_TEXTS))
def test_utterance_and_annotation_text_of_fixtures(name):
    doc, _ = parse_document((FIXTURES / name).read_bytes())
    pairs = annotated_items(doc.body, doc.annotations)
    utterances = [(n, item) for n, item in enumerate(doc.body) if isinstance(item, Utterance)]
    assert [item.plain_text() for _, item in utterances] == UTTERANCE_TEXTS[name]
    assert [doc.annotations[pairs[n]].qualifiers[0].value for n, _ in utterances] == (
        UTTERANCE_TEXTS[name]
    )


def test_generated_text_is_plain_str():
    seen = {"content": 0, "body": 0, "promoted": 0}
    for seed in range(60):
        doc, _ = parse_document(_Gen(random.Random(seed)).document())
        texts = text_items(doc)
        assert_plain(texts)
        seen["content"] += len(texts)
        promoted, _ = promote_document(_marked_document(seed))
        texts = text_items(promoted)
        assert_plain(texts)
        seen["promoted"] += len(texts)
        written = serialize_document(_random_document(random.Random(seed)))
        doc, _ = parse_document(written)
        assert_plain(text_items(doc))
        seen["body"] += sum(isinstance(item, str) for item in doc.body)
    assert all(seen.values()), seen
