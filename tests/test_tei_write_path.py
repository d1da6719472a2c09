"""The writer's generated body against the body items it replaces.

A document with event-ranged annotations and no body (a converted tier file)
gets its body written straight from the annotations. The reference below
builds the utterance and timed-event items that such a body stands for, and
the writer's ordinary body path must give the same bytes for them, on random
tier documents.
"""

from __future__ import annotations

import random
from dataclasses import replace
from decimal import Decimal

from spokenkit.core import EventInterval
from spokenkit.tei import AnchorRef, Kinesic, TextSegment, Utterance, serialize_document
from spokenkit.tei.model import EVENT_CLASSES
from spokenkit.tier import Tier, TierDocument, TierEvent, TierSpeaker, to_core

# Tier categories: utterances, the event elements, and unmapped kinds that
# become typed kinesics.
CATEGORIES = ("verbal", "utterance", "incident", "kinesic", "gesture", "noise", "gaze")
PIDS = {"verbal": "http://example.org/dc/utterance", "gesture": "http://example.org/dc/gest"}
TEXTS = ("", "oui", 'a & b < c > d "e"', "très bien", "((cough))", "'quoted'", " ")


def reference_body(doc):
    """Body items for the event-ranged annotations of ``doc``, built as
    model objects in annotation order."""
    layer_categories = {layer.id: layer.category for layer in doc.layers}
    items = []
    for ann in doc.annotations:
        if not isinstance(ann.range, EventInterval):
            continue
        feature = layer_categories.get(ann.layer) or ann.qualifiers[0].feature_key()
        text = ann.qualifiers[0].value_key()
        start, end = ann.range.start, ann.range.end
        if feature in ("utterance", "verbal"):
            items.append(
                Utterance(
                    id=ann.id,
                    who=ann.who,
                    content=(AnchorRef(synch=start), TextSegment(text), AnchorRef(synch=end)),
                    id_generated=False,
                )
            )
        else:
            cls = EVENT_CLASSES.get(feature, Kinesic)
            items.append(
                cls(
                    desc=text,
                    type=None if feature == cls.tag else feature,
                    who=ann.who,
                    start=start,
                    end=end,
                    id=ann.id,
                    id_generated=False,
                )
            )
    return tuple(items)


def random_tier_document(rng: random.Random) -> TierDocument:
    speakers = tuple(TierSpeaker(f"s{i}", f"Speaker {i} & co") for i in range(rng.randint(0, 3)))
    n_points = rng.randint(2, 10)
    with_offsets = rng.random() < 0.5
    points = tuple(
        (f"p{i}", Decimal(i) / 4 if with_offsets else None) for i in range(n_points)
    )
    tiers = []
    for t in range(rng.randint(0, 6)):
        cuts = sorted(rng.sample(range(n_points), rng.randint(0, n_points)))
        events = tuple(
            TierEvent(f"p{start}", f"p{end}", rng.choice(TEXTS))
            for start, end in zip(cuts[::2], cuts[1::2])
        )
        speaker = rng.choice([s.id for s in speakers] + [None])
        tiers.append(Tier(f"tier{t}", speaker, rng.choice(CATEGORIES), events))
    return TierDocument(speakers, points, tuple(tiers))


def test_generated_body_matches_reference_items_on_random_tier_documents():
    rng = random.Random(20261018)
    generated = 0
    for _ in range(200):
        doc = to_core(random_tier_document(rng), PIDS if rng.random() < 0.5 else None)
        if rng.random() < 0.3:
            # Without a tier category the first qualifier's feature decides.
            doc = replace(doc, layers=tuple(replace(x, category=None) for x in doc.layers))
        expected = serialize_document(replace(doc, body=reference_body(doc)))
        assert serialize_document(doc) == expected
        generated += len(doc.annotations)
    assert generated > 500
