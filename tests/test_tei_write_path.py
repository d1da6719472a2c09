"""The writer's generated body against the body items it replaces, and the
writer's attribute order.

A document with event-ranged annotations and no body (a converted tier file)
gets its body written straight from the annotations. The reference below
builds the utterance and timed-event items that such a body stands for, and
the writer's ordinary body path must give the same bytes for them, on random
tier documents. The writer writes attributes in the order its call sites
list them, which must be alphabetical.
"""

from __future__ import annotations

import random
import re
from decimal import Decimal

from spokenkit.core import EventInterval
from spokenkit.tei import (
    AnchorRef,
    Kinesic,
    Utterance,
    parse_document,
    serialize_document,
)
from spokenkit.tei.model import EVENT_CLASSES
from spokenkit.tier import Tier, TierDocument, TierSpeaker, to_core
from tests.conftest import FIXTURES

# Tier categories: utterances, the event elements, and unmapped kinds that
# become typed kinesics.
CATEGORIES = ("verbal", "utterance", "vocal", "incident", "kinesic", "gesture", "noise", "gaze")
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
                    content=(AnchorRef(synch=start), text, AnchorRef(synch=end)),
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
            (f"p{start}", f"p{end}", rng.choice(TEXTS))
            for start, end in zip(cuts[::2], cuts[1::2])
        )
        speaker = rng.choice([s.id for s in speakers] + [None])
        tiers.append(Tier(f"tier{t}", speaker, rng.choice(CATEGORIES), events))
    point_ids = tuple(pid for pid, _ in points)
    return TierDocument(speakers, point_ids, tuple(offset for _, offset in points), tuple(tiers))


def test_generated_body_matches_reference_items_on_random_tier_documents():
    rng = random.Random(20261018)
    generated = 0
    for _ in range(200):
        doc = to_core(random_tier_document(rng), PIDS if rng.random() < 0.5 else None)
        if rng.random() < 0.3:
            # Without a tier category the first qualifier's feature decides.
            doc = doc._replace(layers=tuple(x._replace(category=None) for x in doc.layers))
        expected = serialize_document(doc._replace(body=reference_body(doc)))
        assert serialize_document(doc) == expected
        generated += len(doc.annotations)
    assert generated > 500


def test_a_vocal_tier_is_written_as_vocal_elements():
    tiers = (Tier("t1", "s0", "vocal", (("p0", "p1", "laughs"),)),)
    doc = to_core(TierDocument((TierSpeaker("s0", "S"),), ("p0", "p1"), (None, None), tiers))
    out = serialize_document(doc)
    assert b'<vocal end="#p1" start="#p0" who="#s0" xml:id=' in out
    assert b"<kinesic" not in out


# One document that reaches every writer branch that writes attributes.
ALL_ATTRIBUTES = b"""<TEI xmlns="http://www.tei-c.org/ns/1.0"><teiHeader>
<fileDesc><titleStmt><title>t</title></titleStmt><publicationStmt><p>p</p></publicationStmt>
<sourceDesc><p>s</p><recordingStmt><recording type="audio"><date>d</date>
<broadcast><recording type="video"/></broadcast></recording></recordingStmt></sourceDesc></fileDesc>
<encodingDesc><appInfo><application ident="a" version="1"><label>l</label><ptr target="#u1"/>
</application><application ident="b" version="2"/></appInfo></encodingDesc>
<profileDesc><particDesc>
<person age="30" sex="f" xml:id="A"><persName>Ann</persName>
<birth when="1980"><date>1980</date><name type="place">Lyon</name></birth>
<langKnowledge tags="fr"><langKnown level="L1" tag="fr">French</langKnown></langKnowledge></person>
<person sex="m" xml:id="B"><birth when="1970"/></person></particDesc></profileDesc>
<revisionDesc><change when="2011" who="#A">c</change></revisionDesc></teiHeader>
<text><timeline unit="ms" xml:id="TL"><when absolute="0" xml:id="T0"/><when xml:id="T1"/></timeline>
<body>
<u who="#A" xml:id="u1"><anchor synch="#T0"/><anchor xml:id="T2"/>
<vocal end="#T1" start="#T0" type="laugh" who="#B" xml:id="v1"><desc>laugh</desc></vocal>
<kinesic end="#T1" start="#T0" type="nod" who="#A" xml:id="k1"><desc>nods</desc></kinesic>
<incident type="door"/><seg subtype="x" type="y" xml:id="s1"><w ana="#f1" xml:id="w1">oui</w>
<pc ana="#f1" xml:id="p1">.</pc></seg><anchor synch="#T1"/></u>
<incident end="#T1" start="#T0" type="noise" who="#B" xml:id="i1"><desc>bang</desc></incident>
<kinesic start="#T0" xml:id="k2"/>
<spanGrp type="words"><span ana="#f1" from="#w1" to="#w1" xml:id="sp1">oui</span>
<span from="#w1" to="#w1"/></spanGrp>
</body><back>
<fLib n="pos"><f name="pos" xml:id="N"><symbol value="noun"/></f>
<f name="count" xml:id="C"><numeric value="2"/></f><f name="neg" xml:id="G"><binary value="true"/></f>
<f name="agr" xml:id="R"><fs type="agr"><f name="num"><symbol value="sg"/></f></fs></f></fLib>
<fvLib n="tags"><fs feats="#N #C" xml:id="NC"/></fvLib>
<entry><form type="inflected" xml:id="f1"><orth>oui</orth><gramGrp><pos>adv</pos></gramGrp></form></entry>
<fs type="ana" xml:id="fs1"><f name="inner"><fs type="x"><f name="k"><string>v</string></f></fs></f>
<f name="v"><symbol value="w"/></f></fs><fs type="empty" xml:id="fs2"/>
</back></text></TEI>"""

_START_TAG = re.compile(r"<([A-Za-z][\w:.-]*)((?:\s+[\w:.-]+=\"[^\"]*\")*)\s*/?>")
_ATTR_NAME = re.compile(r'\s([\w:.-]+)="')


def start_tag_attributes(data: bytes) -> list[tuple[str, list[str]]]:
    """Each start tag's name and attribute names, namespace declarations left out."""
    return [
        (m.group(1), [n for n in _ATTR_NAME.findall(m.group(2)) if n != "xmlns"])
        for m in _START_TAG.finditer(data.decode("utf-8"))
    ]


def test_every_written_start_tag_lists_its_attributes_alphabetically():
    outputs = []
    for fixture in sorted(FIXTURES.glob("*.xml")):
        doc, _ = parse_document(fixture.read_bytes())
        outputs.append(serialize_document(doc))
    doc, warnings = parse_document(ALL_ATTRIBUTES)
    assert warnings == []
    outputs.append(serialize_document(doc))
    outputs.append(serialize_document(doc, materialize_timeline=True))
    rng = random.Random(7)
    outputs.append(serialize_document(to_core(random_tier_document(rng), PIDS)))
    seen = set()
    for output in outputs:
        for tag, names in start_tag_attributes(output):
            assert names == sorted(names), (tag, names)
            seen.add(tag)
    assert {"recording", "application", "person", "birth", "langKnown", "change"} <= seen
    assert {"timeline", "when", "u", "anchor", "vocal", "kinesic", "incident", "seg"} <= seen
    assert {"w", "pc", "spanGrp", "span", "fLib", "f", "fvLib", "fs", "form", "numeric"} <= seen
