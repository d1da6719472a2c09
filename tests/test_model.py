from __future__ import annotations

from dataclasses import replace

import pytest

from spokenkit.core import (
    Annotation,
    ComponentRefs,
    Document,
    EventInterval,
    Layer,
    Level,
    Qualifier,
    ScaleInterval,
    SourceRef,
    Timeline,
    UnknownIdError,
    check_level_coherence,
    mechanism,
)


def test_secondary_source_requires_parents():
    with pytest.raises(ValueError):
        SourceRef("derived", kind="secondary")
    ok = SourceRef("derived", kind="secondary", parents=("audio",))
    assert ok.parents == ("audio",)


def test_primary_source_rejects_parents():
    with pytest.raises(ValueError):
        SourceRef("audio", kind="primary", parents=("x",))


def test_scale_interval_orders_endpoints():
    with pytest.raises(ValueError):
        ScaleInterval(2.0, 1.0)
    assert ScaleInterval(1.0, 1.0).start == 1.0


def test_component_refs_non_empty_and_distinct():
    with pytest.raises(ValueError):
        ComponentRefs(())
    with pytest.raises(ValueError):
        ComponentRefs(("a", "a"))


def test_timeline_indices_must_be_consecutive():
    with pytest.raises(ValueError, match="duplicate point id 'a'"):
        Timeline("tl", "ms", ("a", "a"), (None, None))


def test_timeline_point_lookup():
    tl = Timeline.of("tl", ["a", "b", "c"])
    assert tl.index_of("c") == 2
    assert "b" in tl
    with pytest.raises(UnknownIdError):
        tl.index_of("zz")


def test_timeline_unknown_point_id():
    tl = Timeline.of("tl", ["a", "b"])
    with pytest.raises(UnknownIdError) as exc:
        tl.index_of("zz")
    assert exc.value.ref == "zz"
    assert "zz" not in tl


def test_timeline_lookup_follows_replaced_points():
    tl = Timeline.of("tl", ["a", "b", "c"])
    changed = replace(tl, ids=("c", "d"), offsets=(None, None))
    assert changed.index_of("c") == 0
    assert changed.index_of("d") == 1
    assert changed.offsets[changed.index_of("d")] is None
    assert "a" not in changed
    with pytest.raises(UnknownIdError):
        changed.index_of("b")
    assert tl.index_of("c") == 2


def test_timeline_index_does_not_affect_equality_hash_or_repr():
    one = Timeline("tl", "ms", ("a", "b"), (10, None))
    # Built from a timeline whose index held other positions.
    other = replace(Timeline.of("tl", ["b", "a", "c"], "ms"), ids=("a", "b"), offsets=(10, None))
    assert one == other
    assert hash(one) == hash(other)
    assert repr(one) == repr(other)
    assert "by_id" not in repr(one)
    assert repr(one) == (
        "Timeline(id='tl', unit='ms', ids=('a', 'b'), offsets=(10, None), "
        "synthetic=frozenset(), anchor_declared=frozenset(), implicit=False, id_declared=False)"
    )


def test_timeline_rejects_duplicate_point_id():
    with pytest.raises(ValueError, match="duplicate point id 'a'"):
        Timeline.of("tl", ["a", "b", "a"])


def test_negative_offset_rejected():
    with pytest.raises(ValueError, match="point 'p': offset must be non-negative"):
        Timeline("tl", "s", ("p",), (-1,))


def test_annotation_requires_qualifier():
    with pytest.raises(ValueError):
        Annotation(id="a", source="s", range=None, qualifiers=(), layer="l")


def test_mechanism_classification():
    tl = Timeline.of("tl", ["a", "b"])
    assert mechanism(ScaleInterval(0, 1)) == "scale"
    assert mechanism(EventInterval("a", "b", tl.id)) == "event"
    assert mechanism(ComponentRefs(("x",))) == "component"


def _doc_with_level(annotations, selection=("partOfSpeech",), mech="event"):
    return Document(
        sources=(SourceRef("src"),),
        timelines=(Timeline.of("tl", ["a", "b", "c"]),),
        layers=(Layer("layer1", "test layer", "level1"),),
        levels=(
            Level(
                "level1",
                sources=frozenset({"src"}),
                ranging_mechanism=mech,
                category_selection=frozenset(selection),
            ),
        ),
        annotations=tuple(annotations),
    )


def test_component_annotation_in_event_level_is_a_violation():
    doc = _doc_with_level(
        [
            Annotation(
                id="a1",
                source="src",
                range=ComponentRefs(("x",)),
                qualifiers=(Qualifier("partOfSpeech", "noun"),),
                layer="layer1",
            )
        ]
    )
    violations = check_level_coherence(doc, "level1")
    assert [v.code for v in violations] == ["LEVEL_MECHANISM"]


def test_qualifier_outside_selection_is_a_violation():
    doc = _doc_with_level(
        [
            Annotation(
                id="a1",
                source="src",
                range=EventInterval("a", "b", "tl"),
                qualifiers=(Qualifier("grammaticalGender", "masculine"),),
                layer="layer1",
            )
        ]
    )
    violations = check_level_coherence(doc, "level1")
    assert [v.code for v in violations] == ["LEVEL_CATEGORY"]
    assert "grammaticalGender" in violations[0].message


def test_source_outside_level_is_a_violation():
    doc = _doc_with_level(
        [
            Annotation(
                id="a1",
                source="other",
                range=EventInterval("a", "b", "tl"),
                qualifiers=(Qualifier("partOfSpeech", "noun"),),
                layer="layer1",
            )
        ]
    )
    doc.sources = doc.sources + (SourceRef("other"),)
    assert [v.code for v in check_level_coherence(doc, "level1")] == ["LEVEL_SOURCE"]


def test_unknown_level_raises():
    doc = _doc_with_level([])
    with pytest.raises(UnknownIdError):
        check_level_coherence(doc, "nope")


def test_dialogue_level_is_coherent(dialogue_doc):
    from spokenkit.tei import resolve_anchors

    doc, _ = resolve_anchors(dialogue_doc)
    assert check_level_coherence(doc, "transcription") == []


def test_word_form_requires_tokens():
    from spokenkit.core import WordForm

    def word_form(rng):
        return WordForm(
            id="wf",
            source="src",
            range=rng,
            qualifiers=(Qualifier("wordForm", "x"),),
            layer="wordForms",
        )

    for rng in (None, EventInterval("a", "b", "tl")):
        with pytest.raises(ValueError, match="requires a component range"):
            word_form(rng)
    with pytest.raises(ValueError):
        word_form(ComponentRefs(()))
    assert word_form(ComponentRefs(("t1", "t2"))).tokens == ("t1", "t2")
