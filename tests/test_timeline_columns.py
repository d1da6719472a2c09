"""The timeline as columns.

A ``Timeline`` stores its points as an id column, an offset column and two
flag sets. Construction refuses what building a ``TimePoint`` per point and
the timeline's unit and duplicate-id checks refuse, plus what the two column
checks refuse. ``TimePoint`` is only a view built by ``Timeline.points`` and
``Timeline.point``; no pipeline stage builds one.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.core import TimePoint, Timeline, overlaps_report, sequence_implicit
from spokenkit.core.model import TIMELINE_UNITS
from spokenkit.tei import parse_document, resolve_anchors, serialize_document
from spokenkit.tier import from_core, parse_tier, to_core
from spokenkit.validate import validate_all
from tests.conftest import FIXTURES

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

# A small alphabet, so that duplicate and stray ids are drawn often.
POINT_IDS = st.sampled_from(["a", "b", "c", "d", "e", "~auto1"])
OFFSETS = st.one_of(
    st.none(),
    st.integers(-3, 1000),
    st.floats(min_value=-2.0, allow_infinity=False),
    st.decimals(min_value=-2, max_value=1000, allow_nan=False, places=3),
    st.sampled_from([float("nan"), Decimal("NaN"), Decimal("sNaN")]),
)


@st.composite
def columns(draw):
    ids = draw(st.lists(POINT_IDS, max_size=6))
    n_offsets = draw(st.one_of(st.just(len(ids)), st.integers(0, 7)))
    offsets = draw(st.lists(OFFSETS, min_size=n_offsets, max_size=n_offsets))
    flag_ids = st.frozensets(st.one_of(st.sampled_from(ids), POINT_IDS) if ids else POINT_IDS)
    synthetic = draw(st.one_of(st.just(frozenset()), flag_ids))
    anchor_declared = draw(st.one_of(st.just(frozenset()), flag_ids))
    unit = draw(st.sampled_from(TIMELINE_UNITS + ("minutes",)))
    return unit, tuple(ids), tuple(offsets), synthetic, anchor_declared


def point_checks_refuse(unit, ids, offsets, synthetic, anchor_declared) -> bool:
    """Whether a ``TimePoint`` per point, the unit and duplicate-id checks or
    the two column checks refuse these columns."""
    if len(offsets) != len(ids) or not synthetic | anchor_declared <= set(ids):
        return True
    try:
        for pid, offset in zip(ids, offsets):
            TimePoint(pid, offset=offset)
    except ValueError:
        return True
    return unit not in TIMELINE_UNITS or len(set(ids)) != len(ids)


@PROPERTY_SETTINGS
@given(columns())
def test_columns_are_checked_as_points_were_and_index_their_positions(cols):
    unit, ids, offsets, synthetic, anchor_declared = cols
    if point_checks_refuse(*cols):
        with pytest.raises(ValueError):
            Timeline("tl", unit, ids, offsets, synthetic, anchor_declared)
        return
    tl = Timeline("tl", unit, ids, offsets, synthetic, anchor_declared)
    assert [tl.index_of(pid) for pid in ids] == list(range(len(ids)))
    expected = tuple(
        TimePoint(
            pid,
            offset=offset,
            synthetic=pid in synthetic,
            anchor_declared=pid in anchor_declared,
        )
        for pid, offset in zip(ids, offsets)
    )
    assert len(tl.points) == len(ids)
    assert tuple(tl.points) == expected
    assert tuple(tl.point(pid) for pid in ids) == expected
    backwards = replace(tl, ids=ids[::-1], offsets=offsets[::-1])
    assert [backwards.index_of(pid) for pid in ids[::-1]] == list(range(len(ids)))
    assert tuple(backwards.points) == expected[::-1]


@pytest.mark.parametrize(
    "ids, offsets, synthetic, anchor_declared, message",
    [
        (("a", "b"), (None,), frozenset(), frozenset(), "2 point ids but 1 offsets"),
        (("a",), (None,), frozenset({"z"}), frozenset(), "synthetic point 'z' is not one of"),
        (("a",), (None,), frozenset(), frozenset({"z"}), "anchor-declared point 'z' is not one"),
        (("a", "b"), (Decimal(1), -1), frozenset(), frozenset(), "point 'b': offset must be"),
        (("a", "b", "a"), (None,) * 3, frozenset(), frozenset(), "duplicate point id 'a'"),
    ],
)
def test_each_column_check_names_what_it_refuses(ids, offsets, synthetic, anchor_declared, message):
    with pytest.raises(ValueError, match=message):
        Timeline("tl", "s", ids, offsets, synthetic, anchor_declared)


@pytest.mark.parametrize("nan", [float("nan"), Decimal("NaN"), Decimal("-NaN"), Decimal("sNaN")])
@pytest.mark.parametrize("offsets", [("nan", 1), (0, "nan", 1), (None, 2, "nan")])
def test_a_nan_offset_is_refused_with_the_point_named(nan, offsets):
    ids = ("a", "b", "c")[: len(offsets)]
    pid = ids[offsets.index("nan")]
    offsets = tuple(nan if o == "nan" else o for o in offsets)
    message = f"point {pid!r}: offset must be a number, not NaN"
    with pytest.raises(ValueError, match=message):
        Timeline("tl", "s", ids, offsets)
    with pytest.raises(ValueError, match=message):
        TimePoint(pid, offset=nan)


@pytest.mark.parametrize(
    "synthetic, flags",
    [(True, ({"b", "c", "d"}, {"a"})), (False, ({"b"}, {"a", "c", "d"}))],
)
def test_appended_points_are_flagged_and_have_no_offsets(synthetic, flags):
    tl = Timeline("tl", "s", ("a", "b"), (Decimal(1), None), frozenset({"b"}), frozenset({"a"}))
    appended = tl.append_flagged(["c", "d"], synthetic=synthetic)
    assert appended.ids == ("a", "b", "c", "d")
    assert appended.offsets == (Decimal(1), None, None, None)
    assert (appended.synthetic, appended.anchor_declared) == flags
    assert [appended.index_of(pid) for pid in "abcd"] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="duplicate point id 'b'"):
        tl.append_flagged(["c", "b"], synthetic=synthetic)


def _tei_stages(data: bytes) -> None:
    doc, _ = parse_document(data)
    resolved, _ = resolve_anchors(doc)
    serialize_document(resolved)
    _shared_stages(sequence_implicit(resolved))


def _tier_stages(data: bytes) -> None:
    doc = to_core(parse_tier(data))
    serialize_document(doc)
    _shared_stages(sequence_implicit(doc))


def _shared_stages(doc) -> None:
    validate_all(doc)
    overlaps_report(doc)
    serialize_document(doc, materialize_timeline=True)
    td, _ = from_core(doc)
    to_core(td)


def test_no_stage_builds_a_time_point(monkeypatch):
    def refuse(point):
        raise AssertionError(f"a TimePoint was built for {point.id!r}")

    monkeypatch.setattr(TimePoint, "__post_init__", refuse)
    tl = Timeline.of("tl", ["a"])
    assert len(tl.points) == 1
    with pytest.raises(AssertionError, match="'a'"):
        tl.point("a")
    for path in sorted(FIXTURES.glob("*.xml")):
        _tei_stages(path.read_bytes())
    _tier_stages((FIXTURES / "score_dialogue.tier").read_bytes())
