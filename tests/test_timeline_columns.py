"""The timeline as columns.

A ``Timeline`` stores its points as an id column, an offset column and two
flag sets; a point is its position in the columns. Construction refuses what
the per-point offset rule, the timeline's unit and duplicate-id checks and
the two column checks refuse. ``append_flagged`` checks only the points it
appends, and gives what the checked ``_replace`` gives.
"""

from __future__ import annotations

import copy
import pickle
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.core import Timeline
from spokenkit.core.model import TIMELINE_UNITS

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

# A small alphabet, so that duplicate and stray ids are drawn often.
POINT_IDS = st.sampled_from(["a", "b", "c", "d", "e", "~auto1"])
OFFSETS = st.one_of(
    st.none(),
    st.integers(-3, 1000),
    st.floats(min_value=-2.0, allow_infinity=False),
    st.decimals(min_value=-2, max_value=1000, allow_nan=False, places=3),
    st.sampled_from([float("nan"), Decimal("NaN"), Decimal("sNaN")]),
    st.sampled_from([float("inf"), Decimal("Infinity"), float("-inf"), Decimal("-Infinity")]),
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


def offset_refusal(pid, offset) -> str | None:
    """The message that refuses ``offset`` as the offset of point ``pid``, or
    None when the point may carry it: the per-point rule, written out."""
    if offset is None:
        return None
    # A signalling Decimal NaN refuses every comparison, so ask it first.
    if (isinstance(offset, Decimal) and offset.is_nan()) or offset != offset:
        return f"point {pid!r}: offset must be a number, not NaN"
    if offset < 0:
        return f"point {pid!r}: offset must be non-negative"
    if offset == float("inf"):
        return f"point {pid!r}: offset must be finite"
    return None


def rows(tl: Timeline) -> list[tuple]:
    """Each point of ``tl`` in order, read from the columns by position."""
    return [
        (tl.ids[n], tl.offsets[n], tl.ids[n] in tl.synthetic, tl.ids[n] in tl.anchor_declared)
        for n in range(len(tl.ids))
    ]


@PROPERTY_SETTINGS
@given(columns())
def test_columns_are_checked_as_points_were_and_index_their_positions(cols):
    unit, ids, offsets, synthetic, anchor_declared = cols
    other_checks_refuse = (
        len(offsets) != len(ids)
        or not synthetic | anchor_declared <= set(ids)
        or unit not in TIMELINE_UNITS
        or len(set(ids)) != len(ids)
    )
    offset_refusals = [r for r in map(offset_refusal, ids, offsets) if r is not None]
    if other_checks_refuse or offset_refusals:
        with pytest.raises(ValueError) as refused:
            Timeline("tl", unit, ids, offsets, synthetic, anchor_declared)
        if not other_checks_refuse:
            assert str(refused.value) == offset_refusals[0]
        return
    tl = Timeline("tl", unit, ids, offsets, synthetic, anchor_declared)
    assert [tl.index_of(pid) for pid in ids] == list(range(len(ids)))
    expected = [
        (pid, offset, pid in synthetic, pid in anchor_declared)
        for pid, offset in zip(ids, offsets)
    ]
    assert rows(tl) == expected
    backwards = tl._replace(ids=ids[::-1], offsets=offsets[::-1])
    assert [backwards.index_of(pid) for pid in ids[::-1]] == list(range(len(ids)))
    assert rows(backwards) == expected[::-1]


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
        Timeline("tl", "s", (pid,), (nan,))


@pytest.mark.parametrize("inf", [float("inf"), Decimal("Infinity")])
@pytest.mark.parametrize("offsets", [("inf",), (0, "inf"), (None, 2, "inf")])
def test_an_infinite_offset_is_refused_with_the_point_named(inf, offsets):
    ids = ("a", "b", "c")[: len(offsets)]
    pid = ids[offsets.index("inf")]
    offsets = tuple(inf if o == "inf" else o for o in offsets)
    with pytest.raises(ValueError, match=f"point {pid!r}: offset must be finite"):
        Timeline("tl", "s", ids, offsets)


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


def replaced(tl: Timeline, point_ids, synthetic: bool) -> Timeline:
    """``tl.append_flagged(point_ids, synthetic=synthetic)`` built the long
    way: the whole edited timeline sent through the checking constructor."""
    added = frozenset(point_ids)
    return tl._replace(
        ids=tl.ids + tuple(point_ids),
        offsets=tl.offsets + (None,) * len(point_ids),
        synthetic=tl.synthetic | added if synthetic else tl.synthetic,
        anchor_declared=tl.anchor_declared if synthetic else tl.anchor_declared | added,
    )


@pytest.mark.parametrize("synthetic", [True, False])
@pytest.mark.parametrize(
    "point_ids, repeated",
    [(["c", "d", "c"], "c"), (["c", "a"], "a"), (["b"], "b"), (["c", "c", "a"], "c")],
)
def test_an_appended_id_that_repeats_a_point_is_refused(synthetic, point_ids, repeated):
    tl = Timeline("tl", "s", ("a", "b"), (Decimal(1), None), frozenset({"b"}), frozenset({"a"}))
    message = f"timeline 'tl': duplicate point id {repeated!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        tl.append_flagged(point_ids, synthetic=synthetic)
    with pytest.raises(ValueError, match=f"^{message}$"):
        replaced(tl, point_ids, synthetic)


@pytest.mark.parametrize("synthetic", [True, False])
def test_an_appended_timeline_indexes_its_points_and_survives_copy_and_pickle(synthetic):
    tl = Timeline("tl", "ms", ("a", "b"), (Decimal(1), 2), frozenset({"b"}), id_declared=True)
    appended = tl.append_flagged(("c", "~auto1"), synthetic=synthetic)
    # ``==`` compares every field but ``id_declared``, the flags included.
    assert appended == replaced(tl, ("c", "~auto1"), synthetic)
    assert appended.id_declared and type(appended) is Timeline
    assert appended.points == appended.ids == ("a", "b", "c", "~auto1")
    assert dict(appended.positions) == {"a": 0, "b": 1, "c": 2, "~auto1": 3}
    assert [appended.index_of(pid) for pid in appended.ids] == [0, 1, 2, 3]
    assert "c" in appended and "c" not in tl and "d" not in appended
    assert dict(tl.positions) == {"a": 0, "b": 1}
    for twin in (copy.copy(appended), copy.deepcopy(appended), pickle.loads(pickle.dumps(appended))):
        assert twin == appended and twin.id_declared
        assert dict(twin.positions) == dict(appended.positions)


@PROPERTY_SETTINGS
@given(
    st.lists(POINT_IDS, unique=True, max_size=5),
    st.lists(POINT_IDS, max_size=4),
    st.booleans(),
)
def test_appending_equals_the_checked_replace(ids, point_ids, synthetic):
    flagged = frozenset(ids[:1])
    tl = Timeline("tl", "s", tuple(ids), (None,) * len(ids), flagged, flagged)
    try:
        expected = replaced(tl, point_ids, synthetic)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            tl.append_flagged(point_ids, synthetic=synthetic)
        assert str(refused.value) == str(exc)
        return
    appended = tl.append_flagged(point_ids, synthetic=synthetic)
    assert appended == expected
    assert dict(appended.positions) == dict(expected.positions)
