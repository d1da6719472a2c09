"""Generated tier texts: valid ones round-trip bit-exactly once each offset is
spelled as the writer spells it and each line ends in LF, they read into one
``(start, end, text)`` tuple per event line and two point columns, and a text
with one planted defect is refused at the line of that defect."""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.core import EventInterval, Qualifier
from spokenkit.tier import (
    TIER_TIMELINE,
    TierParseError,
    from_core,
    parse_tier,
    serialize_tier,
    to_core,
)

# The separators ``str.splitlines`` splits on, and the field separator.
SEPARATORS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FIELD_TEXT = st.text(
    st.characters(blacklist_characters=SEPARATORS, blacklist_categories=("Cs",)), max_size=6
)
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

# Spellings of an offset ``d.ddd`` that the reader takes for the same number
# and the writer, which writes ``str(Decimal)``, respells.
RESPELLINGS = (
    lambda c: "+" + c,
    lambda c: " " + c,
    lambda c: "0" + c,
    lambda c: c + "e0",
    lambda c: c[:-1] + "_" + c[-1],
    lambda c: str(int(c.replace(".", ""))) + "e-3",
)


def _insert_in_order(draw, lines: list, extra: list) -> None:
    """Insert ``extra`` into ``lines`` at drawn positions, keeping the order
    of both lists."""
    lo = 0
    for item in extra:
        at = draw(st.integers(lo, len(lines)))
        lines.insert(at, item)
        lo = at + 1


@st.composite
def tier_layouts(draw):
    """A valid tier text as a list of ``[kind, fields]`` lines.

    Events are listed in any order across and within tiers; some points are
    declared after the events that use them; comments and blank lines sit
    anywhere.
    """
    n_points = draw(st.integers(2, 10))
    with_offsets = draw(st.booleans())
    offset = 0
    points = []
    for n in range(n_points):
        raw = "-"
        if with_offsets and not draw(st.booleans()):
            offset += draw(st.integers(1, 2000))
            raw = f"{offset // 1000}.{offset % 1000:03d}"
            if not draw(st.integers(0, 3)):
                raw = draw(st.sampled_from(RESPELLINGS))(raw)
        points.append(["point", [f"p{n}", raw]])
    speakers = [["speaker", [f"s{n}", draw(FIELD_TEXT)]] for n in range(draw(st.integers(0, 3)))]
    tiers, events = [], []
    for t in range(draw(st.integers(1, 4))):
        speaker = draw(st.sampled_from([s[1][0] for s in speakers] + ["-"]))
        tiers.append(["tier", [f"t{t}", speaker, draw(st.sampled_from(["v", "gaze", "noise"]))]])
        cuts = sorted(draw(st.sets(st.integers(0, n_points - 1), min_size=2, max_size=n_points)))
        for start, end in zip(cuts, cuts[1:]):
            if not draw(st.booleans()):
                events.append(["event", [f"t{t}", f"p{start}", f"p{end}", draw(FIELD_TEXT)]])
    lines = speakers + tiers + draw(st.permutations(events))
    _insert_in_order(draw, lines, points)
    asides = [["comment", [f"# note {n}"]] for n in range(draw(st.integers(0, 3)))]
    asides += [["blank", []]] * draw(st.integers(0, 2))
    for aside in asides:
        lines.insert(draw(st.integers(0, len(lines))), aside)
    return lines


def render(lines, line_end: str = "\n", final_line_end: bool = True) -> str:
    out = []
    for kind, fields in lines:
        if kind in ("comment", "blank", "raw"):
            out.append("".join(fields))
        else:
            out.append("\t".join([kind if kind == "event" else "@" + kind, *fields]))
    text = "".join(line + line_end for line in out)
    return text if final_line_end else text[: -len(line_end)]


@st.composite
def tier_texts(draw):
    """A valid layout and its text, which sometimes has CRLF line ends and
    sometimes no line end after a last line that is not blank."""
    lines = draw(tier_layouts())
    line_end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    final_line_end = lines[-1][0] == "blank" or draw(st.integers(0, 3)) > 0
    return lines, render(lines, line_end, final_line_end)


@PROPERTY_SETTINGS
@given(tier_texts())
def test_valid_generated_texts_round_trip_bit_exactly(case):
    lines, text = case
    once = serialize_tier(parse_tier(text))
    # One pass spells each offset as the writer does and ends every line,
    # the last one included, in LF.
    for kind, fields in lines:
        if kind == "point" and fields[1] != "-":
            fields[1] = str(Decimal(fields[1]))
    assert once == render(lines)
    assert serialize_tier(parse_tier(once)) == once


@PROPERTY_SETTINGS
@given(tier_layouts())
def test_events_are_the_fields_of_their_lines_in_file_order(lines):
    text = render(lines)
    td = parse_tier(text)
    event_lines = [line for line in text.splitlines() if line.startswith("event\t")]
    event_fields = [line.split("\t")[1:] for line in event_lines]
    for tier in td.tiers:
        assert tier.events == tuple(tuple(f[1:]) for f in event_fields if f[0] == tier.id)
    doc = to_core(td)
    annotations = {ann.id: ann for ann in doc.annotations}
    assert len(annotations) == sum(len(tier.events) for tier in td.tiers)
    for tier in td.tiers:
        for n, (start, end, text) in enumerate(tier.events, start=1):
            ann = annotations[f"{tier.id}_e{n}"]
            assert ann.range == EventInterval(start, end, TIER_TIMELINE)
            assert ann.qualifiers == (Qualifier(tier.category, text),)
    converted, residue = from_core(doc)
    assert residue == []
    assert converted.tiers == td.tiers


@PROPERTY_SETTINGS
@given(tier_layouts())
def test_points_are_two_columns_and_lines_of_a_kind_share_one_record(lines):
    td = parse_tier(render(lines))
    points = [fields for kind, fields in lines if kind == "point"]
    assert td.point_ids == tuple(pid for pid, _ in points)
    assert td.offsets == tuple(None if raw == "-" else Decimal(raw) for _, raw in points)
    # One record per line; the reader builds none per point or event line.
    assert len(td.records) == len(lines)
    shared = {}  # "point", or ("event", tier id) -> the first such line's record
    for (kind, fields), record in zip(lines, td.records):
        if kind == "point":
            assert shared.setdefault("point", record) is record
        elif kind == "event":
            assert shared.setdefault(("event", fields[0]), record) is record


def _lines_of(lines, kind):
    return [n for n, (k, _) in enumerate(lines) if k == kind]


@st.composite
def defective_layouts(draw):
    """A generated text with one planted defect, and the line it is on."""
    lines = draw(tier_layouts())
    index = {pid: n for n, pid in enumerate(f[0] for kind, f in lines if kind == "point")}
    events = _lines_of(lines, "event")
    with_offset = [n for n, (kind, f) in enumerate(lines) if kind == "point" and f[1] != "-"]
    defects = ["record", "duplicate", "tier"]
    if events:
        defects += ["unknown point", "reversed", "overlap"]
    if len(with_offset) > 1:
        defects.append("offset")
    defect = draw(st.sampled_from(defects))
    after_tiers = max(_lines_of(lines, "tier"), default=-1) + 1
    if defect == "unknown point":
        at = draw(st.sampled_from(events))
        lines[at][1][draw(st.sampled_from([1, 2]))] = "nowhere"
        return render(lines), at + 1
    if defect == "reversed":
        at = draw(st.sampled_from(events))
        fields = lines[at][1]
        fields[1], fields[2] = fields[2], fields[1]
        return render(lines), at + 1
    if defect == "overlap":
        # A second event that starts strictly inside an existing one follows
        # it in start order; one with the same start follows it in line order.
        # Either way the later of the two is the one reported.
        other = draw(st.sampled_from(events))
        tier, start, end, _ = lines[other][1]
        inside = index[end] - index[start] >= 2 and draw(st.booleans())
        if inside:
            start = f"p{draw(st.integers(index[start] + 1, index[end] - 1))}"
        at = draw(st.integers(after_tiers, len(lines)))
        lines.insert(at, ["event", [tier, start, end, "overlap"]])
        other += other >= at
        return render(lines), (at if inside else max(at, other)) + 1
    if defect == "offset":
        at = draw(st.sampled_from(with_offset[1:]))
        lines[at][1][1] = "0"
        return render(lines), at + 1
    if defect == "duplicate":
        original = draw(st.sampled_from(_lines_of(lines, "point")))
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, ["point", [lines[original][1][0], "-"]])
        original += original >= at
        return render(lines), max(at, original) + 1
    if defect == "tier":
        at = draw(st.integers(after_tiers, len(lines)))
        lines.insert(at, ["event", ["undeclared", "p0", "p1", "x"]])
        return render(lines), at + 1
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, ["raw", [draw(st.sampled_from(["@points\tp0\t-", "event\tt0", "x"]))]])
    return render(lines), at + 1


@PROPERTY_SETTINGS
@given(defective_layouts())
def test_a_planted_defect_is_reported_at_its_line(case):
    text, line_no = case
    with pytest.raises(TierParseError) as exc:
        parse_tier(text)
    assert exc.value.line_no == line_no, str(exc.value)
