"""Generated tier texts: valid ones round-trip bit-exactly once each offset is
spelled as the writer spells it, and a text with one planted defect is refused
at the line of that defect."""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.tier import TierParseError, parse_tier, serialize_tier

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


def render(lines) -> str:
    out = []
    for kind, fields in lines:
        if kind in ("comment", "blank", "raw"):
            out.append("".join(fields))
        else:
            out.append("\t".join([kind if kind == "event" else "@" + kind, *fields]))
    return "".join(line + "\n" for line in out)


@PROPERTY_SETTINGS
@given(tier_layouts())
def test_valid_generated_texts_round_trip_bit_exactly(lines):
    text = render(lines)
    once = serialize_tier(parse_tier(text))
    for kind, fields in lines:
        if kind == "point" and fields[1] != "-":
            fields[1] = str(Decimal(fields[1]))
    assert once == render(lines)
    assert serialize_tier(parse_tier(once)) == once


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
