from __future__ import annotations

import hashlib
import itertools
import random
from decimal import Decimal

import pytest

from spokenkit.cli import main
from spokenkit.core import (
    CategoryRef,
    EventInterval,
    relation,
    overlaps_report,
)
from spokenkit.tei import parse_document, resolve_anchors
from spokenkit.tier import (
    Tier,
    TierDocument,
    TierEvent,
    TierParseError,
    TierSerializeError,
    TierSpeaker,
    from_core,
    parse_tier,
    serialize_tier,
    to_core,
)
from tests.conftest import fixture_bytes


def test_parse_score_fixture():
    td = parse_tier(fixture_bytes("score_dialogue.tier"))
    assert len(td.speakers) == 2
    assert len(td.tiers) == 3
    assert [t.category for t in td.tiers] == ["verbal", "verbal", "gesture"]
    verbal = next(t for t in td.tiers if t.id == "SPK2_verbal")
    assert verbal.events[0].text == "Alors ça dépend ((cough)) un petit peu."


def test_parse_empty_tier_section():
    td = parse_tier("@speaker\ts1\tSpeaker\n@point\tp0\t-\n@point\tp1\t-\n")
    assert td.tiers == ()
    assert len(td.points) == 2


def test_event_with_equal_endpoints_rejected():
    data = (
        "@speaker\ts1\tS\n@point\tp0\t-\n@point\tp1\t-\n"
        "@tier\tt1\ts1\tverbal\nevent\tt1\tp0\tp0\tx\n"
    )
    with pytest.raises(TierParseError) as exc:
        parse_tier(data)
    assert "strictly before" in str(exc.value)


def test_overlapping_events_within_tier_rejected():
    data = (
        "@point\tp0\t-\n@point\tp1\t-\n@point\tp2\t-\n@point\tp3\t-\n"
        "@tier\tt1\t-\tverbal\n"
        "event\tt1\tp0\tp2\ta\n"
        "event\tt1\tp1\tp3\tb\n"
    )
    with pytest.raises(TierParseError) as exc:
        parse_tier(data)
    assert exc.value.line_no == 7


def test_unknown_point_reports_line():
    data = "@point\tp0\t-\n@point\tp1\t-\n@tier\tt1\t-\tv\nevent\tt1\tp0\tp9\tx\n"
    with pytest.raises(TierParseError) as exc:
        parse_tier(data)
    assert "p9" in str(exc.value)
    assert exc.value.line_no == 4


def test_malformed_line_reports_line():
    with pytest.raises(TierParseError) as exc:
        parse_tier("@speaker\tonly-one-field\n")
    assert exc.value.line_no == 1


@pytest.mark.parametrize("offset", ["NaN", "sNaN"])
def test_nan_offset_is_a_bad_offset(offset):
    with pytest.raises(TierParseError) as exc:
        parse_tier(f"@point\tp0\t-\n@point\tp1\t{offset}\n")
    assert str(exc.value) == f"line 2: bad offset {offset!r}"


def test_serialize_round_trips_file_bit_exactly():
    raw = fixture_bytes("score_dialogue.tier").decode("utf-8")
    assert serialize_tier(parse_tier(raw)) == raw


def test_serialize_preserves_comments_and_interleaving():
    raw = (
        "# score header\n"
        "@speaker\ts1\tSpeaker One\n"
        "@point\tp0\t-\n"
        "@point\tp1\t1.50\n"
        "\n"
        "@tier\tt1\ts1\tverbal\n"
        "event\tt1\tp0\tp1\thello\n"
    )
    assert serialize_tier(parse_tier(raw)) == raw


# The separators ``str.splitlines`` splits on, which the reader uses.
LINE_BREAKS = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _one_event_document(text="hi", name="Speaker", point="p1", category="verbal"):
    return TierDocument(
        speakers=(TierSpeaker("s1", name),),
        points=(("p0", None), (point, None)),
        tiers=(Tier("t1", "s1", category, (TierEvent("p0", point, text),)),),
    )


@pytest.mark.parametrize("separator", ["\t", *LINE_BREAKS])
@pytest.mark.parametrize("field", ["text", "name", "point", "category"])
def test_serialize_refuses_a_field_holding_a_separator(field, separator):
    value = f"a{separator}b"
    with pytest.raises(TierSerializeError) as exc:
        serialize_tier(_one_event_document(**{field: value}))
    line_no = {"name": 1, "point": 3, "category": 4, "text": 5}[field]
    assert str(exc.value).startswith(f"cannot write tier line {line_no}: a field ")


def _speaker_dash_document(name="Speaker", category="verbal"):
    return TierDocument(
        speakers=(TierSpeaker("s1", name),),
        points=(("p0", None), ("p1", None)),
        tiers=(
            Tier("t1", "s1", category, (TierEvent("p0", "p1", "hi"),)),
            Tier("t2", "-", "verbal"),
        ),
    )


def test_serialize_refuses_speaker_dash_at_its_tier_line():
    with pytest.raises(TierSerializeError) as exc:
        serialize_tier(_speaker_dash_document())
    assert str(exc.value) == "cannot write tier line 5: speaker id '-' would read back as no speaker"


@pytest.mark.parametrize(
    "field, message",
    [
        ({"name": "a\tb"}, "cannot write tier line 1: a field of this speaker line holds a tab"),
        ({"name": "a\nb"}, "cannot write tier line 1: a field holds a line break"),
        ({"category": "a\tb"}, "cannot write tier line 4: a field of this tier line holds a tab"),
    ],
)
def test_separator_in_a_field_is_named_before_a_speaker_dash(field, message):
    with pytest.raises(TierSerializeError) as exc:
        serialize_tier(_speaker_dash_document(**field))
    assert str(exc.value) == message


def test_serialize_writes_characters_that_split_no_line():
    td = _one_event_document(text="a\x1fb \u2027 \x7f", name="\x00 \x1b")
    assert parse_tier(serialize_tier(td)) == td


def test_crlf_file_still_parses():
    raw = fixture_bytes("score_dialogue.tier").decode("utf-8")
    assert parse_tier(raw.replace("\n", "\r\n")) == parse_tier(raw)


def test_to_core_structure():
    td = parse_tier(fixture_bytes("score_dialogue.tier"))
    doc = to_core(td)
    assert len(doc.timelines) == 1
    assert [l.id for l in doc.layers] == ["SPK1_verbal", "SPK2_verbal", "SPK1_gesture"]
    assert len(doc.annotations) == sum(len(t.events) for t in td.tiers)
    assert {p.id for p in doc.metadata.participants} == {"SPK1", "SPK2"}


def test_to_core_overlaps_match_pairwise_oracle():
    td = parse_tier(fixture_bytes("score_dialogue.tier"))
    doc = to_core(td)
    report = overlaps_report(doc)
    index = {pid: n for n, (pid, _) in enumerate(td.points)}
    expected = set()
    events = [
        (f"{tier.id}_e{n}", index[e.start], index[e.end])
        for tier in td.tiers
        for n, e in enumerate(tier.events, start=1)
    ]
    for (a, s1, e1), (b, s2, e2) in itertools.combinations(events, 2):
        if max(s1, s2) < min(e1, e2):
            expected.add(frozenset((a, b)))
    assert {frozenset((p.a, p.b)) for p in report.pairs} == expected
    verbal_pair = frozenset(("SPK1_verbal_e1", "SPK2_verbal_e1"))
    assert verbal_pair in expected


def test_to_core_single_tier_sequential_events_no_overlaps():
    data = (
        "@point\tp0\t-\n@point\tp1\t-\n@point\tp2\t-\n"
        "@tier\tt1\t-\tverbal\n"
        "event\tt1\tp0\tp1\ta\n"
        "event\tt1\tp1\tp2\tb\n"
    )
    assert overlaps_report(to_core(parse_tier(data))).pairs == ()


def test_to_core_gesture_spanning_two_verbal_events():
    data = (
        "@speaker\ts1\tS1\n"
        "@point\tp0\t-\n@point\tp1\t-\n@point\tp2\t-\n"
        "@tier\tv\ts1\tverbal\n"
        "@tier\tg\ts1\tgesture\n"
        "event\tv\tp0\tp1\tfirst\n"
        "event\tv\tp1\tp2\tsecond\n"
        "event\tg\tp0\tp2\twave\n"
    )
    report = overlaps_report(to_core(parse_tier(data)))
    assert {frozenset((p.a, p.b)) for p in report.pairs} == {
        frozenset(("g_e1", "v_e1")),
        frozenset(("g_e1", "v_e2")),
    }


def test_to_core_category_mapping_to_pids():
    td = parse_tier(fixture_bytes("score_dialogue.tier"))
    doc = to_core(td, {"verbal": "http://dcr.example.org/utterance"})
    verbal = doc.annotation("SPK1_verbal_e1")
    assert verbal.qualifiers[0].feature == CategoryRef("http://dcr.example.org/utterance")


def test_from_core_inverts_to_core():
    td = parse_tier(fixture_bytes("score_dialogue.tier"))
    converted, residue = from_core(to_core(td))
    assert residue == []
    assert converted == TierDocument(td.speakers, td.points, td.tiers)


def test_from_core_on_dialogue_document():
    doc, _ = parse_document(fixture_bytes("anchored_dialogue.xml"))
    doc, _ = resolve_anchors(doc)
    td, residue = from_core(doc)
    assert residue == []
    assert [(t.id, t.speaker, t.category, len(t.events)) for t in td.tiers] == [
        ("SPK0_verbal", "SPK0", "verbal", 2),
        ("SPK1_verbal", "SPK1", "verbal", 1),
        ("SPK0_incident", "SPK0", "incident", 1),
    ]
    incident = next(t for t in td.tiers if t.id == "SPK0_incident")
    assert incident.events[0].text == "right hand raised"


def test_from_core_reports_residue_for_word_forms(pomme_doc):
    from dataclasses import replace

    from spokenkit.tei import extract_spans

    word_forms, _ = extract_spans(pomme_doc)
    doc = replace(pomme_doc, annotations=pomme_doc.annotations + tuple(word_forms))
    td, residue = from_core(doc)
    assert any("word-form" in item.reason for item in residue)
    reported = {item.annotation for item in residue}
    assert {wf.id for wf in word_forms} <= reported


def test_empty_tier_survives_round_trip():
    td = TierDocument(
        speakers=(TierSpeaker("s1", "S"),),
        points=(("p0", None), ("p1", None)),
        tiers=(Tier("quiet", "s1", "verbal", ()),),
    )
    converted, residue = from_core(to_core(td))
    assert residue == []
    assert converted == td


# ---------------------------------------------------------------- properties

CATEGORIES = ["verbal", "gesture", "translation", "noise"]


def random_tier_document(rng: random.Random) -> TierDocument:
    speakers = tuple(
        TierSpeaker(f"s{i}", f"Speaker {i}") for i in range(rng.randint(1, 3))
    )
    n_points = rng.randint(2, 12)
    use_offsets = rng.random() < 0.4
    offset = Decimal(0)
    points = []
    for i in range(n_points):
        if use_offsets:
            offset += Decimal(rng.randint(1, 9)) / 2
            points.append((f"p{i}", offset))
        else:
            points.append((f"p{i}", None))
    tiers = []
    for t in range(rng.randint(0, 5)):
        cuts = sorted(rng.sample(range(n_points), rng.randint(0, min(n_points, 8))))
        events = []
        for start, end in zip(cuts[::2], cuts[1::2]):
            if start == end:
                continue
            events.append(TierEvent(f"p{start}", f"p{end}", f"text {t}.{len(events)}"))
        tiers.append(
            Tier(
                f"tier{t}",
                rng.choice([s.id for s in speakers] + [None]),
                rng.choice(CATEGORIES),
                tuple(events),
            )
        )
    return TierDocument(speakers, tuple(points), tuple(tiers))


def test_round_trip_property_on_random_documents():
    rng = random.Random(20260808)
    for _ in range(50):
        td = random_tier_document(rng)
        converted, residue = from_core(to_core(td))
        assert residue == []
        assert converted == TierDocument(td.speakers, td.points, td.tiers)
        assert parse_tier(serialize_tier(td)) == td


def test_temporal_relations_invariant_under_conversion():
    rng = random.Random(99)
    from spokenkit.core import Timeline

    for _ in range(25):
        td = random_tier_document(rng)
        doc = to_core(td)
        timeline = doc.primary_timeline
        index = {pid: n for n, (pid, _) in enumerate(td.points)}
        reference = Timeline.of("ref", [p for p, _ in td.points])
        events = [
            (f"{tier.id}_e{n}", e)
            for tier in td.tiers
            for n, e in enumerate(tier.events, start=1)
        ]
        for (id_a, ev_a), (id_b, ev_b) in itertools.combinations(events, 2):
            direct = relation(
                EventInterval(ev_a.start, ev_a.end, "ref"),
                EventInterval(ev_b.start, ev_b.end, "ref"),
                reference,
            )
            converted = relation(
                doc.annotation(id_a).range, doc.annotation(id_b).range, timeline
            )
            assert direct is converted


def test_from_core_rejects_zero_length_events_into_residue():
    doc, _ = parse_document(fixture_bytes("inline_anchors.xml"))
    doc, _ = resolve_anchors(doc)
    from spokenkit.core import sequence_implicit

    doc = sequence_implicit(doc)
    td, residue = from_core(doc)
    # the start-only gesture resolves to a zero-length interval
    assert any(item.annotation == "kinesic1" for item in residue)
    # and the produced file is valid for our own parser
    assert parse_tier(serialize_tier(td)) == td


def test_offset_inversion_reports_declaring_line():
    data = "@point\tp0\t5\n@point\tp1\t2\n"
    with pytest.raises(TierParseError) as exc:
        parse_tier(data)
    assert exc.value.line_no == 2


# ---------------------------------------------------------------- error lines

FOUR_POINTS = "@point\tp0\t-\n@point\tp1\t-\n@point\tp2\t-\n@point\tp3\t-\n"


def _error(data: str) -> TierParseError:
    with pytest.raises(TierParseError) as exc:
        parse_tier(data)
    return exc.value


def test_tiers_are_checked_in_declaration_order_not_line_order():
    # t2's unknown point (line 7) is earlier in the file than t1's overlap
    # (line 9), but t1 is declared first, so its overlap is the error.
    data = (
        FOUR_POINTS
        + "@tier\tt1\t-\tv\n@tier\tt2\t-\tv\n"
        + "event\tt2\tp0\tp9\tx\n"
        + "event\tt1\tp0\tp2\ta\n"
        + "event\tt1\tp1\tp3\tb\n"
    )
    assert str(_error(data)) == (
        "line 9: event overlaps previous event of tier 't1' (previous ends at 'p2')"
    )


def test_event_defects_in_a_tier_come_before_its_overlaps():
    data = (
        FOUR_POINTS
        + "@tier\tt1\t-\tv\n"
        + "event\tt1\tp0\tp2\ta\n"
        + "event\tt1\tp1\tp3\tb\n"
        + "event\tt1\tp3\tp1\tc\n"
    )
    assert str(_error(data)) == "line 8: event start 'p3' is not strictly before end 'p1'"


def test_a_record_defect_comes_before_every_event_defect():
    data = FOUR_POINTS + "@tier\tt1\t-\tv\nevent\tt1\tp9\tp1\tx\n@pointless\n"
    assert str(_error(data)) == "line 7: unrecognised record '@pointless'"


def test_unknown_start_is_named_before_unknown_end():
    data = FOUR_POINTS + "@tier\tt1\t-\tv\nevent\tt1\tq1\tq2\tx\n"
    assert str(_error(data)) == "line 6: unknown point 'q1'"


def test_overlap_between_events_listed_out_of_time_order():
    data = (
        FOUR_POINTS
        + "@tier\tt1\t-\tv\n"
        + "event\tt1\tp2\tp3\tlate\n"
        + "event\tt1\tp1\tp3\tmiddle\n"
        + "event\tt1\tp0\tp1\tearly\n"
    )
    assert str(_error(data)) == (
        "line 6: event overlaps previous event of tier 't1' (previous ends at 'p3')"
    )


def test_equal_starts_in_one_tier_name_the_later_line():
    data = (
        FOUR_POINTS
        + "@tier\tt1\t-\tv\n"
        + "event\tt1\tp0\tp2\tlong\n"
        + "event\tt1\tp0\tp1\tshort\n"
    )
    assert str(_error(data)) == (
        "line 7: event overlaps previous event of tier 't1' (previous ends at 'p2')"
    )


def test_points_declared_after_the_events_that_use_them():
    events = "@tier\tt1\t-\tv\nevent\tt1\tp0\tp1\ta\nevent\tt1\tp1\tp2\tb\n"
    late = events + "@point\tp0\t-\n@point\tp1\t0.5\n@point\tp2\t-\n"
    td = parse_tier(late)
    assert [e.text for t in td.tiers if t.id == "t1" for e in t.events] == ["a", "b"]
    assert serialize_tier(td) == late
    unset = "@point\tp0\t-\n@point\tp1\t-\n@point\tp2\t-\n"
    reversed_late = events.replace("p1\tp2", "p2\tp1") + unset
    assert str(_error(reversed_late)) == "line 3: event start 'p2' is not strictly before end 'p1'"


def test_offset_inversion_across_unset_points():
    data = "@point\tp0\t5\n@point\tp1\t-\n@point\tp2\t-\n@point\tp3\t3\n"
    assert str(_error(data)) == "line 4: offset of 'p3' contradicts declaration order"


def test_equal_offsets_are_in_order():
    td = parse_tier("@point\tp0\t5\n@point\tp1\t-\n@point\tp2\t5.0\n")
    assert [offset for _, offset in td.points] == [Decimal(5), None, Decimal("5.0")]


@pytest.mark.parametrize(
    "raw, written",
    [
        ("+1", "1"),
        ("1e1", "1E+1"),
        ("1_0", "10"),
        (" 1", "1"),
        ("inf", "Infinity"),
        ("0E-5", "0.00000"),
        ("0.0000001", "1E-7"),
    ],
)
def test_an_offset_spelled_otherwise_is_written_canonically_once(raw, written):
    text = "@point\tp0\t-\n@point\tp1\t{}\n"
    once = serialize_tier(parse_tier(text.format(raw)))
    assert once == text.format(written)
    assert serialize_tier(parse_tier(once)) == once


def test_event_defects_come_before_offset_inversions():
    data = "@point\tp0\t5\n@point\tp1\t2\n@tier\tt1\t-\tv\nevent\tt1\tp1\tp0\tx\n"
    assert str(_error(data)) == "line 4: event start 'p1' is not strictly before end 'p0'"


# ---------------------------------------------------------------- pinned output

WORDS = ["ja", "oui", "mhm", "(laughs)", "ça", "so"]


def score_text(n_events: int, seed: int) -> str:
    """A tier document of ``n_events`` events: 3 speakers x 2 categories, with
    offsets, comments and events listed in time order across tiers."""
    rng = random.Random(seed)
    speakers = ["A", "B", "C"]
    categories = ["verbal", "gesture"]
    cursors = {(s, c): rng.randint(0, 500) for s in speakers for c in categories}
    stamps, events = [], []
    for n in range(n_events):
        key = (rng.choice(speakers), rng.choice(categories))
        start = cursors[key] + rng.randint(0, 900)
        end = start + rng.randint(1, 1500)
        cursors[key] = end
        stamps += [(start, 2 * n), (end, 2 * n + 1)]
        text = " ".join(rng.choice(WORDS) for _ in range(3))
        if key[1] != "verbal":
            text = rng.choice(["nod", "wave"])
        events.append((key, 2 * n, 2 * n + 1, text))
    stamps.sort()
    name = {slot: f"p{n}" for n, (_, slot) in enumerate(stamps)}
    lines = ["# generated score", ""]
    lines += [f"@speaker\t{s}\tSpeaker {s}" for s in speakers]
    lines += [f"@point\tp{n}\t{ms // 1000}.{ms % 1000:03d}" for n, (ms, _) in enumerate(stamps)]
    lines += [f"@tier\t{s}_{c}\t{s}\t{c}" for s in speakers for c in categories]
    events.sort(key=lambda e: int(name[e[1]][1:]))
    lines += [f"event\t{s}_{c}\t{name[a]}\t{name[b]}\t{text}" for (s, c), a, b, text in events]
    return "".join(line + "\n" for line in lines)


def test_convert_from_tier_output_is_pinned(capsys, tmp_path):
    source = tmp_path / "score.tier"
    source.write_text(score_text(2000, seed=901), encoding="utf-8")
    config = tmp_path / "categories.cfg"
    config.write_text("category\tverbal\thttp://dcr.example.org/utterance\n", encoding="utf-8")
    digests = {}
    for target in ("tier", "tei"):
        argv = ["convert", str(source), "--from", "tier", "--to", target, "--config", str(config)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        digests[target] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == {
        "tier": "d28e8d641656492f8315db7bb1f25629a3e18e0046fb6bbea72b52df4b3fe040",
        "tei": "798345d2589aa3ea78eb5a20ab6a08a1ee009cb9d3d2bd6100fb52d303c39509",
    }
