from __future__ import annotations

import pytest

from spokenkit.tei import (
    ConventionRuleError,
    Kinesic,
    TextSegment,
    Utterance,
    Vocal,
    load_convention_rules,
    parse_document,
    promote_conventions,
    promote_document,
    resolve_anchors,
)
from spokenkit.core import EventInterval
from spokenkit.tei.model import content_text
from tests.conftest import fixture_bytes


def utterance(text: str) -> Utterance:
    return Utterance(id="u1", content=(TextSegment(text),))


def test_promote_cough_between_preserved_text():
    promoted, findings = promote_conventions(utterance("Alors ça dépend ((cough)) un petit peu."))
    assert findings == []
    assert promoted.content == (
        TextSegment("Alors ça dépend "),
        Vocal(desc="cough"),
        TextSegment(" un petit peu."),
    )


def test_promotion_preserves_plain_text_with_markers_removed():
    original = "Alors ça dépend ((cough)) un petit peu."
    promoted, _ = promote_conventions(utterance(original))
    assert content_text(promoted.content) == original.replace("((cough))", "")


def test_text_without_conventions_unchanged():
    u = utterance("rien à signaler")
    promoted, findings = promote_conventions(u)
    assert promoted == u
    assert findings == []


def test_two_conventions_left_to_right():
    promoted, _ = promote_conventions(utterance("((a)) ((b))"))
    assert promoted.content == (Vocal(desc="a"), TextSegment(" "), Vocal(desc="b"))


def test_unbalanced_marker_is_a_finding():
    u = utterance("et puis (( sans fin")
    promoted, findings = promote_conventions(u)
    assert promoted == u
    assert len(findings) == 1


def test_promotion_is_idempotent():
    promoted, _ = promote_conventions(utterance("a ((b)) c"))
    again, findings = promote_conventions(promoted)
    assert again == promoted
    assert findings == []


def test_rule_file_loading_and_custom_element():
    rules = load_convention_rules("\\[g:(.+?)\\]\tkinesic\t1\n")
    promoted, _ = promote_conventions(utterance("voilà [g:points left] bon"), rules)
    assert promoted.content == (
        TextSegment("voilà "),
        Kinesic(desc="points left"),
        TextSegment(" bon"),
    )


def test_rule_file_rejects_unknown_element():
    with pytest.raises(ConventionRuleError):
        load_convention_rules("x\tnoise\t1\n")


def test_rule_file_rejects_bad_pattern():
    with pytest.raises(ConventionRuleError):
        load_convention_rules("((\tvocal\t1\n")


@pytest.mark.parametrize(
    "line, group",
    [
        ("(x)\tvocal\t5", "5"),
        ("(?P<d>x)\tvocal\tzz", "zz"),
        ("x\tvocal\t1", "1"),
        ("(x)\tvocal\t\u00b2", "\u00b2"),
    ],
)
def test_rule_file_rejects_a_group_the_pattern_lacks(line, group):
    with pytest.raises(ConventionRuleError, match=f"^line 2: pattern has no group '{group}'$"):
        load_convention_rules(f"# rules\n{line}\n")


def test_rule_file_takes_group_numbers_and_names_the_pattern_has():
    rules = load_convention_rules("a(b)\tvocal\t0\n(?P<d>c)\tkinesic\td\n")
    promoted, _ = promote_conventions(utterance("-ab-c-"), rules)
    assert promoted.content == (
        TextSegment("-"),
        Vocal(desc="ab"),
        TextSegment("-"),
        Kinesic(desc="c"),
        TextSegment("-"),
    )


def test_a_group_that_takes_no_part_gives_an_empty_description():
    rules = load_convention_rules("(y)?x\tvocal\t1\n")
    promoted, findings = promote_conventions(utterance("axb"), rules)
    assert findings == []
    assert promoted.content == (TextSegment("a"), Vocal(desc=""), TextSegment("b"))


def test_empty_matches_promote_nothing_and_promotion_stays_idempotent():
    rules = load_convention_rules("x?\tvocal\t0\n")
    promoted, findings = promote_conventions(utterance("axb"), rules)
    assert findings == []
    assert promoted.content == (TextSegment("a"), Vocal(desc="x"), TextSegment("b"))
    again, _ = promote_conventions(promoted, rules)
    assert again is promoted
    untouched = utterance("ab")
    assert promote_conventions(untouched, rules)[0] is untouched


def test_bundled_rules_match_builtin():
    rules = load_convention_rules(fixture_bytes("gat.rules"))
    with_file, _ = promote_conventions(utterance("x ((y)) z"), rules)
    with_builtin, _ = promote_conventions(utterance("x ((y)) z"))
    assert with_file == with_builtin


def test_promote_document_rewrites_annotation_values():
    data = fixture_bytes("anchored_dialogue.xml").replace(b"Okay. ", b"Okay. ((cough)) ")
    doc, _ = parse_document(data)
    promoted, findings = promote_document(doc)
    assert findings == []
    first = next(item for item in promoted.body if isinstance(item, Utterance))
    assert any(isinstance(c, Vocal) for c in first.content)
    assert "((" not in promoted.annotation("u1").qualifiers[0].value
    unchanged, _ = promote_document(promoted)
    assert unchanged == promoted


def test_utterances_that_share_an_id_keep_their_own_promoted_text():
    data = fixture_bytes("anchored_dialogue.xml")
    body = data[data.index(b"<body>") : data.index(b"</body>") + len(b"</body>")]
    data = data.replace(
        body,
        b'<body><u xml:id="">yes ((cough))</u><u xml:id="">((laugh)) no</u>'
        b'<u xml:id="d">one</u><u xml:id="d">two ((sigh))</u></body>',
    )
    doc, _ = parse_document(data)
    promoted, findings = promote_document(doc)
    assert findings == []
    assert [(a.id, a.qualifiers[0].value) for a in promoted.annotations] == [
        ("", "yes "),
        ("", " no"),
        ("d", "one"),
        ("d", "two "),
    ]


def test_an_utterance_and_an_event_that_share_an_id_keep_their_own_text_and_interval():
    data = fixture_bytes("anchored_dialogue.xml")
    body = data[data.index(b"<body>") : data.index(b"</body>") + len(b"</body>")]
    data = data.replace(
        body,
        b'<body><u who="#SPK1" xml:id="x"><anchor synch="#T1"/>oui ((cough))<anchor synch="#T2"/></u>'
        b'<kinesic end="#T4" start="#T3" xml:id="x"><desc>nod</desc></kinesic>'
        b'<u who="#SPK2" xml:id="x"><anchor synch="#T4"/>non<anchor synch="#T5"/></u></body>',
    )
    doc, _ = parse_document(data)
    tl = doc.timelines[0].id
    promoted_first, _ = resolve_anchors(promote_document(doc)[0])
    resolved_first, _ = promote_document(resolve_anchors(doc)[0])
    for result in (promoted_first, resolved_first):
        assert [
            (a.id, a.qualifiers[0].feature, a.qualifiers[0].value, a.range)
            for a in result.annotations
        ] == [
            ("x", "utterance", "oui ", EventInterval("T1", "T2", tl)),
            ("x", "kinesic", "nod", EventInterval("T3", "T4", tl)),
            ("x", "utterance", "non", EventInterval("T4", "T5", tl)),
        ]
    assert promoted_first == resolved_first
