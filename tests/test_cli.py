from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spokenkit.cli
import spokenkit.core.temporal
from spokenkit.cli import main
from spokenkit.core import EventInterval, UnknownIdError, overlaps_report
from spokenkit.tei import (
    Seg,
    TeiParseError,
    Utterance,
    parse_document,
    serialize_document,
)
from tests.conftest import FIXTURES, fixture_bytes, fixture_path, parse_fixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- validate

def test_validate_dialogue_is_clean(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("anchored_dialogue.xml"))
    assert code == 0
    assert "0 error(s), 0 warning(s)" in out


def test_validate_inline_anchors_reports_duplicate(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("inline_anchors.xml"))
    assert code == 1
    assert "DUP_ID" in out and "tp2u" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", str(FIXTURES / "missing.xml"))
    assert code == 2
    assert "missing.xml" in err


def test_validate_warnings_alone_exit_zero(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("category_flib.xml"))
    assert code == 0
    assert "BAD_ID" in out


def test_validate_tsv_format(capsys):
    code, out, _ = run(
        capsys, "validate", "--format", "tsv", fixture_path("inline_anchors.xml")
    )
    assert code == 1
    assert "error\tDUP_ID\ttp2u" in out


def test_validate_with_registry_and_language(capsys):
    code, out, _ = run(
        capsys,
        "validate",
        "--registry",
        fixture_path("registry.tsv"),
        "--lang",
        "fr",
        fixture_path("tagged_neuter.xml"),
    )
    assert code == 1
    assert "DOMAIN_VIOLATION" in out


def test_validate_multiple_files_in_input_order(capsys):
    code, out, _ = run(
        capsys,
        "validate",
        fixture_path("anchored_dialogue.xml"),
        fixture_path("inline_anchors.xml"),
        fixture_path("seg.xml"),
    )
    assert code == 1
    # one section per file, in input order
    first = out.index("anchored_dialogue.xml")
    second = out.index("inline_anchors.xml")
    third = out.index("seg.xml")
    assert first < second < third


def test_validate_too_deep_document_fails_alone(capsys, tmp_path):
    deep = tmp_path / "deep.xml"
    data = fixture_bytes("seg.xml").replace(b"<body>", b"<body><u>" + b"<seg>" * 3000, 1)
    deep.write_bytes(data.replace(b"</body>", b"</seg>" * 3000 + b"</u></body>", 1))
    code, out, err = run(capsys, "validate", str(deep), fixture_path("anchored_dialogue.xml"))
    assert code == 2
    assert err == f"{deep}: markup is nested too deeply to parse\n"
    assert "anchored_dialogue.xml ==\n0 error(s), 0 warning(s)\n" in out


def deep_seg_markup(depth: int) -> bytes:
    """``seg.xml`` with its body content inside an utterance of ``depth`` nested segs."""
    data = fixture_bytes("seg.xml").replace(b"<body>", b"<body><u>" + b"<seg>" * depth, 1)
    return data.replace(b"</body>", b"</seg>" * depth + b"</u></body>", 1)


def test_convert_too_deep_document_to_tei_is_a_usage_error(capsys, monkeypatch):
    # The writer reaches as deep as the reader, so no file that the reader
    # accepts is too deep to write. The document is built here instead, as
    # deep as the recursion limit, and handed to the command as if read.
    content: tuple = ("x",)
    for _ in range(sys.getrecursionlimit()):
        content = (Seg(content=content),)
    deep = parse_fixture("seg.xml")._replace(body=(Utterance("u1", content=content),))
    monkeypatch.setattr(spokenkit.cli, "parse_document", lambda data: (deep, []))
    code, out, err = run(capsys, "convert", fixture_path("seg.xml"), "--from", "tei", "--to", "tei")
    assert code == 2
    assert out == ""
    assert err == "spokenkit: markup is nested too deeply to serialise\n"


def test_convert_deep_document_to_tei_reads_back_byte_stably(capsys, tmp_path):
    deep, first, second = tmp_path / "deep.xml", tmp_path / "first.xml", tmp_path / "second.xml"
    deep.write_bytes(deep_seg_markup(450))
    for source, target in ((deep, first), (first, second)):
        argv = ("convert", str(source), "--from", "tei", "--to", "tei", "-o", str(target))
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    # Bytes, not documents: comparing documents this deep recurses too far.
    assert second.read_bytes() == first.read_bytes()


def test_the_deepest_document_the_reader_reads_is_written():
    depth = sys.getrecursionlimit()
    while True:
        try:
            doc, _ = parse_document(deep_seg_markup(depth))
            break
        except TeiParseError:
            depth -= 1
    first = serialize_document(doc)
    assert serialize_document(parse_document(first)[0]) == first


def test_validate_severity_override_via_config(capsys, tmp_path):
    config = tmp_path / "config.tsv"
    config.write_text("severity\tDUP_ID\twarning\n")
    code, out, _ = run(
        capsys,
        "validate",
        "--config",
        str(config),
        fixture_path("inline_anchors.xml"),
    )
    assert code == 0
    assert "warning DUP_ID" in out


def test_config_severity_for_a_code_validate_never_reports_is_refused(capsys, tmp_path):
    config = tmp_path / "config.tsv"
    config.write_text("# overrides\nseverity\tDUP_ID\twarning\nseverity\tDUP_IDD\twarning\n")
    code, out, err = run(
        capsys, "validate", "--config", str(config), fixture_path("anchored_dialogue.xml")
    )
    assert (code, out) == (2, "")
    assert "config line 3: validate reports no code 'DUP_IDD'" in err


def test_validate_with_external_tagset_resolves_its_tags(capsys, tmp_path):
    # Ncfs__ is declared by the external tagset only.
    doc = tmp_path / "doc.xml"
    doc.write_bytes(
        fixture_bytes("tagged_sentence.xml").replace(b'ana="#Ncms__"', b'ana="#Ncfs__"')
    )
    code, out, _ = run(capsys, "validate", "--tagset", fixture_path("tags.xml"), str(doc))
    assert (code, out) == (0, "0 error(s), 0 warning(s)\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1
    assert "error DANGLING_REF w3" in out and "error UNKNOWN_TAG w3" in out


def test_config_convention_line_is_an_unrecognised_entry(capsys, tmp_path):
    config = tmp_path / "config.tsv"
    config.write_text("convention\t\\[g:(.+?)\\]\tkinesic\t1\n")
    code, _, err = run(
        capsys,
        "convert", fixture_path("inline_anchors.xml"),
        "--from", "tei", "--to", "tei",
        "--config", str(config),
    )
    assert code == 2
    assert "config line 1: unrecognised entry 'convention'" in err


# ---------------------------------------------------------------- convert

def test_convert_tier_to_tei_and_back_reproduces_file(capsys, tmp_path):
    tei_out = tmp_path / "fig2.xml"
    code, _, _ = run(
        capsys,
        "convert", fixture_path("score_dialogue.tier"),
        "--from", "tier", "--to", "tei",
        "-o", str(tei_out),
    )
    assert code == 0
    code, out, err = run(
        capsys, "convert", str(tei_out), "--from", "tei", "--to", "tier"
    )
    assert code == 0
    assert "residue" not in err
    assert out.encode("utf-8") == fixture_bytes("score_dialogue.tier")


def _convert_with_stdout_encoding(encoding: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``spokenkit convert`` in a child whose stdout has ``encoding``."""
    src = Path(spokenkit.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONIOENCODING": encoding, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "spokenkit.cli", "convert", *argv]
    return subprocess.run(command, capture_output=True, env=env, timeout=60, check=False)


def _tier_with_a_non_ascii_speaker(tmp_path) -> Path:
    source = tmp_path / "chloe.tier"
    source.write_bytes(fixture_bytes("score_dialogue.tier").replace(b"Speaker 1", "Chloé".encode()))
    return source


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_convert_tier_to_tier_stdout_is_the_input_whatever_its_encoding(tmp_path, encoding):
    source = _tier_with_a_non_ascii_speaker(tmp_path)
    result = _convert_with_stdout_encoding(encoding, str(source), "--from", "tier", "--to", "tier")
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == source.read_bytes()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_convert_to_tei_stdout_has_the_bytes_of_the_output_file(tmp_path, encoding):
    source = _tier_with_a_non_ascii_speaker(tmp_path)
    written = tmp_path / "chloe.xml"
    argv = (str(source), "--from", "tier", "--to", "tei")
    assert _convert_with_stdout_encoding(encoding, *argv, "-o", str(written)).returncode == 0
    result = _convert_with_stdout_encoding(encoding, *argv)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == written.read_bytes()


def test_convert_tier_event_with_control_character_to_tei_exits_two(capsys, tmp_path):
    # XML 1.0 cannot carry U+0001, not even as a character reference.
    source = tmp_path / "control.tier"
    source.write_bytes(fixture_bytes("score_dialogue.tier").replace(b"Ah oui", b"Ah\x01oui"))
    code, out, err = run(capsys, "convert", str(source), "--from", "tier", "--to", "tei")
    assert code == 2
    assert out == ""
    assert err == "spokenkit: character U+0001 cannot be written in XML\n"


def test_convert_tei_utterance_with_tab_to_tier_exits_two(capsys, tmp_path):
    # A tab in event text would split the tier line into six fields.
    source = tmp_path / "tab.xml"
    source.write_bytes(fixture_bytes("anchored_dialogue.xml").replace(b"Okay.", b"Okay.&#9;", 1))
    code, out, err = run(capsys, "convert", str(source), "--from", "tei", "--to", "tier")
    assert code == 2
    assert out == ""
    assert err.startswith("spokenkit: cannot write tier line ")
    assert err.endswith(": a field of this event line holds a tab\n")


def test_convert_dialogue_to_tier(capsys):
    code, out, _ = run(
        capsys, "convert", fixture_path("anchored_dialogue.xml"), "--from", "tei", "--to", "tier"
    )
    assert code == 0
    tiers = [line for line in out.splitlines() if line.startswith("@tier")]
    assert len(tiers) == 3


def test_convert_applies_convention_rules(capsys, tmp_path):
    source = tmp_path / "raw.xml"
    source.write_bytes(
        fixture_bytes("anchored_dialogue.xml").replace(b"Okay. ", b"Okay. ((cough)) ")
    )
    code, out, _ = run(
        capsys,
        "convert", str(source),
        "--from", "tei", "--to", "tei",
        "--conventions", fixture_path("gat.rules"),
    )
    assert code == 0
    assert "<vocal><desc>cough</desc></vocal>" in out
    assert "((cough))" not in out


@pytest.mark.parametrize("line", ["(x)\tvocal\t5", "(?P<d>x)\tvocal\tzz"])
def test_convention_rule_naming_a_missing_group_exits_two(capsys, tmp_path, line):
    source = tmp_path / "raw.xml"
    source.write_bytes(fixture_bytes("anchored_dialogue.xml").replace(b"Okay. ", b"Okay. x "))
    rules = tmp_path / "rules.tsv"
    rules.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(
        capsys, "convert", str(source), "--from", "tei", "--to", "tei", "--conventions", str(rules)
    )
    group = line.rsplit("\t", 1)[1]
    assert (code, out) == (2, "")
    message = f"line 1: pattern has no group '{group}'"
    assert err == f"spokenkit: bad convention rules {rules}: {message}\n"


@pytest.mark.parametrize(
    "line, vocal",
    [
        ("(y)?x\tvocal\t1", "<vocal><desc></desc></vocal>"),
        ("x?\tvocal\t0", "<vocal><desc>x</desc></vocal>"),
    ],
)
def test_convert_with_a_rule_that_matches_empty_or_skips_its_group_is_idempotent(
    capsys, tmp_path, line, vocal
):
    source = tmp_path / "raw.xml"
    source.write_bytes(fixture_bytes("anchored_dialogue.xml").replace(b"Okay. ", b"Okay. x "))
    rules = tmp_path / "rules.tsv"
    rules.write_text(line + "\n", encoding="utf-8")
    convert = ("convert", "--from", "tei", "--to", "tei", "--conventions", str(rules))
    code, once, err = run(capsys, *convert, str(source))
    assert (code, err) == (0, "")
    assert once.count("<vocal") == 1 and vocal in once
    again = tmp_path / "once.xml"
    again.write_text(once, encoding="utf-8")
    assert run(capsys, *convert, str(again)) == (0, once, "")


def test_convert_parse_failure_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<TEI><oops>")
    code, _, err = run(capsys, "convert", str(bad), "--from", "tei", "--to", "tier")
    assert code == 2
    assert "spokenkit:" in err


def test_convert_tei_to_tei_is_canonical_normalization(capsys):
    code, out, _ = run(
        capsys, "convert", fixture_path("anchored_dialogue.xml"), "--from", "tei", "--to", "tei"
    )
    assert code == 0
    assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert 'who="#SPK0"' in out
    # bare start="T3" was normalised to a hash reference
    assert 'start="#T3"' in out


def test_convert_materializes_synthetic_timeline(capsys):
    code, out, _ = run(
        capsys,
        "convert", fixture_path("inline_anchors.xml"),
        "--from", "tei", "--to", "tier",
    )
    assert code == 0
    assert "~auto1" in out


# ---------------------------------------------------------------- overlaps

def test_overlaps_dialogue_rows(capsys):
    code, out, _ = run(capsys, "overlaps", fixture_path("anchored_dialogue.xml"))
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows == [
        ["u1", "incident1", "T3", "T4"],
        ["u1", "u2", "T3", "T4"],
        ["incident1", "u2", "T3", "T5"],
    ]


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps each write it is given."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)


@pytest.mark.parametrize(
    "argv, writes",
    [
        (["overlaps", fixture_path("anchored_dialogue.xml")], 1),
        (["tag", "list", "--lib", fixture_path("tags.xml")], 1),
        (["tag", "expand", "--lib", fixture_path("tags.xml"), "Ncms__"], 1),
        (["validate", fixture_path("anchored_dialogue.xml")], 1),
        (["validate", fixture_path("anchored_dialogue.xml"), fixture_path("seg.xml")], 2),
        (["convert", fixture_path("score_dialogue.tier"), "--from", "tier", "--to", "tei"], 1),
    ],
    ids=["overlaps", "tag list", "tag expand", "validate", "validate two files", "convert"],
)
def test_each_command_writes_its_stdout_once_per_file(monkeypatch, argv, writes):
    raw = _CountingRaw()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    main(argv)
    stdout.flush()
    assert len(raw.writes) == writes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main(argv)
    assert b"".join(raw.writes) == out.getvalue().encode("utf-8")


def _refuse(*args, **kwargs):
    raise AssertionError("called on a path that prints without it")


def test_overlaps_builds_no_object_per_pair(capsys, monkeypatch):
    seen = []

    def spied(doc):
        report = overlaps_report(doc)
        seen.append((doc, report))
        return report

    monkeypatch.setattr(spokenkit.cli, "overlaps_report", spied)
    monkeypatch.setattr(spokenkit.core.temporal, "OverlapPair", _refuse)
    code, out, _ = run(capsys, "overlaps", fixture_path("anchored_dialogue.xml"))
    assert (code, len(out.splitlines())) == (0, 3)
    [(doc, report)] = seen
    # The document holds one interval per anchored annotation, from resolve_anchors,
    # and the report one plain tuple per pair.
    ranges = [ann.range for ann in doc.annotations if isinstance(ann.range, EventInterval)]
    assert ranges == [
        EventInterval("T1", "T4", "timeline1"),
        EventInterval("T3", "T6", "timeline1"),
        EventInterval("T3", "T5", "timeline1"),
        EventInterval("T6", "T7", "timeline1"),
    ]
    assert len(report.rows) == 3
    assert all(type(row) is tuple for row in report.rows)


def test_validate_resolves_no_anchors(capsys, monkeypatch):
    monkeypatch.setattr(spokenkit.cli, "resolve_anchors", _refuse)
    code, out, _ = run(capsys, "validate", fixture_path("anchored_dialogue.xml"))
    assert (code, out) == (0, "0 error(s), 0 warning(s)\n")


def test_overlaps_single_utterance(capsys, tmp_path):
    single = tmp_path / "single.xml"
    data = fixture_bytes("anchored_dialogue.xml")
    body_start = data.index(b"<body>")
    body_end = data.index(b"</body>") + len(b"</body>")
    replacement = (
        b'<body><u who="#SPK0"><anchor synch="#T1"/>Seul.<anchor synch="#T2"/></u></body>'
    )
    single.write_bytes(data[:body_start] + replacement + data[body_end:])
    code, out, _ = run(capsys, "overlaps", str(single))
    assert code == 0
    assert out == ""


def test_overlaps_unanchored_file_sequences_first(capsys, tmp_path):
    plain = tmp_path / "plain.xml"
    data = fixture_bytes("anchored_dialogue.xml")
    body_start = data.index(b"<body>")
    body_end = data.index(b"</body>") + len(b"</body>")
    replacement = b'<body><u who="#SPK0">Un.</u><u who="#SPK1">Deux.</u></body>'
    plain.write_bytes(data[:body_start] + replacement + data[body_end:])
    code, out, _ = run(capsys, "overlaps", str(plain))
    assert code == 0
    assert out == ""


# ---------------------------------------------------------------- tag

def test_tag_expand_prints_feature_value_pairs(capsys):
    code, out, _ = run(
        capsys, "tag", "expand", "--lib", fixture_path("tags.xml"), "Ncms__"
    )
    assert code == 0
    assert out.splitlines() == [
        "partOfSpeech=commonNoun",
        "grammaticalGender=masculine",
        "grammaticalNumber=singular",
    ]


def test_tag_expand_prints_a_nested_value_as_paths(capsys, tmp_path):
    lib = fixture_bytes("tags.xml").replace(
        b'<symbol value="singular"/>',
        b'<fs><f name="count"><symbol value="one"/></f>'
        b'<f name="agreement"><binary value="true"/></f></fs>',
    )
    path = tmp_path / "nested.xml"
    path.write_bytes(lib)
    code, out, err = run(capsys, "tag", "expand", "--lib", str(path), "Ncms__")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "partOfSpeech=commonNoun",
        "grammaticalGender=masculine",
        "grammaticalNumber/agreement=True",
        "grammaticalNumber/count=one",
    ]


@pytest.mark.parametrize("value", [b"<fs/>", b'<fs><f name="count"><fs/></f></fs>'])
def test_tag_expand_prints_a_value_without_leaves_as_an_empty_line(capsys, tmp_path, value):
    lib = fixture_bytes("tags.xml").replace(b'<symbol value="singular"/>', value)
    path = tmp_path / "empty.xml"
    path.write_bytes(lib)
    code, out, err = run(capsys, "tag", "expand", "--lib", str(path), "Ncms__")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "partOfSpeech=commonNoun",
        "grammaticalGender=masculine",
        "grammaticalNumber=",
    ]


def test_tag_list(capsys):
    code, out, _ = run(capsys, "tag", "list", "--lib", fixture_path("tags.xml"))
    assert code == 0
    assert out.splitlines() == ["Ncms__", "Ncfs__", "Ncns__"]


def test_tag_expand_unknown_tag(capsys):
    code, _, err = run(
        capsys, "tag", "expand", "--lib", fixture_path("tags.xml"), "Zzz"
    )
    assert code == 2
    assert "Zzz" in err


def test_commands_are_deterministic(capsys):
    first = run(capsys, "overlaps", fixture_path("anchored_dialogue.xml"))
    second = run(capsys, "overlaps", fixture_path("anchored_dialogue.xml"))
    assert first == second


def test_convert_category_mapping_via_config(capsys, tmp_path):
    config = tmp_path / "map.tsv"
    config.write_text("category\tverbal\thttp://dcr.example.org/utterance\n")
    code, out, _ = run(
        capsys,
        "convert", fixture_path("score_dialogue.tier"),
        "--from", "tier", "--to", "tei",
        "--config", str(config),
    )
    assert code == 0
    assert "<u " in out


def test_convert_tei_speaker_dash_to_tier_exits_two(capsys, tmp_path):
    # The tier reader reads a '-' speaker field as "no speaker".
    source = tmp_path / "dash.xml"
    source.write_bytes(fixture_bytes("anchored_dialogue.xml").replace(b"SPK0", b"-"))
    code, out, err = run(capsys, "convert", str(source), "--from", "tei", "--to", "tier")
    assert (code, out) == (2, "")
    assert err.endswith(
        "spokenkit: cannot write tier line 11: speaker id '-' would read back as no speaker\n"
    )


def test_convert_to_unwritable_output_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "out.xml"
    code, out, err = run(
        capsys,
        "convert", fixture_path("score_dialogue.tier"),
        "--from", "tier", "--to", "tei",
        "-o", str(target),
    )
    assert (code, out) == (2, "")
    assert err == f"spokenkit: cannot write {target}: No such file or directory\n"


NOT_UTF8 = b"# first\n\ncategory\tverbal\tx\xff\n"


def test_non_utf8_tier_file_exits_two(capsys, tmp_path):
    raw = fixture_bytes("score_dialogue.tier")
    source = tmp_path / "latin1.tier"
    source.write_bytes(raw.replace("ça".encode(), b"\xe7a"))
    line_no = raw[: raw.index("ça".encode())].count(b"\n") + 1
    code, out, err = run(capsys, "convert", str(source), "--from", "tier", "--to", "tei")
    assert (code, out) == (2, "")
    assert err == f"spokenkit: line {line_no}: byte 0xe7 is not valid UTF-8\n"


def test_non_utf8_config_exits_two(capsys, tmp_path):
    config = tmp_path / "config.tsv"
    config.write_bytes(NOT_UTF8)
    code, out, err = run(
        capsys,
        "convert", fixture_path("score_dialogue.tier"),
        "--from", "tier", "--to", "tei",
        "--config", str(config),
    )
    assert (code, out) == (2, "")
    assert err == "spokenkit: config line 3: byte 0xff is not valid UTF-8\n"


def test_non_utf8_registry_exits_two(capsys, tmp_path):
    registry = tmp_path / "registry.tsv"
    registry.write_bytes(NOT_UTF8)
    code, out, err = run(
        capsys, "validate", "--registry", str(registry), fixture_path("tagged_neuter.xml")
    )
    assert (code, out) == (2, "")
    assert err == f"spokenkit: bad registry {registry}: line 3: byte 0xff is not valid UTF-8\n"


def test_non_utf8_convention_rules_exit_two(capsys, tmp_path):
    rules = tmp_path / "rules.tsv"
    rules.write_bytes(NOT_UTF8)
    code, out, err = run(
        capsys,
        "convert", fixture_path("anchored_dialogue.xml"),
        "--from", "tei", "--to", "tei",
        "--conventions", str(rules),
    )
    assert (code, out) == (2, "")
    assert err == (
        f"spokenkit: bad convention rules {rules}: line 3: byte 0xff is not valid UTF-8\n"
    )


BOM = b"\xef\xbb\xbf"

# reader: (file content, the command reading it at "{}", a line its output holds)
BOM_CASES = {
    "tier": (
        fixture_bytes("score_dialogue.tier"),
        ("convert", "{}", "--from", "tier", "--to", "tei"),
        "<u ",
    ),
    "config": (
        b"severity\tDUP_ID\twarning\n",
        ("validate", "--config", "{}", fixture_path("inline_anchors.xml")),
        "0 error(s), 1 warning(s)",
    ),
    "registry": (
        fixture_bytes("registry.tsv"),
        ("validate", "--registry", "{}", "--lang", "fr", fixture_path("tagged_neuter.xml")),
        "error DOMAIN_VIOLATION",
    ),
    "conventions": (
        b"(Okay)\tvocal\t1\n",
        ("convert", fixture_path("anchored_dialogue.xml"), "--from", "tei", "--to", "tei",
         "--conventions", "{}"),
        "<vocal><desc>Okay</desc></vocal>",
    ),
}


@pytest.mark.parametrize("reader", BOM_CASES)
def test_a_leading_byte_order_mark_changes_nothing(capsys, tmp_path, reader):
    content, argv, shown = BOM_CASES[reader]
    results = []
    for name, data in (("plain", content), ("bom", BOM + content)):
        path = tmp_path / name
        path.write_bytes(data)
        results.append(run(capsys, *(str(path) if arg == "{}" else arg for arg in argv)))
    assert results[1] == results[0]
    assert shown in results[1][1]


@pytest.mark.parametrize("data, line_no", [(BOM + b"\xff\n", 1), (BOM + NOT_UTF8, 3)])
def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_line(
    capsys, tmp_path, data, line_no
):
    registry = tmp_path / "registry.tsv"
    registry.write_bytes(data)
    code, out, err = run(
        capsys, "validate", "--registry", str(registry), fixture_path("tagged_neuter.xml")
    )
    assert (code, out) == (2, "")
    assert err == (
        f"spokenkit: bad registry {registry}: line {line_no}: byte 0xff is not valid UTF-8\n"
    )


def test_validate_unexpected_exception_fails_only_its_file(capsys, monkeypatch):
    import spokenkit.cli as cli

    real = cli.validate_all
    calls = []

    def validate_all(doc, options):
        calls.append(doc)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(doc, options)

    monkeypatch.setattr(cli, "validate_all", validate_all)
    first, second = fixture_path("inline_anchors.xml"), fixture_path("anchored_dialogue.xml")
    code, out, err = run(capsys, "validate", first, second)
    assert code == 2
    assert err == f"{first}: unexpected RuntimeError: boom\n"
    assert out == f"== {second} ==\n0 error(s), 0 warning(s)\n"


# ---------------------------------------------------------------- typed errors

def _raise_unknown_id(*args):
    raise UnknownIdError("timeline point", "x")


@pytest.mark.parametrize("name", ["overlaps_report", "sequence_implicit"])
def test_typed_error_from_a_library_call_is_one_usage_line(capsys, monkeypatch, name):
    # Any SpokenkitError leaving a command is reported by main, not only those it names.
    monkeypatch.setattr(spokenkit.cli, name, _raise_unknown_id)
    code, out, err = run(capsys, "overlaps", fixture_path("anchored_dialogue.xml"))
    assert (code, out) == (2, "")
    assert err == "spokenkit: unknown timeline point 'x'\n"


def test_validate_reports_a_typed_error_as_its_message(capsys, monkeypatch):
    monkeypatch.setattr(spokenkit.cli, "validate_all", _raise_unknown_id)
    path = fixture_path("anchored_dialogue.xml")
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err == f"{path}: unknown timeline point 'x'\n"


def test_bad_tagset_names_the_file(capsys, tmp_path):
    tagset = tmp_path / "tags.xml"
    tagset.write_bytes(fixture_bytes("tags.xml").replace(b'xml:id="mas"', b'xml:id="fem"'))
    code, out, err = run(
        capsys, "validate", "--tagset", str(tagset), fixture_path("tagged_neuter.xml")
    )
    assert (code, out) == (2, "")
    assert err == f"spokenkit: bad tagset {tagset}: duplicate identifier 'fem'\n"


@pytest.mark.parametrize("action", [("list",), ("expand", "Ncms__")])
def test_bad_tag_library_names_the_file(capsys, tmp_path, action):
    tagset = tmp_path / "tags.xml"
    tagset.write_bytes(fixture_bytes("tags.xml").replace(b'xml:id="mas"', b'xml:id="fem"'))
    code, out, err = run(capsys, "tag", action[0], "--lib", str(tagset), *action[1:])
    assert (code, out) == (2, "")
    assert err == f"spokenkit: bad tagset {tagset}: duplicate identifier 'fem'\n"


def test_tag_expand_takes_a_reference(capsys):
    code, out, _ = run(capsys, "tag", "expand", "--lib", fixture_path("tags.xml"), "#Ncfs__")
    assert code == 0
    assert out.splitlines()[1] == "grammaticalGender=feminine"


# ---------------------------------------------------------------- reader warnings

NAN_WARNING = "warning: point 'T2' has a non-numeric offset 'NaN'\n"
HASH_WARNING = "warning: feature identifier '#NC' contains '#'; normalised to 'NC'\n"


def _nan_dialogue(tmp_path) -> str:
    path = tmp_path / "nan.xml"
    path.write_bytes(
        fixture_bytes("anchored_dialogue.xml").replace(
            b'<when xml:id="T2"/>', b'<when xml:id="T2" absolute="NaN"/>'
        )
    )
    return str(path)


@pytest.mark.parametrize(
    "command",
    [("validate",), ("overlaps",), ("convert", "--from", "tei", "--to", "tier")],
    ids=["validate", "overlaps", "convert"],
)
def test_every_command_prints_the_readers_warnings_once(capsys, tmp_path, command):
    code, _, err = run(capsys, command[0], _nan_dialogue(tmp_path), *command[1:])
    assert code == 0
    assert err.count(NAN_WARNING) == 1


def test_validate_prints_a_files_warnings_before_its_report(tmp_path):
    plain, nan = fixture_path("anchored_dialogue.xml"), _nan_dialogue(tmp_path)
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        code = main(["validate", plain, nan])
    assert code == 0
    assert both.getvalue() == (
        f"== {plain} ==\n0 error(s), 0 warning(s)\n"
        f"{NAN_WARNING}== {nan} ==\n0 error(s), 0 warning(s)\n"
    )


def test_validate_prints_a_tagsets_warnings_once(capsys):
    tagset = fixture_path("category_flib.xml")
    documents = [fixture_path("tagged_neuter.xml"), fixture_path("seg.xml")]
    _, _, err = run(capsys, "validate", "--tagset", tagset, *documents)
    assert err == HASH_WARNING


def test_tag_prints_the_readers_warnings(capsys):
    code, _, err = run(capsys, "tag", "list", "--lib", fixture_path("category_flib.xml"))
    assert (code, err) == (0, HASH_WARNING)


def test_registry_with_a_broader_cycle_names_the_file(capsys, tmp_path):
    registry = tmp_path / "cycle.tsv"
    registry.write_text("a\tsimple\ta\tb\t-\nb\tsimple\tb\ta\t-\n", encoding="utf-8")
    code, out, err = run(
        capsys, "validate", "--registry", str(registry), fixture_path("tagged_neuter.xml")
    )
    assert (code, out) == (2, "")
    assert err == (
        f"spokenkit: bad registry {registry}: "
        "line 2: category 'b' would close a broader cycle at 'b'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--tagset", "{missing}", fixture_path("tagged_neuter.xml")),
        ("validate", "--registry", "{missing}", fixture_path("tagged_neuter.xml")),
        (
            "convert", fixture_path("anchored_dialogue.xml"), "--from", "tei", "--to", "tei",
            "--conventions", "{missing}",
        ),
    ],
    ids=["tagset", "registry", "conventions"],
)
def test_missing_side_file_is_a_read_error_without_bad_prefix(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(a.replace("{missing}", str(missing)) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"spokenkit: cannot read {missing}: No such file or directory\n"


# ---------------------------------------------------------------- parser

def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    dialogue = fixture_path("anchored_dialogue.xml")
    main(["validate", dialogue])
    capsys.readouterr()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["validate", dialogue]) == 0
    assert main(["overlaps", dialogue]) == 0
    assert main(["convert", dialogue, "--from", "tei", "--to", "tier"]) == 0
    assert main(["tag", "list", "--lib", fixture_path("tags.xml")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["convert", dialogue, "--to", "tier"])
    assert exc.value.code == 2
    assert built == []
    # build_parser() still builds a new parser on each call, and the counter sees it.
    assert spokenkit.cli.build_parser() is not spokenkit.cli.build_parser()
    assert built


_COUNT_PARSERS_ON_IMPORT = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
import spokenkit.cli
assert built == [], f"{len(built)} parser(s) built at import"
spokenkit.cli.main(["tag", "list", "--lib", sys.argv[1]])
assert built, "no parser built by the first call"
"""


def test_importing_the_cli_builds_no_parser():
    src = Path(spokenkit.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-c", _COUNT_PARSERS_ON_IMPORT, fixture_path("tags.xml")]
    done = subprocess.run(command, capture_output=True, env=env, timeout=60, check=False)
    assert done.returncode == 0, done.stderr.decode()


# ---------------------------------------------------------------- golden output

GOLDEN = FIXTURES / "cli_golden.json"
GOLDEN_COMMANDS = (
    ("validate",),
    ("overlaps",),
    ("convert", "--from", "tei", "--to", "tier"),
    ("convert", "--from", "tei", "--to", "tei"),
)
TIER_GOLDEN_COMMANDS = (
    ("convert", "--from", "tier", "--to", "tei"),
    ("convert", "--from", "tier", "--to", "tier"),
)


def golden_runs() -> list[tuple[Path, tuple[str, ...]]]:
    """Each fixture with each golden command it is run with, in golden-file order."""
    runs = [(f, c) for f in sorted(FIXTURES.glob("*.xml")) for c in GOLDEN_COMMANDS]
    runs += [(f, c) for f in sorted(FIXTURES.glob("*.tier")) for c in TIER_GOLDEN_COMMANDS]
    return runs


def cli_case(fixture: Path, command: tuple[str, ...]) -> dict:
    """Exit code, stdout and stderr of one golden command on one fixture.

    Fixture paths are written relative to the repository root, and output is
    kept as lines with their ends so the comparison stays byte-exact.
    """
    prefix = str(FIXTURES) + "/"
    argv = [command[0], str(fixture), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": [a.replace(prefix, "tests/fixtures/") for a in argv],
        "exit": code,
        "stdout": out.getvalue().replace(prefix, "tests/fixtures/").splitlines(True),
        "stderr": err.getvalue().replace(prefix, "tests/fixtures/").splitlines(True),
    }


def cli_outputs() -> list[dict]:
    """Every golden case, in golden-file order.

    Regenerate the golden file, after checking that a change in output is
    intended, with::

        PYTHONPATH=src python -c 'import tests.test_cli as t; t.write_golden()'
    """
    return [cli_case(fixture, command) for fixture, command in golden_runs()]


def write_golden() -> None:
    GOLDEN.write_text(
        json.dumps(cli_outputs(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def test_cli_output_on_every_fixture_matches_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = cli_outputs()
    assert [case["argv"] for case in actual] == [case["argv"] for case in golden]
    for got, want in zip(actual, golden):
        assert got == want, " ".join(want["argv"])


def test_cli_output_does_not_depend_on_the_order_of_calls():
    golden = {
        tuple(case["argv"]): case
        for case in json.loads(GOLDEN.read_text(encoding="utf-8"))
    }
    usage_error = ["convert", fixture_path("anchored_dialogue.xml"), "--to", "tier"]
    for fixture, command in reversed(golden_runs()):
        got = cli_case(fixture, command)
        assert got == golden[tuple(got["argv"])], " ".join(got["argv"])
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(usage_error)
        assert exc.value.code == 2
