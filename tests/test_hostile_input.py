"""Hostile-input smoke test: odd attribute values never give a traceback.

Each XML fixture is mutated in a fixed set of ways: every attribute value is
set to ``""`` and to ``"-1"``, one at a time, and ``absolute="-1"`` is added
to each ``<when>``, one at a time. Every CLI command that reads markup runs
on every mutation; each must end with an exit code the README documents.
An encoding declaration the XML reader cannot use is a usage error too.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest

from spokenkit.cli import main
from tests.conftest import FIXTURES, fixture_bytes

COMMANDS = (
    ("validate",),
    ("overlaps",),
    ("convert", "--from", "tei", "--to", "tier"),
    ("convert", "--from", "tei", "--to", "tei"),
)
ATTRIBUTE_VALUE = re.compile(rb'(\s[\w:.-]+=")([^"]*)(")')


def mutations(data: bytes):
    """(description, mutated bytes) pairs of one document, in a fixed order."""
    for match in ATTRIBUTE_VALUE.finditer(data):
        for value in (b"", b"-1"):
            mutated = data[: match.start(2)] + value + data[match.end(2) :]
            yield f"{match.group(0).decode().strip()} -> {value.decode()!r}", mutated
    for match in re.finditer(rb"<when\b", data):
        mutated = data[: match.end()] + b' absolute="-1"' + data[match.end() :]
        yield f"absolute=-1 on <when> at byte {match.start()}", mutated


def test_mutated_fixtures_never_raise(tmp_path):
    path = tmp_path / "mutated.xml"
    failures = []
    runs = 0
    for fixture in sorted(FIXTURES.glob("*.xml")):
        for description, data in mutations(fixture.read_bytes()):
            path.write_bytes(data)
            for command in COMMANDS:
                argv = [command[0], str(path), *command[1:]]
                runs += 1
                output = io.StringIO()
                try:
                    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                        code = main(argv)
                except Exception as exc:
                    failures.append(f"{fixture.name}: {description}: {command}: {exc!r}")
                    continue
                if code not in (0, 1, 2):
                    failures.append(f"{fixture.name}: {description}: {command}: exit {code}")
    assert runs > 1000
    assert failures == []


# What ``ET.fromstring`` raises for each declaration: LookupError for the first
# two, ValueError for utf-32 and UnicodeError, a ValueError, for idna.
UNUSABLE_ENCODINGS = ("nope", "rot13", "utf-32", "idna")


@pytest.mark.parametrize("encoding", UNUSABLE_ENCODINGS)
@pytest.mark.parametrize("command", COMMANDS[:3], ids=lambda command: " ".join(command))
def test_unusable_encoding_declaration_is_a_usage_error(tmp_path, capsys, encoding, command):
    data = fixture_bytes("anchored_dialogue.xml").replace(
        b'encoding="UTF-8"', f'encoding="{encoding}"'.encode(), 1
    )
    path = tmp_path / f"{encoding}.xml"
    path.write_bytes(data)
    code = main([command[0], str(path), *command[1:]])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    prefix = f"{path}: " if command[0] == "validate" else "spokenkit: "
    assert err.startswith(prefix + "cannot decode markup: ")
    assert err.count("\n") == 1 and err.endswith("\n")
