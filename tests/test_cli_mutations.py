"""Seeded mutation harness for the command line, after the fuzzing loop of
Miller, Fredriksen & So, "An empirical study of the reliability of UNIX
utilities" (CACM, 1990).

Each mutant is one file of ``tests/fixtures`` with a few random edits:
fragments inserted (markup, character and entity references, C0 controls, U+2028,
``NaN``, ``1e999``, ``((``), runs of bytes deleted, copied or overwritten.
Every command that reads that kind of file runs on it in-process through
``spokenkit.cli.main``. The oracle:

- no exception leaves ``main``;
- the exit code is 0, 1 or 2, and 1 only from ``validate``;
- ``validate`` never reports a failure through its catch-all, whose lines
  read ``path: unexpected ExceptionName: message``;
- a TEI document that ``convert --to tei`` wrote with exit 0 converts again,
  TEI to TEI, with exit 0 and to the same bytes.

The seed is fixed, so every run checks the same mutants.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path

from spokenkit.cli import main
from tests.conftest import FIXTURES, fixture_path

SEED = 1990
MUTANTS = 300
EDITS_PER_MUTANT = (1, 3)
# Inserting a fragment is drawn as often as the three other edits together:
# it is the edit most likely to leave a document that still parses.
EDITS = ("insert", "insert", "insert", "delete", "copy", "overwrite")

FRAGMENTS = (
    b"<",
    b"&#1;",
    b"&lt;",
    b"&#9;",
    b"&#13;",
    b"\x00",
    b"\x01",
    b"\x0b",
    b"\x1f",
    "\u2028".encode(),
    b"NaN",
    b"1e999",
    b"((",
)

# The catch-all's line format; TeiParseError's own "unexpected root
# namespace" message does not match it.
CATCH_ALL = re.compile(r": unexpected [A-Z]\w*: ")

TO_TEI = "--from", "tei", "--to", "tei"


def mutate(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one to three random edits."""
    for _ in range(rng.randint(*EDITS_PER_MUTANT)):
        at = rng.randrange(len(data) + 1)
        length = rng.randint(1, 16)
        edit = rng.choice(EDITS)
        if edit == "insert":
            data = data[:at] + rng.choice(FRAGMENTS) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + length :]
        elif edit == "copy":
            source = rng.randrange(len(data) + 1)
            data = data[:at] + data[source : source + length] + data[at:]
        else:
            data = data[:at] + rng.randbytes(length) + data[at + length :]
    return data


def commands(source: Path, mutant: str, promoted: str, out: str) -> list[tuple[str, ...]]:
    """Each command that reads a file of ``source``'s kind, run on ``mutant``.

    A command whose output is a TEI document writes it to ``out``, which
    the round-trip check reads back.
    """
    if source.suffix == ".xml":
        return [
            ("validate", mutant),
            ("overlaps", mutant),
            ("convert", mutant, "--from", "tei", "--to", "tier"),
            ("convert", mutant, *TO_TEI, "-o", out),
            ("convert", mutant, *TO_TEI, "--conventions", fixture_path("gat.rules"), "-o", out),
            ("tag", "list", "--lib", mutant),
            ("validate", "--tagset", mutant, fixture_path("tagged_sentence.xml")),
        ]
    if source.suffix == ".tier":
        return [
            ("convert", mutant, "--from", "tier", "--to", "tier"),
            ("convert", mutant, "--from", "tier", "--to", "tei", "-o", out),
        ]
    if source.suffix == ".rules":
        return [("convert", promoted, *TO_TEI, "--conventions", mutant, "-o", out)]
    return [("validate", "--registry", mutant, "--lang", "fr", fixture_path("tagged_neuter.xml"))]


def run(argv: tuple[str, ...]) -> tuple[int | str, str]:
    """Exit code (or the exception that left ``main``) and stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(list(argv)), err.getvalue()
    except (Exception, SystemExit) as exc:
        return f"raised {exc!r}", err.getvalue()


def check(argv: tuple[str, ...], out: Path, again: Path) -> list[str]:
    """The oracle's complaints about one command; ``out`` is removed first."""
    out.unlink(missing_ok=True)
    code, err = run(argv)
    allowed = (0, 1, 2) if argv[0] == "validate" else (0, 2)
    if code not in allowed:
        return [f"exit {code}"]
    if argv[0] == "validate":
        return [f"catch-all: {line}" for line in err.splitlines() if CATCH_ALL.search(line)]
    if code == 0 and "-o" in argv:
        written = out.read_bytes()
        code, err = run(("convert", str(out), *TO_TEI, "-o", str(again)))
        if code != 0:
            return [f"written TEI converts again with exit {code}: {err!r}"]
        if again.read_bytes() != written:
            return ["written TEI converts again to other bytes"]
    return []


def test_mutated_inputs_meet_the_cli_oracle(tmp_path):
    out, again = tmp_path / "out.xml", tmp_path / "again.xml"
    promoted = tmp_path / "promoted.xml"
    # A document with a '((' marker for the mutated convention rules to act on.
    assert run(("convert", fixture_path("score_dialogue.tier"), "--from", "tier", "--to", "tei",
                "-o", str(promoted)))[0] == 0
    sources = sorted(
        [*FIXTURES.glob("*.xml"), *FIXTURES.glob("*.tier"), *FIXTURES.glob("*.rules"),
         *FIXTURES.glob("*.tsv")]
    )
    rng = random.Random(SEED)
    failures = []
    runs = 0
    for n in range(MUTANTS):
        source = sources[n % len(sources)]
        mutant = tmp_path / f"mutant{source.suffix}"
        mutant.write_bytes(mutate(rng, source.read_bytes()))
        for argv in commands(source, str(mutant), str(promoted), str(out)):
            runs += 1
            for complaint in check(argv, out, again):
                failures.append(f"mutant {n} of {source.name}: {' '.join(argv)}: {complaint}")
    assert runs > 1000
    assert failures == []
