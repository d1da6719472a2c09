"""Golden CLI output on generated documents.

``cli_golden.json`` pins what the CLI prints on the fixtures, a handful of
hand-written files. This file pins it on 40 seeded documents from each of
three generators: the read path's ``_Gen``, the validator's ``_TaggedGen``
and the tier round trip's ``random_tier_document``. Each golden entry is the
SHA-256 digest of one command's exit code, stdout and stderr, so that the
reader, the resolver, the sequencer, the tier bridge and both writers can be
rewritten for speed with their output held byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from spokenkit.cli import main
from spokenkit.tier import serialize_tier
from tests.conftest import FIXTURES
from tests.test_tei_read_path import _Gen
from tests.test_tier import random_tier_document
from tests.test_validate_walk import _TaggedGen

GOLDEN = FIXTURES / "generated_golden.json"
SEEDS = range(40)
TEI_COMMANDS = (
    ("validate",),
    ("overlaps",),
    ("convert", "--from", "tei", "--to", "tier"),
    ("convert", "--from", "tei", "--to", "tei"),
    ("convert", "--from", "tei", "--to", "tei", "--materialize-timeline"),
    ("tag", "list", "--lib"),
)
TIER_COMMANDS = (
    ("convert", "--from", "tier", "--to", "tei"),
    ("convert", "--from", "tier", "--to", "tier"),
)


def generated_inputs():
    """``(name, file suffix, bytes, commands)`` for each generated document."""
    for seed in SEEDS:
        markup = _Gen(random.Random(seed)).document().encode("utf-8")
        yield f"read_path/{seed}", ".xml", markup, TEI_COMMANDS
    for seed in SEEDS:
        markup = _TaggedGen(random.Random(seed)).document().encode("utf-8")
        yield f"tagged/{seed}", ".xml", markup, TEI_COMMANDS
    for seed in SEEDS:
        text = serialize_tier(random_tier_document(random.Random(seed)))
        yield f"tier/{seed}", ".tier", text.encode("utf-8"), TIER_COMMANDS


def _digest(path: Path, command: tuple[str, ...]) -> str:
    """The digest of one command's exit code, stdout and stderr on ``path``,
    with the path itself written as ``DOC``."""
    if command[0] == "tag":
        argv = [*command, str(path)]
    else:
        argv = [command[0], str(path), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    outputs = [code, out.getvalue(), err.getvalue()]
    text = json.dumps(outputs, ensure_ascii=False).replace(json.dumps(str(path))[1:-1], "DOC")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated_digests(directory: Path) -> dict[str, str]:
    """Every golden digest, by document name and command.

    Regenerate the golden file, after checking that a change in output is
    intended, with::

        PYTHONPATH=src python -c 'import tests.test_generated_golden as t; t.write_golden()'
    """
    digests = {}
    for name, suffix, data, commands in generated_inputs():
        path = directory / ("doc" + suffix)
        path.write_bytes(data)
        for command in commands:
            digests[f"{name}: {' '.join(command)}"] = _digest(path, command)
    return digests


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as directory:
        digests = generated_digests(Path(directory))
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


def test_cli_output_on_generated_documents_matches_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = generated_digests(tmp_path)
    assert list(actual) == list(golden)
    changed = [name for name in golden if actual[name] != golden[name]]
    assert changed == []
