"""Structural golden file for the TEI reader.

``cli_golden.json`` pins only what the CLI prints. This file pins what the
reader builds: for each XML fixture, a SHA-256 digest of the document, its
findings and its declared ids, after ``parse_document`` and again after
``resolve_anchors``. The digest covers every field that takes part in
``repr``, so it also pins ``declared_ids`` order, ``id_generated``, the
annotations (one per utterance and free-standing event; tokens are body
items, not annotations) and finding locations.
"""

from __future__ import annotations

import hashlib
import json

from spokenkit.tei import parse_document, resolve_anchors
from tests.conftest import FIXTURES

GOLDEN = FIXTURES / "parse_golden.json"


def stable_repr(obj) -> str:
    """``repr``, except that sets are written in sorted order.

    Plain ``repr`` of a ``frozenset`` of strings depends on the hash seed of
    the process, so it cannot be digested across runs.
    """
    if isinstance(obj, (set, frozenset)):
        return f"{type(obj).__name__}({sorted(stable_repr(x) for x in obj)})"
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        # A model value reads as its ``repr`` does: the class, then each field by name.
        fields = ", ".join(f"{name}={stable_repr(getattr(obj, name))}" for name in obj._fields)
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, tuple):
        inner = ", ".join(stable_repr(x) for x in obj)
        return f"({inner},)" if len(obj) == 1 else f"({inner})"
    if isinstance(obj, list):
        return "[" + ", ".join(stable_repr(x) for x in obj) + "]"
    if hasattr(obj, "items"):
        return "{" + ", ".join(f"{k!r}: {stable_repr(v)}" for k, v in obj.items()) + "}"
    return repr(obj)


def digest(doc, findings) -> str:
    text = stable_repr((doc, findings, doc.declared_ids))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_digests() -> dict[str, dict[str, str]]:
    """Digest after parsing and after anchor resolution, per XML fixture.

    Regenerate the golden file, after checking that a change in the parsed
    structure is intended, with::

        PYTHONPATH=src python -c 'import tests.test_parse_golden as t; t.write_golden()'
    """
    result = {}
    for fixture in sorted(FIXTURES.glob("*.xml")):
        doc, warnings = parse_document(fixture.read_bytes())
        resolved, findings = resolve_anchors(doc)
        result[fixture.name] = {
            "parse_document": digest(doc, warnings),
            "resolve_anchors": digest(resolved, findings),
        }
    return result


def write_golden() -> None:
    GOLDEN.write_text(json.dumps(parse_digests(), indent=1) + "\n", encoding="utf-8")


def test_parsed_structure_of_every_fixture_matches_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert parse_digests() == golden
