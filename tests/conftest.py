from __future__ import annotations

import gc
from pathlib import Path

import pytest

from spokenkit.tei import parse_document

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_bytes(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def parse_fixture(name: str):
    doc, _ = parse_document(fixture_bytes(name))
    return doc


def header_tags(doc, path: str | None = None) -> list[str]:
    """The names of the children of the header, or of the header element
    that ``OpaqueElement.find`` reaches by ``path``."""
    el = doc.metadata.header
    return [child.tag for child in (el if path is None else el.find(path)).children]


def cyclic_garbage(call) -> int:
    """How many objects ``call()`` leaves for the cyclic collector, its result dropped.

    The collector is paused meanwhile, so that it cannot collect them first.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def dialogue_doc():
    return parse_fixture("anchored_dialogue.xml")


@pytest.fixture
def inline_doc():
    return parse_fixture("inline_anchors.xml")


@pytest.fixture
def tags_doc():
    return parse_fixture("tags.xml")


@pytest.fixture
def pomme_doc():
    return parse_fixture("pomme.xml")
