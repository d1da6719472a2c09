"""``validate_all`` walks the body's content once.

One pass over the body feeds every check but identifiers and level
coherence; each public check is that pass filtered to its own codes. So
``validate_all``'s report must be exactly the sorted, deduplicated union of
what the public checks and level coherence report one by one. Each
public check's list, order included, is pinned on two documents.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spokenkit.core import Finding, check_level_coherence
from spokenkit.core.model import ERROR, WARNING
from spokenkit.datacat import load_registry
from spokenkit.tei import build_document_library, parse_document, resolve_anchors
from spokenkit.tei.model import Seg, Utterance
from spokenkit.validate import (
    DEFAULT_SEVERITY,
    LEVEL_INCOHERENT,
    ValidateOptions,
    check_ids,
    check_refs,
    check_span_order,
    check_tagset,
    check_temporal,
    validate_all,
)
from tests.conftest import FIXTURES, fixture_bytes, parse_fixture
from tests.test_tei_read_path import _Gen

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

ANA_REFS = ("#Ncns__", "#Ncfs__", "#odd__", "#NC", "Ncns__", "#nowhere")
TAGSET = (
    '<fLib><f name="partOfSpeech" xml:id="NC"><symbol value="commonNoun"/></f></fLib>'
    '<fLib><f name="grammaticalGender" xml:id="neu"><symbol value="neuter"/></f>'
    '<f name="grammaticalGender" xml:id="fem"><symbol value="feminine"/></f>'
    '<f name="grammaticalNumber" xml:id="sing"><symbol value="singular"/></f>'
    '<f name="wordClass" xml:id="odd"><symbol value="adverb"/></f></fLib>'
)
TAG_LIBS = (
    '<fvLib><fs feats="#NC #neu #sing" xml:id="Ncns__"/><fs feats="#NC #fem" xml:id="Ncfs__"/>'
    '<fs feats="#odd" xml:id="odd__"/></fvLib>',
    # An inconsistent library: its tag names a feature nobody declares.
    '<fvLib><fs feats="#NC #nowhere" xml:id="Ncns__"/></fvLib>',
)


class _TaggedGen(_Gen):
    """The read path's random documents, with analyses drawn from a small
    tagset, a span group over the tokens and, mostly, the tagset itself."""

    def w(self) -> str:
        return super().w().replace('ana="#tag"', f'ana="{self.rand.choice(ANA_REFS)}"')

    def span_group(self) -> str:
        return ""  # the span group is planted below

    def token_ref(self) -> str:
        return f"#w{self.rand.randint(1, self.n + 1)}"

    def document(self) -> str:
        markup = super().document()
        spans = []
        for _ in range(self.rand.randint(0, 4)):
            attrs = f'from="{self.token_ref()}" to="{self.token_ref()}"'
            if self.rand.random() < 0.5:
                attrs += f' ana="{self.rand.choice(ANA_REFS)}"'
            if self.rand.random() < 0.3:
                attrs += f' xml:id="{self.rand.choice(("sp1", "sp1", "u1", "w 2"))}"'
            spans.append(f"<span {attrs}/>")
        back = ""
        if self.rand.random() < 0.8:
            back = f"<back>{TAGSET}{self.rand.choice(TAG_LIBS)}</back>"
        group = f'<spanGrp type="wordForm">{"".join(spans)}</spanGrp>' if spans else ""
        return markup.replace("</body></text>", f"{group}</body>{back}</text>")


def _options() -> list[ValidateOptions]:
    registry = load_registry(fixture_bytes("registry.tsv"))
    library = build_document_library(parse_fixture("tags.xml"))
    return [
        ValidateOptions(),
        ValidateOptions(registry=registry, language="fr"),
        ValidateOptions(library=library, registry=registry, language="fr"),
        ValidateOptions(library=library, severity_overrides={"DUP_ID": WARNING}),
    ]


OPTIONS = _options()


def union_of_public_checks(doc, opts: ValidateOptions) -> list:
    """What ``validate_all`` promises: every check's findings, with the
    severity overrides applied, each reported once, errors first, then by
    code, location and message."""
    issues = [
        *check_ids(doc),
        *check_refs(doc, opts.library),
        *check_temporal(doc),
        *check_span_order(doc),
        *check_tagset(doc, opts.library, opts.registry, opts.language),
    ]
    for level in doc.levels:
        issues += [
            Finding(LEVEL_INCOHERENT, DEFAULT_SEVERITY[LEVEL_INCOHERENT], v.location, v.message)
            for v in check_level_coherence(doc, level.id)
        ]
    overrides = opts.severity_overrides
    issues = [i._replace(severity=overrides.get(i.code, i.severity)) for i in issues]
    rank = {ERROR: 0, WARNING: 1}
    return sorted(
        set(issues), key=lambda i: (rank.get(i.severity, 2), i.code, i.location, i.message)
    )


def _documents(data: bytes):
    """The parsed document and the document the ``validate`` command checks."""
    doc, _ = parse_document(data)
    return doc, resolve_anchors(doc)[0]


def _fixture_documents():
    return [doc for path in sorted(FIXTURES.glob("*.xml")) for doc in _documents(path.read_bytes())]


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_validate_all_is_the_union_of_the_checks_on_generated_documents(seed):
    for doc in _documents(_TaggedGen(random.Random(seed)).document().encode("utf-8")):
        for opts in OPTIONS:
            assert list(validate_all(doc, opts).issues) == union_of_public_checks(doc, opts)


def test_validate_all_is_the_union_of_the_checks_on_every_fixture():
    for doc in _fixture_documents():
        for opts in OPTIONS:
            assert list(validate_all(doc, opts).issues) == union_of_public_checks(doc, opts)


def test_generated_documents_reach_every_content_finding():
    """The generator reaches the findings that the content walk feeds."""
    rand = random.Random(20261018)
    codes: set[str] = set()
    for _ in range(100):
        _, doc = _documents(_TaggedGen(rand).document().encode("utf-8"))
        for opts in OPTIONS:
            codes.update(i.code for i in validate_all(doc, opts).issues)
    assert codes >= {
        "DUP_ID", "BAD_ID", "DANGLING_REF", "ANCHOR_ORDER", "SPAN_ORDER", "UNKNOWN_TAG",
        "DOMAIN_VIOLATION", "UNKNOWN_CATEGORY", "TAGSET_ERROR",
    }


class _CountedContent(tuple):
    """Container content that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _counting_content(items, counted: list) -> list:
    """``items`` with the content of every utterance and seg, nested ones
    included, replaced by a :class:`_CountedContent` that is added to ``counted``."""
    out = []
    for item in items:
        if isinstance(item, (Utterance, Seg)):
            content = _CountedContent(_counting_content(item.content, counted))
            counted.append(content)
            item = item._replace(content=content)
        out.append(item)
    return out


@pytest.mark.parametrize("opts", OPTIONS)
def test_validate_all_walks_each_body_item_once(opts):
    generated = [
        _documents(_TaggedGen(random.Random(seed)).document().encode("utf-8"))[0]
        for seed in range(20)
    ]
    for doc in _fixture_documents() + generated:
        counted: list[_CountedContent] = []
        body = tuple(_counting_content(doc.body, counted))
        validate_all(doc._replace(body=body), opts)
        assert [content.iterations for content in counted] == [1] * len(counted)


def _rows(issues) -> list[tuple[str, str, str, str]]:
    return [(i.code, i.severity, i.location, i.message) for i in issues]


def test_each_public_check_returns_its_list_in_order_on_a_fixture():
    doc = parse_fixture("inline_anchors.xml")
    assert _rows(check_ids(doc)) == [
        ("DUP_ID", "error", "tp2u", "identifier 'tp2u' is declared 2 times"),
    ]
    assert check_refs(doc) == []
    assert check_temporal(doc) == []
    assert check_span_order(doc) == []
    assert check_tagset(doc) == []
    assert check_tagset(doc, registry=OPTIONS[1].registry, language="fr") == []


def test_each_public_check_returns_its_list_in_order_on_a_generated_document():
    doc, _ = parse_document(_TaggedGen(random.Random(1441)).document().encode("utf-8"))
    assert _rows(check_ids(doc)) == [
        ("BAD_ID", "warning", "u", "identifier on 'u' is empty"),
        ("BAD_ID", "warning", "seg", "identifier on 'seg' is empty"),
        ("DUP_ID", "error", "sp1", "identifier 'sp1' is declared 2 times"),
    ]
    assert _rows(check_refs(doc)) == [
        ("DANGLING_REF", "error", "body", "@who reference 'S1' resolves to nothing"),
        ("DANGLING_REF", "error", "u7", "@who reference 'S1' resolves to nothing"),
        ("DANGLING_REF", "error", "spanGrp[3]", "@ana reference 'nowhere' resolves to nothing"),
        ("DANGLING_REF", "error", "sp1", "@to reference 'w7' resolves to nothing"),
        ("DANGLING_REF", "error", "spanGrp[3]", "@to reference 'w10' resolves to nothing"),
    ]
    assert _rows(check_temporal(doc)) == [
        ("ANCHOR_ORDER", "warning", "u7", "anchors of utterance 'u7' decrease in timeline order"),
    ]
    assert _rows(check_span_order(doc)) == [
        ("SPAN_ORDER", "error", "spanGrp[3]", "span runs from 'w6' to 'w2' against document order"),
    ]
    assert _rows(check_tagset(doc)) == [
        ("UNKNOWN_TAG", "error", "spanGrp[3]", "analysis reference 'nowhere' has no target"),
    ]
    assert _rows(check_tagset(doc, registry=OPTIONS[1].registry, language="fr")) == [
        ("UNKNOWN_CATEGORY", "warning", "w11",
         "feature 'wordClass' matches no registered data category"),
        ("UNKNOWN_TAG", "error", "spanGrp[3]", "analysis reference 'nowhere' has no target"),
        ("DOMAIN_VIOLATION", "error", "sp1",
         "value 'neuter' of 'grammaticalGender' is outside the 'fr' restriction"),
    ]
