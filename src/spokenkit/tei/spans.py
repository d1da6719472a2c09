"""Span-based word-form extraction and segment statistics.

Tokens (``w`` elements) form the surface level; spans over token runs form
the word-form level. The two relate n-to-n: one word form covers one or more
tokens, and one token may belong to any number of word forms.
"""

from __future__ import annotations

from spokenkit.core.model import (
    MECH_COMPONENT,
    WARNING,
    ComponentRefs,
    Document,
    Finding,
    Layer,
    Level,
    Qualifier,
    WordForm,
)
from spokenkit.featstruct import flatten
from spokenkit.tei.model import InflectedForm, Seg, SpanGroup, W, content_items
from spokenkit.tei.parser import DEFAULT_SOURCE, analysis_targets

WORDFORM_LAYER = "wordForms"


def document_tokens(doc: Document) -> list[W]:
    """All identified tokens of the document, in document order."""
    return [w for w in content_items(doc.body, W) if w.id]


def document_spans(doc: Document) -> list[tuple[SpanGroup, int]]:
    groups: list[tuple[SpanGroup, int]] = []
    for n, item in enumerate(list(doc.body) + list(doc.back)):
        if isinstance(item, SpanGroup):
            groups.append((item, n))
    return groups


def extract_spans(doc: Document) -> tuple[list[WordForm], list[Finding]]:
    """Turn span descriptions into word-form annotations.

    Each span covers the contiguous token run from its ``from`` token to its
    ``to`` token in document order. The analysis reference resolves as in
    :func:`analysis_targets`: a lexical entry's inflected form contributes
    its orthography and grammatical features, a feature structure its
    flattened feature paths.
    Out-of-order spans and dangling references are findings, not errors.
    """
    findings: list[Finding] = []
    tokens = document_tokens(doc)
    token_pos = {tok.id: n for n, tok in enumerate(tokens)}
    targets = analysis_targets(doc)

    word_forms: list[WordForm] = []
    counter = 0
    for group, _ in document_spans(doc):
        for span in group.spans:
            location = span.id or f"span over {span.from_}..{span.to}"
            missing = [ref for ref in (span.from_, span.to) if ref not in token_pos]
            if missing:
                message = f"span references unknown token {missing[0]!r}"
                findings.append(Finding("DANGLING_REF", WARNING, location, message))
                continue
            lo = token_pos[span.from_]
            hi = token_pos[span.to]
            if lo > hi:
                message = f"span runs from {span.from_!r} to {span.to!r} against document order"
                findings.append(Finding("SPAN_ORDER", WARNING, location, message))
                continue
            run = tokens[lo : hi + 1]
            counter += 1
            qualifiers: list[Qualifier] = []
            lex_ref = None
            orth = None
            if span.ana is not None:
                target = targets.get(span.ana)
                if isinstance(target, InflectedForm):
                    lex_ref = target.id
                    orth = target.orth
                    qualifiers.extend(Qualifier(name, value) for name, value in target.grammar)
                elif target is not None:
                    qualifiers.extend(Qualifier(path, str(atom)) for path, atom in flatten(target))
                else:
                    message = f"span analysis {span.ana!r} resolves to nothing"
                    findings.append(Finding("DANGLING_REF", WARNING, location, message))
            if not qualifiers:
                qualifiers.append(Qualifier("wordForm", orth or "".join(t.text for t in run)))
            word_forms.append(
                WordForm(
                    id=span.id or f"wf{counter}",
                    source=DEFAULT_SOURCE,
                    range=ComponentRefs(tuple(t.id for t in run)),
                    qualifiers=tuple(qualifiers),
                    layer=WORDFORM_LAYER,
                    lex_ref=lex_ref,
                    orth=orth,
                )
            )
    return word_forms, findings


def attach_word_forms(doc: Document) -> tuple[Document, list[Finding]]:
    """Extract word forms and return a document carrying them as annotations.

    Declares the word-form layer and its component-ranged level alongside.
    """
    word_forms, findings = extract_spans(doc)
    if not word_forms:
        return doc, findings
    features = {q.feature_key() for wf in word_forms for q in wf.qualifiers}
    layers = doc.layers + (Layer(WORDFORM_LAYER, "word forms", WORDFORM_LAYER + "Level"),)
    levels = doc.levels + (
        Level(
            WORDFORM_LAYER + "Level",
            sources=frozenset({DEFAULT_SOURCE}),
            ranging_mechanism=MECH_COMPONENT,
            category_selection=frozenset(features),
        ),
    )
    return (
        doc._replace(annotations=doc.annotations + tuple(word_forms), layers=layers, levels=levels),
        findings,
    )


def seg_stats(doc: Document) -> dict[str, int]:
    """Counts of ``seg`` elements by type, nested segments included."""
    counts: dict[str, int] = {}
    for seg in content_items(doc.body, Seg):
        key = seg.type or ""
        counts[key] = counts.get(key, 0) + 1
    return counts
