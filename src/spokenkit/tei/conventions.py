"""Promotion of inline transcription conventions to markup.

Transcribers often keep non-verbal events in plain text, e.g. ``((cough))``.
A convention rule rewrites such text into the corresponding element while
leaving the surrounding text byte-exact. The double-parenthesis rule ships
built in; further rules load from a plain-text rule file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from spokenkit.core.model import (
    WARNING,
    Document,
    Finding,
    Qualifier,
    decode_utf8,
)
from spokenkit.tei.model import EVENT_CLASSES, TextSegment, Utterance, Vocal, annotated_items


@dataclass(frozen=True)
class ConventionRule:
    pattern: re.Pattern
    element: str  # 'vocal' | 'kinesic' | 'incident'
    desc_group: int | str = 1


BUILTIN_RULES = (ConventionRule(re.compile(r"\(\((.+?)\)\)"), "vocal"),)

# The class of each element a rule can produce.
_ELEMENT_CLASSES = {"vocal": Vocal, **EVENT_CLASSES}


class ConventionRuleError(ValueError):
    pass


def load_convention_rules(data: str | bytes) -> tuple[ConventionRule, ...]:
    """Read rules from ``pattern<TAB>element<TAB>descGroup`` lines.

    ``descGroup`` is a group number (0 for the whole match) or a group name
    of the pattern; any other group is refused. A match gives its group as
    the element's description, or "" when the group took no part in it, and
    an empty match promotes nothing.
    """
    data = decode_utf8(data, lambda n, message: ConventionRuleError(f"line {n}: {message}"))
    rules: list[ConventionRule] = []
    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ConventionRuleError(f"line {line_no}: expected 3 tab-separated fields")
        pattern, element, group = fields
        if element not in _ELEMENT_CLASSES:
            raise ConventionRuleError(f"line {line_no}: unknown element {element!r}")
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise ConventionRuleError(f"line {line_no}: bad pattern: {exc}") from exc
        desc_group = int(group) if group.isdecimal() else group
        if desc_group not in compiled.groupindex and desc_group not in range(compiled.groups + 1):
            raise ConventionRuleError(f"line {line_no}: pattern has no group {group!r}")
        rules.append(ConventionRule(compiled, element, desc_group))
    return tuple(rules)


def promote_conventions(
    utt: Utterance, rules: tuple[ConventionRule, ...] | None = None
) -> tuple[Utterance, list[Finding]]:
    """Rewrite convention markers in an utterance's text segments.

    Matches are applied left to right; everything around them is preserved
    byte-exactly, so the operation is idempotent. A segment with a stray
    ``((`` is left untouched and reported as a finding. An utterance that no
    rule changed is returned as it is.
    """
    if rules is None:
        rules = BUILTIN_RULES
    findings: list[Finding] = []
    new_content: list | None = None  # built from the first changed segment on
    for n, item in enumerate(utt.content):
        promoted = None
        if isinstance(item, TextSegment):
            pieces = _apply_rules(item.text, rules)
            if any(isinstance(p, str) and "((" in p for p in pieces):
                message = f"unbalanced '((' in utterance {utt.id!r}; text left as is"
                findings.append(Finding("UNBALANCED_MARKER", WARNING, utt.id, message))
            elif len(pieces) > 1:  # a rule matched
                promoted = [TextSegment(p) if isinstance(p, str) else p for p in pieces if p != ""]
        if promoted is not None:
            if new_content is None:
                new_content = list(utt.content[:n])
            new_content.extend(promoted)
        elif new_content is not None:
            new_content.append(item)
    if new_content is None:
        return utt, findings
    return replace(utt, content=tuple(new_content)), findings


def _apply_rules(text: str, rules: tuple[ConventionRule, ...]) -> list:
    pieces: list = [text]
    for rule in rules:
        next_pieces: list = []
        for piece in pieces:
            if not isinstance(piece, str):
                next_pieces.append(piece)
                continue
            cursor = 0
            for match in rule.pattern.finditer(piece):
                start, end = match.span()
                if start == end:  # would insert an empty element, again on every run
                    continue
                next_pieces.append(piece[cursor:start])
                desc = match.group(rule.desc_group) or ""  # None: the group took no part
                next_pieces.append(_ELEMENT_CLASSES[rule.element](desc=desc))
                cursor = end
            next_pieces.append(piece[cursor:])
        pieces = next_pieces
    return pieces


def promote_document(
    doc: Document, rules: tuple[ConventionRule, ...] | None = None
) -> tuple[Document, list[Finding]]:
    """Apply convention promotion to every utterance of a document.

    Only the utterances that a rule changed are rebuilt, and only their
    annotations, paired as ``annotated_items`` pairs them, get their text
    re-derived.
    """
    findings: list[Finding] = []
    body: list | None = None
    changed: list[int] = []
    for n, item in enumerate(doc.body):
        if not isinstance(item, Utterance):
            continue
        new_item, item_findings = promote_conventions(item, rules)
        findings.extend(item_findings)
        if new_item is not item:
            if body is None:
                body = list(doc.body)
            body[n] = new_item
            changed.append(n)
    if body is None:
        return doc, findings
    owners = annotated_items(doc.body, doc.annotations)
    annotations = list(doc.annotations)
    for n in changed:
        owner = owners.get(n)
        if owner is None:
            continue
        ann = annotations[owner]
        if ann.qualifiers and ann.qualifiers[0].feature == "utterance":
            text = body[n].plain_text()
            annotations[owner] = replace(ann, qualifiers=(Qualifier("utterance", text),))
    return replace(doc, body=tuple(body), annotations=tuple(annotations)), findings
