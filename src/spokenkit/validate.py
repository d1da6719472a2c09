"""Document-wide consistency checking.

Checks never mutate their input and never refuse to run on defective
documents: the point is to load what is there and report on it. Each
finding is a :class:`~spokenkit.core.model.Finding` with a stable code, a
severity, and a location that names a real element or input line.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import compress, count, islice, repeat
from operator import gt, is_not, itemgetter

from spokenkit.core.model import (
    ERROR,
    WARNING,
    ComponentRefs,
    Document,
    EventInterval,
    Finding,
    Timeline,
    ValueTuple,
    WordForm,
    check_level_coherence,
    value_eq,
    value_ne,
)
from spokenkit.datacat import COMPLEX, LANGUAGE_RESTRICTED, OK, Registry
from spokenkit.featstruct import FeatureStructure, TagsetLibrary, flatten, strip_ref
from spokenkit.tei.model import (
    AnchorRef,
    FeatureLib,
    Pc,
    Seg,
    TagLib,
    TimedEvent,
    Utterance,
    W,
)
from spokenkit.tei.parser import analysis_targets, own_library
from spokenkit.tei.spans import document_spans

DUP_ID = "DUP_ID"
BAD_ID = "BAD_ID"
DANGLING_REF = "DANGLING_REF"
ANCHOR_ORDER = "ANCHOR_ORDER"
OFFSET_ORDER = "OFFSET_ORDER"
SPAN_ORDER = "SPAN_ORDER"
UNKNOWN_TAG = "UNKNOWN_TAG"
DOMAIN_VIOLATION = "DOMAIN_VIOLATION"
LEVEL_INCOHERENT = "LEVEL_INCOHERENT"
UNKNOWN_CATEGORY = "UNKNOWN_CATEGORY"
TAGSET_ERROR = "TAGSET_ERROR"

# Anchor disorder and offset contradictions may be intentional retrospective
# alignment, so they default to warnings; identifier and reference breakage
# does not.
DEFAULT_SEVERITY = {
    DUP_ID: ERROR,
    DANGLING_REF: ERROR,
    SPAN_ORDER: ERROR,
    UNKNOWN_TAG: ERROR,
    DOMAIN_VIOLATION: ERROR,
    LEVEL_INCOHERENT: ERROR,
    TAGSET_ERROR: ERROR,
    BAD_ID: WARNING,
    OFFSET_ORDER: WARNING,
    ANCHOR_ORDER: WARNING,
    UNKNOWN_CATEGORY: WARNING,
}

_SEVERITY_RANK = {ERROR: 0, WARNING: 1}


def _finding(code: str, location: str, message: str) -> Finding:
    return Finding(code, DEFAULT_SEVERITY[code], location, message)


class ValidationReport(ValueTuple):
    issues: tuple[Finding, ...]

    __eq__ = value_eq
    __ne__ = value_ne
    __hash__ = tuple.__hash__

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(i for i in self.issues if i.severity == ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(i for i in self.issues if i.severity == WARNING)

    @property
    def has_errors(self) -> bool:
        return any(i.severity == ERROR for i in self.issues)

    def to_text(self) -> str:
        lines = [f"{i.severity} {i.code} {i.location}: {i.message}" for i in self.issues]
        lines.append(f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)")
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        return "".join(
            f"{i.severity}\t{i.code}\t{i.location}\t{i.message}\n" for i in self.issues
        )


class ValidateOptions:
    """What ``validate_all`` checks against, besides the document itself."""

    __slots__ = ("library", "registry", "language", "severity_overrides")

    def __init__(
        self,
        library: TagsetLibrary | None = None,
        registry: Registry | None = None,
        language: str | None = None,
        severity_overrides: dict[str, str] | None = None,
    ) -> None:
        self.library = library
        self.registry = registry
        self.language = language
        self.severity_overrides = {} if severity_overrides is None else severity_overrides


def _declared_ids(doc: Document) -> Sequence[tuple[str, str]]:
    """(raw id, element name) of each identifier the document declares."""
    if doc.declared_ids:
        return doc.declared_ids
    # Constructed documents: collect identifiers from the model itself.
    ids: list[tuple[str, str]] = []
    for tl in doc.timelines:
        ids.extend((pid, "when") for pid in tl.ids if pid not in tl.synthetic)
    if doc.metadata is not None:
        ids.extend((p.id, "person") for p in doc.metadata.participants)
    ids.extend((a.id, "annotation") for a in doc.annotations)
    return ids


# ``\s`` matches exactly the characters ``str.isspace`` accepts.
_SPACE = re.compile(r"\s")


def check_ids(doc: Document) -> list[Finding]:
    """Duplicate identifiers and identifiers that cannot be identifiers."""
    declared = _declared_ids(doc)
    counts = Counter(map(itemgetter(0), declared))
    issues: list[Finding] = []
    if "" in counts:
        del counts[""]
        issues = [
            _finding(BAD_ID, kind, f"identifier on {kind!r} is empty")
            for raw, kind in declared
            if not raw
        ]
    # One search over all identifiers tells whether any holds '#' or white
    # space; NUL, which joins them, is neither.
    joined = "\0".join(counts)
    malformed = "#" in joined or _SPACE.search(joined) is not None
    for raw, count in counts.items():
        if count > 1:
            issues.append(
                _finding(DUP_ID, raw, f"identifier {raw!r} is declared {count} times")
            )
        if not malformed:
            continue
        if "#" in raw:
            issues.append(_finding(BAD_ID, raw, f"identifier {raw!r} contains '#'"))
        elif raw.split() != [raw]:
            # ``str.split`` splits at exactly the characters ``str.isspace`` accepts.
            issues.append(_finding(BAD_ID, raw, f"identifier {raw!r} contains whitespace"))
    return issues


def _known_ids(doc: Document, token_ids: Iterable[str]) -> set[str]:
    raws = [raw for raw, _ in doc.declared_ids]
    known = set(map(strip_ref, raws))
    known.update(raws)
    for tl in doc.timelines:
        known.add(tl.id)
        known.update(tl.ids)
    for s in doc.sources:
        known.add(s.id)
    for layer in doc.layers:
        known.add(layer.id)
    for level in doc.levels:
        known.add(level.id)
    known.update(a.id for a in doc.annotations)
    if doc.metadata is not None:
        known.update(p.id for p in doc.metadata.participants)
    known.update(token_ids)
    for entry in doc.lexical_entries:
        known.update(f.id for f in entry.forms if f.id)
    return known


def check_refs(doc: Document, lib: TagsetLibrary | None = None) -> list[Finding]:
    """Closure of every cross-reference the document can carry.

    Analysis references resolve as in :func:`analysis_targets`, through
    ``lib`` when given.
    """
    return [i for i in _check_document(doc, lib, None, None) if i.code == DANGLING_REF]


def check_temporal(doc: Document) -> list[Finding]:
    """Anchor order within utterances and offset consistency on timelines."""
    issues = _check_document(doc, None, None, None)
    return [i for i in issues if i.code in (ANCHOR_ORDER, OFFSET_ORDER)]


def check_span_order(doc: Document) -> list[Finding]:
    """Spans whose from/to run against document order."""
    return [i for i in _check_document(doc, None, None, None) if i.code == SPAN_ORDER]


def check_tagset(
    doc: Document,
    lib: TagsetLibrary | None = None,
    registry: Registry | None = None,
    language: str | None = None,
) -> list[Finding]:
    """Resolution of analysis references, and domain conformance if a registry is given."""
    codes = (TAGSET_ERROR, UNKNOWN_TAG, DOMAIN_VIOLATION, UNKNOWN_CATEGORY)
    return [i for i in _check_document(doc, lib, registry, language) if i.code in codes]


def _library(doc: Document, lib: TagsetLibrary | None) -> tuple[TagsetLibrary, list[Finding]]:
    """``lib``, or else the document's own library, empty when it is
    inconsistent, with the finding that says so."""
    if lib is not None:
        return lib, []
    lib, error = own_library(doc)
    return lib, [] if error is None else [_finding(TAGSET_ERROR, "back", str(error))]


def _check_document(
    doc: Document, lib: TagsetLibrary | None, registry: Registry | None, language: str | None
) -> list[Finding]:
    """The findings of every check but identifiers and level coherence.

    One walk over the body visits each content item once: it checks the
    item's references, tracks the order of an utterance's anchors, records
    each identified token's position (a repeated id keeps its last) and
    checks analysis references. Spans, back matter, ``appInfo``,
    annotations, layers and offsets are checked after it. Findings of one
    code come in document order.
    """
    lib, issues = _library(doc, lib)
    targets = analysis_targets(doc, lib)
    # Each point's position on the first timeline, in document order, that declares it;
    # ``update`` merges a plain dict, the copy, with no lookup per point.
    point_index: dict[str, int] = {}
    for tl in reversed(doc.timelines):
        point_index.update(tl.positions.copy())
    participants = (
        {p.id for p in doc.metadata.participants} if doc.metadata is not None else set()
    )
    token_pos: dict[str, int] = {}
    tokens = 0  # identified tokens so far, repeated ids included
    # Each distinct analysis reference is checked against the registry once;
    # its problems recur at every location that bears it.
    domain_problems: dict[str, list[tuple[str, str]]] = {}

    def dangle(attr: str, ref: str, location: str) -> None:
        issues.append(
            _finding(DANGLING_REF, location, f"@{attr} reference {ref!r} resolves to nothing")
        )

    def check_who(who: str | None, location: str) -> None:
        if who is not None and who not in participants:
            dangle("who", who, location)

    def check_ana(ref: str, location: str) -> None:
        target = targets.get(ref)
        if target is None:
            dangle("ana", ref, location)
            issues.append(
                _finding(UNKNOWN_TAG, location, f"analysis reference {ref!r} has no target")
            )
        elif registry is not None and isinstance(target, FeatureStructure):
            problems = domain_problems.get(ref)
            if problems is None:
                problems = domain_problems[ref] = _domain_check(target, registry, language)
            for code, message in problems:
                issues.append(_finding(code, location, message))

    for item in doc.body:
        # Where findings on the item and its id-less content are reported.
        location = getattr(item, "id", None) or "body"
        if isinstance(item, Utterance):
            utterance = item
            check_who(item.who, location)
            pending = [iter(item.content)]
        else:
            utterance = None
            pending = [iter((item,))]
        last = -1  # the timeline position of the utterance's last anchor
        disordered = False
        # Nested content is walked in document order, one iterator per open container.
        while pending:
            for inner in pending[-1]:
                if isinstance(inner, str):
                    continue
                if isinstance(inner, W):
                    if inner.id:
                        token_pos[inner.id] = tokens
                        tokens += 1
                    if inner.ana is not None:
                        check_ana(inner.ana, inner.id or location)
                elif isinstance(inner, Pc):
                    if inner.ana is not None:
                        check_ana(inner.ana, inner.id or location)
                elif isinstance(inner, (Seg, Utterance)):
                    pending.append(iter(inner.content))
                    break
                elif isinstance(inner, AnchorRef):
                    if inner.synch is not None and inner.synch not in point_index:
                        dangle("synch", inner.synch, location)
                    n = point_index.get(inner.point)
                    if n is not None:
                        if n < last:
                            disordered = True
                        last = n
                elif isinstance(inner, TimedEvent):
                    # An inline event's generated id is never written; its body item is.
                    where = location if inner.id_generated else inner.id or location
                    check_who(inner.who, where)
                    for attr, ref in (("start", inner.start), ("end", inner.end)):
                        if ref is not None and ref not in point_index:
                            dangle(attr, ref, where)
            else:
                pending.pop()
        if disordered and utterance is not None:
            issues.append(
                _finding(
                    ANCHOR_ORDER,
                    location,
                    f"anchors of utterance {utterance.id!r} decrease in timeline order",
                )
            )

    for group, n in document_spans(doc):
        for span in group.spans:
            location = span.id or f"spanGrp[{n}]"
            for attr, ref in (("from", span.from_), ("to", span.to)):
                if ref not in token_pos:
                    dangle(attr, ref, location)
            lo, hi = token_pos.get(span.from_), token_pos.get(span.to)
            if lo is not None and hi is not None and lo > hi:
                issues.append(
                    _finding(
                        SPAN_ORDER,
                        location,
                        f"span runs from {span.from_!r} to {span.to!r} against document order",
                    )
                )
            if span.ana is not None:
                check_ana(span.ana, location)

    feature_ids = {
        f.id
        for item in doc.back
        if isinstance(item, FeatureLib)
        for f in item.features
        if f.id
    }
    for item in doc.back:
        if isinstance(item, TagLib):
            for tag in item.tags:
                for ref in tag.feats:
                    if ref not in feature_ids:
                        dangle("feats", ref, tag.id)

    known: set[str] | None = None  # built when a reference may name any identifier

    def is_known(target: str) -> bool:
        nonlocal known
        if known is None:
            known = _known_ids(doc, token_pos)
        return target in known

    if doc.metadata is not None:
        for app in doc.metadata.applications:
            for target in app.targets:
                if not is_known(target):
                    dangle("target", target, app.ident or "appInfo")

    source_ids = {s.id for s in doc.sources}
    layer_ids = {l.id for l in doc.layers}
    # A point of an interval may lie on any timeline with the interval's id.
    timelines: dict[str, list[Timeline]] = {}
    for tl in doc.timelines:
        timelines.setdefault(tl.id, []).append(tl)
    for ann in doc.annotations:
        if ann.source not in source_ids:
            dangle("source", ann.source, ann.id)
        if ann.layer not in layer_ids:
            dangle("layer", ann.layer, ann.id)
        if isinstance(ann.range, EventInterval):
            named = timelines.get(ann.range.timeline)
            if named is None:
                dangle("timeline", ann.range.timeline, ann.id)
            else:
                for ref in (ann.range.start, ann.range.end):
                    if not any(ref in tl for tl in named):
                        dangle("point", ref, ann.id)
        elif isinstance(ann.range, ComponentRefs):
            # A word form's targets are its tokens; other targets may be any identifier.
            if isinstance(ann, WordForm):
                for target in ann.range.targets:
                    if target not in token_pos:
                        dangle("tokens", target, ann.id)
            else:
                for target in ann.range.targets:
                    if not is_known(target):
                        dangle("target", target, ann.id)
    for layer in doc.layers:
        if not any(level.id == layer.level for level in doc.levels):
            dangle("level", layer.level, layer.id)

    for tl in doc.timelines:
        given = [*map(is_not, tl.offsets, repeat(None))]
        ids = [*compress(tl.ids, given)]
        offsets = [*compress(tl.offsets, given)]
        for n in compress(count(), map(gt, offsets, islice(offsets, 1, None))):
            later = ids[n + 1]
            message = (
                f"offset of {later!r} ({offsets[n + 1]}) is smaller than "
                f"offset of earlier point {ids[n]!r} ({offsets[n]})"
            )
            issues.append(_finding(OFFSET_ORDER, later, message))
    return issues


def _domain_check(fs, registry: Registry, language: str | None) -> list[tuple[str, str]]:
    """(code, message) of each domain problem of one feature structure."""
    problems: list[tuple[str, str]] = []
    for path, atom in flatten(fs):
        if isinstance(atom, (bool, int, float)):
            continue
        feature_name = path.rsplit("/", 1)[-1]
        feature_cat = registry.by_name(feature_name)
        if feature_cat is None:
            problems.append(
                (UNKNOWN_CATEGORY, f"feature {feature_name!r} matches no registered data category")
            )
            continue
        value_cat = registry.by_name(str(atom))
        if value_cat is None:
            problems.append((UNKNOWN_CATEGORY, f"value {atom!r} matches no registered data category"))
            continue
        if feature_cat.kind != COMPLEX:
            problems.append(
                (
                    UNKNOWN_CATEGORY,
                    f"feature {feature_name!r} maps to a simple category and takes no values",
                )
            )
            continue
        verdict = registry.validate_value(feature_cat.pid, value_cat.pid, language)
        if verdict != OK:
            detail = (
                f"value {atom!r} of {feature_name!r} is outside the "
                f"{language!r} restriction"
                if verdict == LANGUAGE_RESTRICTED
                else f"value {atom!r} is outside the domain of {feature_name!r}"
            )
            problems.append((DOMAIN_VIOLATION, detail))
    return problems


def validate_all(doc: Document, options: ValidateOptions | None = None) -> ValidationReport:
    """Run every check; a pure function of its input, so reports are stable.

    Findings are ordered by severity, code, location, then message; exact
    duplicates are reported once.
    """
    opts = options or ValidateOptions()
    issues = check_ids(doc)
    issues.extend(_check_document(doc, opts.library, opts.registry, opts.language))
    for level in doc.levels:
        for violation in check_level_coherence(doc, level.id):
            issues.append(_finding(LEVEL_INCOHERENT, violation.location, violation.message))

    if opts.severity_overrides:
        issues = [
            i._replace(severity=opts.severity_overrides.get(i.code, i.severity)) for i in issues
        ]
    ordered = sorted(
        set(issues),
        key=lambda i: (_SEVERITY_RANK.get(i.severity, 2), i.code, i.location, i.message),
    )
    return ValidationReport(tuple(ordered))
