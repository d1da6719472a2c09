"""Timing spans around the calls each CLI command makes into the layers.

``replay`` repeats the call sequence of ``spokenkit.cli.cmd_validate``,
``cmd_convert`` and ``cmd_overlaps`` for the flags the workloads use (no
``--tagset``, ``--jobs`` or ``-o``): the
same public functions, in the same order, with the same arguments, each
inside a span. Its output must equal the CLI's own output for the same
argv; the traced run checks that for every operation. ``check_breakdown``
times the checks ``validate_all`` runs, one span each, under a root span of
its own so that it does not add to the command spans.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from spokenkit import cli, tier as tier_format
from spokenkit.core import check_level_coherence, overlaps_report, sequence_implicit
from spokenkit.datacat import RegistryFormatError, load_registry
from spokenkit.featstruct import TagsetError, TagsetLibrary, UnknownTagError
from spokenkit.tei import (
    ConventionRuleError,
    TeiParseError,
    TeiSerializeError,
    build_document_library,
    load_convention_rules,
    parse_document,
    promote_document,
    resolve_anchors,
    serialize_document,
)
from spokenkit.validate import (
    ValidateOptions,
    check_ids,
    check_refs,
    check_span_order,
    check_tagset,
    check_temporal,
    validate_all,
)

NAME, REQUEST, PARENT, START, END, COUNTS = range(6)


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise cli.CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


class Tracer:
    """Spans kept in memory as [name, request, parent, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.request, self._stack[-1] if self._stack else None,
                  perf_counter(), None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record[COUNTS]
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own


def replay(tracer: Tracer, command: str, argv: list[str], out, err) -> tuple[int, list]:
    """Run one CLI invocation as ``cli.main`` would, with a span per layer call.

    Returns the exit code and, for validate, the resolved documents with
    their options, so that ``check_breakdown`` can time the checks on them.
    """
    validated: list = []
    with tracer.span(f"cli.{command}"):
        args = cli.build_parser().parse_args(argv)
        try:
            if args.command == "validate":
                return _validate(tracer, args, out, err, validated), validated
            if args.command == "convert":
                return _convert(tracer, args, out, err), validated
            return _overlaps(tracer, args, out, err), validated
        except (
            cli.CliError,
            TeiParseError,
            TeiSerializeError,
            TagsetError,
            UnknownTagError,
            tier_format.TierParseError,
            RegistryFormatError,
        ) as exc:
            print(f"spokenkit: {exc}", file=err)
            return cli.EXIT_USAGE, validated


def _validate(tracer: Tracer, args, out, err, validated: list) -> int:
    config = cli.load_config(_read(args.config)) if args.config else cli.Config()
    registry = None
    if args.registry:
        data = _read(args.registry)
        try:
            with tracer.span("datacat.load_registry") as counts:
                registry = load_registry(data)
                counts["categories"] = len(registry)
        except RegistryFormatError as exc:
            raise cli.CliError(f"bad registry {args.registry}: {exc}") from exc
    options = ValidateOptions(
        library=None,
        registry=registry,
        language=args.lang,
        severity_overrides=config.severity_overrides,
    )
    results = []
    for path in args.paths:
        try:
            data = _read(path)
            doc, _ = _parse(tracer, data)
            with tracer.span("tei.resolve_anchors"):
                doc, _ = resolve_anchors(doc)
            with tracer.span("validate.validate_all") as counts:
                report = validate_all(doc, options)
                counts["issues"] = len(report.issues)
                for issue in report.issues:
                    key = "issues." + issue.code
                    counts[key] = counts.get(key, 0) + 1
            validated.append((doc, options))
            results.append((path, report, None))
        except (cli.CliError, TeiParseError) as exc:
            results.append((path, None, str(exc)))

    failed = False
    has_errors = False
    multi = len(args.paths) > 1
    for path, report, error in results:
        if error is not None:
            print(f"{path}: {error}", file=err)
            failed = True
            continue
        if multi:
            out.write(f"== {path} ==\n")
        out.write(report.to_tsv() if args.format == "tsv" else report.to_text())
        has_errors = has_errors or report.has_errors
    if failed:
        return cli.EXIT_USAGE
    return cli.EXIT_ISSUES if has_errors else cli.EXIT_OK


def _parse(tracer: Tracer, data: bytes):
    with tracer.span("tei.parse_document") as counts:
        doc, warnings = parse_document(data)
        counts["bytes"] = len(data)
        counts["annotations"] = len(doc.annotations)
    return doc, warnings


def _sequence(tracer: Tracer, doc):
    with tracer.span("core.sequence_implicit") as counts:
        before = sum(len(tl.points) for tl in doc.timelines)
        doc = sequence_implicit(doc)
        counts["points_added"] = sum(len(tl.points) for tl in doc.timelines) - before
    return doc


def _serialize(tracer: Tracer, doc, materialize: bool) -> bytes:
    with tracer.span("tei.serialize_document") as counts:
        output = serialize_document(doc, materialize_timeline=materialize)
        counts["bytes"] = len(output)
    return output


def _convert(tracer: Tracer, args, out, err) -> int:
    config = cli.load_config(_read(args.config)) if args.config else cli.Config()
    rules = None
    if args.conventions:
        data = _read(args.conventions)
        try:
            with tracer.span("tei.load_convention_rules"):
                rules = load_convention_rules(data)
        except ConventionRuleError as exc:
            raise cli.CliError(f"bad convention rules {args.conventions}: {exc}") from exc
    data = _read(args.path)

    if args.from_format == "tei":
        doc, warnings = _parse(tracer, data)
        for warning in warnings:
            print(f"warning: {warning}", file=err)
        if rules is not None:
            with tracer.span("tei.promote_document"):
                doc, findings = promote_document(doc, rules)
            for finding in findings:
                print(f"warning: {finding}", file=err)
        if args.to_format == "tei":
            output = _serialize(tracer, doc, args.materialize_timeline)
        else:
            with tracer.span("tei.resolve_anchors"):
                doc, findings = resolve_anchors(doc)
            for finding in findings:
                print(f"warning: {finding.message}", file=err)
            doc = _sequence(tracer, doc)
            with tracer.span("tier.from_core") as counts:
                td, residue = tier_format.from_core(doc)
                counts["residue"] = len(residue)
                counts["annotations"] = len(doc.annotations)
            for item in residue:
                print(f"residue: {item.annotation}: {item.reason}", file=err)
            with tracer.span("tier.serialize_tier"):
                output = tier_format.serialize_tier(td).encode("utf-8")
    else:
        with tracer.span("tier.parse_tier"):
            td = tier_format.parse_tier(data)
        if args.to_format == "tier":
            with tracer.span("tier.serialize_tier"):
                output = tier_format.serialize_tier(td).encode("utf-8")
        else:
            with tracer.span("tier.to_core"):
                doc = tier_format.to_core(td, config.category_map or None)
            output = _serialize(tracer, doc, args.materialize_timeline)

    out.write(output.decode("utf-8"))
    return cli.EXIT_OK


def _overlaps(tracer: Tracer, args, out, err) -> int:
    doc, _ = _parse(tracer, _read(args.path))
    with tracer.span("tei.resolve_anchors"):
        doc, findings = resolve_anchors(doc)
    for finding in findings:
        print(f"warning: {finding.message}", file=err)
    doc = _sequence(tracer, doc)
    with tracer.span("core.overlaps_report") as counts:
        report = overlaps_report(doc)
        counts["pairs"] = len(report.pairs)
        counts["annotations"] = len(doc.annotations)
    for pair in report.pairs:
        out.write(f"{pair.a}\t{pair.b}\t{pair.shared.start}\t{pair.shared.end}\n")
    if report.skipped:
        print(f"{report.skipped} annotation(s) without a resolvable interval", file=err)
    return cli.EXIT_OK


def check_breakdown(tracer: Tracer, doc, options: ValidateOptions) -> None:
    """Time the checks of ``validate_all`` one by one, under a root span of their own.

    The tagset check runs when the document declares a tagset or a library
    was given, which is when ``validate_all`` runs it for every document of
    the workloads; its library is built in a span of its own.
    """
    with tracer.span("validate.checks"):
        with tracer.span("validate.check_ids"):
            check_ids(doc)
        with tracer.span("validate.check_refs"):
            check_refs(doc)
        with tracer.span("validate.check_temporal"):
            check_temporal(doc)
        with tracer.span("validate.check_span_order"):
            check_span_order(doc)
        if doc.tagset_declarations or options.library is not None:
            library = options.library
            if library is None:
                with tracer.span("featstruct.build_library") as counts:
                    try:
                        library = build_document_library(doc)
                    except TagsetError:
                        library = TagsetLibrary({}, {})
                    counts["tags"] = len(library.tag_lib)
            with tracer.span("validate.check_tagset"):
                check_tagset(doc, library, options.registry, options.language)
        for level in doc.levels:
            with tracer.span("core.check_level_coherence"):
                check_level_coherence(doc, level.id)


def size_classes(sizes: list[int], lo: int, hi: int, classes: int = 4) -> list[int]:
    """The class of each size: equal slices of the log size range."""
    span = math.log(hi / lo)
    return [min(classes - 1, max(0, int(classes * math.log(n / lo) / span))) for n in sizes]
