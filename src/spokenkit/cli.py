"""Command-line interface: validate, convert, overlaps and tagset tooling.

Exit codes: 0 = success (warnings allowed), 1 = validation errors present,
2 = usage or I/O failure, or input that raises a ``SpokenkitError``. All commands are deterministic: identical inputs
and flags produce identical output bytes. Configuration is explicit via
flags and a plain-text config file; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from spokenkit import tier as tier_format
from spokenkit.core.model import Document, Finding, SpokenkitError, decode_utf8
from spokenkit.core.temporal import overlaps_report, sequence_implicit
from spokenkit.datacat import load_registry
from spokenkit.featstruct import FeatureStructure, TagsetLibrary, flatten, strip_ref
from spokenkit.tei import (
    build_document_library,
    load_convention_rules,
    parse_document,
    promote_document,
    resolve_anchors,
    serialize_document,
)
from spokenkit.validate import DEFAULT_SEVERITY, ValidateOptions, validate_all

EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_USAGE = 2


class Config:
    """The settings of a ``--config`` file."""

    __slots__ = ("severity_overrides", "category_map")

    def __init__(
        self,
        severity_overrides: dict[str, str] | None = None,
        category_map: dict[str, str] | None = None,
    ) -> None:
        self.severity_overrides = {} if severity_overrides is None else severity_overrides
        self.category_map = {} if category_map is None else category_map


class CliError(SpokenkitError):
    pass


def load_config(data: str | bytes) -> Config:
    """Read the plain-text config: severity and category lines."""
    data = decode_utf8(data, lambda n, message: CliError(f"config line {n}: {message}"))
    config = Config()
    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "severity" and len(fields) == 3:
            code, severity = fields[1], fields[2]
            if code not in DEFAULT_SEVERITY:
                raise CliError(f"config line {line_no}: validate reports no code {code!r}")
            if severity not in ("error", "warning"):
                raise CliError(f"config line {line_no}: severity must be error or warning")
            config.severity_overrides[code] = severity
        elif kind == "category" and len(fields) == 3:
            config.category_map[fields[1]] = fields[2]
        else:
            raise CliError(f"config line {line_no}: unrecognised entry {kind!r}")
    return config


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load(kind: str, path: str, load):
    """``load`` applied to the bytes of ``path``; an error in them is reported
    as ``bad <kind> <path>: ...``, one in reading them as it is."""
    data = _read(path)
    try:
        return load(data)
    except SpokenkitError as exc:
        raise CliError(f"bad {kind} {path}: {exc}") from exc


def _warn(findings: list[Finding]) -> None:
    for finding in findings:
        print(f"warning: {finding}", file=sys.stderr)


def _parse(data: bytes) -> Document:
    """The TEI document in ``data``, once the reader's warnings are printed."""
    doc, warnings = parse_document(data)
    _warn(warnings)
    return doc


def _timed(doc: Document) -> Document:
    """``doc`` resolved, with what did not resolve printed, and sequenced."""
    doc, findings = resolve_anchors(doc)
    _warn(findings)
    return sequence_implicit(doc)


def _library(data: bytes) -> TagsetLibrary:
    return build_document_library(_parse(data))


def _out(stream, data: bytes | str) -> None:
    """Write UTF-8 whatever the stream's encoding: bytes go to its buffer,
    after what was written as text; a stream without one takes text."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(data.decode("utf-8") if isinstance(data, bytes) else data)
        return
    stream.flush()
    buffer.write(data if isinstance(data, bytes) else data.encode("utf-8"))


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    config = load_config(_read(args.config)) if args.config else Config()
    options = ValidateOptions(
        registry=_load("registry", args.registry, load_registry) if args.registry else None,
        library=_load("tagset", args.tagset, _library) if args.tagset else None,
        language=args.lang,
        severity_overrides=config.severity_overrides,
    )
    failed = False
    has_errors = False
    multi = len(args.paths) > 1
    for path in args.paths:
        try:
            report = validate_all(_parse(_read(path)), options)
        except SpokenkitError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failed = True
            continue
        except Exception as exc:  # one file's failure must not hide the others' reports
            print(f"{path}: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
            failed = True
            continue
        text = report.to_tsv() if args.format == "tsv" else report.to_text()
        _out(sys.stdout, f"== {path} ==\n{text}" if multi else text)
        has_errors = has_errors or report.has_errors
    if failed:
        return EXIT_USAGE
    return EXIT_ISSUES if has_errors else EXIT_OK


def cmd_convert(args) -> int:
    config = load_config(_read(args.config)) if args.config else Config()
    rules = None
    if args.conventions:
        rules = _load("convention rules", args.conventions, load_convention_rules)
    data = _read(args.path)

    if args.from_format == "tei":
        doc = _parse(data)
        if rules is not None:
            doc, findings = promote_document(doc, rules)
            _warn(findings)
        if args.to_format == "tei":
            output = serialize_document(doc, materialize_timeline=args.materialize_timeline)
        else:
            td, residue = tier_format.from_core(_timed(doc))
            for item in residue:
                print(f"residue: {item.annotation}: {item.reason}", file=sys.stderr)
            output = tier_format.serialize_tier(td).encode("utf-8")
    else:
        td = tier_format.parse_tier(data)
        if args.to_format == "tier":
            output = tier_format.serialize_tier(td).encode("utf-8")
        else:
            doc = tier_format.to_core(td, config.category_map or None)
            output = serialize_document(doc, materialize_timeline=args.materialize_timeline)

    if args.output:
        try:
            Path(args.output).write_bytes(output)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        _out(sys.stdout, output)
    return EXIT_OK


def cmd_overlaps(args) -> int:
    report = overlaps_report(_timed(_parse(_read(args.path))))
    text = "".join([f"{a}\t{b}\t{start}\t{end}\n" for a, b, start, end, _ in report.rows])
    _out(sys.stdout, text)
    if report.skipped:
        print(f"{report.skipped} annotation(s) without a resolvable interval", file=sys.stderr)
    return EXIT_OK


def cmd_tag(args) -> int:
    library = _load("tagset", args.lib, _library)
    if args.action == "list":
        _out(sys.stdout, "".join(tag_id + "\n" for tag_id in library.tag_ids()))
        return EXIT_OK
    if not args.tag:
        raise CliError("tag expand requires a tag id")
    definition = library.tag_lib.get(strip_ref(args.tag))
    if definition is None:
        raise CliError(f"unknown tag {args.tag!r}")
    # Top-level features in declaration order; a nested value as name/sub=value
    # lines, and a value without an atomic leaf as one empty name= line.
    lines = []
    for feature_ref in definition.feats:
        feature = library.feature_lib[feature_ref]
        leaves = flatten(FeatureStructure({feature.name: feature.value}))
        lines += [f"{path}={value}\n" for path, value in leaves or [(feature.name, "")]]
    _out(sys.stdout, "".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spokenkit",
        description="Validate, convert and query annotated spoken-corpus documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check documents and report issues")
    p_validate.add_argument("paths", nargs="+", help="document files to validate")
    p_validate.add_argument("--registry", help="data-category registry file")
    p_validate.add_argument("--tagset", help="tagset document for analysis references")
    p_validate.add_argument("--lang", help="language code for domain restrictions")
    p_validate.add_argument("--format", choices=["text", "tsv"], default="text")
    p_validate.add_argument("--config", help="configuration file (severity overrides)")
    p_validate.set_defaults(func=cmd_validate)

    p_convert = sub.add_parser("convert", help="convert between the supported formats")
    p_convert.add_argument("path")
    p_convert.add_argument("--from", dest="from_format", choices=["tei", "tier"], required=True)
    p_convert.add_argument("--to", dest="to_format", choices=["tei", "tier"], required=True)
    p_convert.add_argument("--materialize-timeline", action="store_true")
    p_convert.add_argument("--conventions", help="convention rule file to apply")
    p_convert.add_argument("--config", help="configuration file (category mapping)")
    p_convert.add_argument("-o", "--output", help="output file (default: standard output)")
    p_convert.set_defaults(func=cmd_convert)

    p_overlaps = sub.add_parser("overlaps", help="table of overlapping timed annotations")
    p_overlaps.add_argument("path")
    p_overlaps.set_defaults(func=cmd_overlaps)

    p_tag = sub.add_parser("tag", help="tagset tooling")
    tag_sub = p_tag.add_subparsers(dest="action", required=True)
    p_expand = tag_sub.add_parser("expand", help="print a tag's feature-value pairs")
    p_expand.add_argument("tag", help="tag id")
    p_expand.add_argument("--lib", required=True, help="tagset document")
    p_expand.set_defaults(func=cmd_tag)
    p_list = tag_sub.add_parser("list", help="list the tags of a tagset")
    p_list.add_argument("--lib", required=True, help="tagset document")
    p_list.set_defaults(func=cmd_tag, tag=None)
    return parser


# The parser main() reuses, built on its first call. Parsing only reads it, so
# no state carries between calls; build_parser() still returns a new parser,
# and a caller that changes one cannot change main().
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SpokenkitError as exc:
        print(f"spokenkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
