"""The measured process: runs a workload's commands over a corpus on disk.

Usage: child.py --workload NAME --work DIR --seconds S --deadline D --trace 0|1 --spans FILE

One client in a closed loop: for each command, the documents back to back,
each through ``spokenkit.cli.main(argv)`` in this process. Every command runs
once on a small warm-up document first, uncounted. Untraced, whole passes
repeat while the next one is expected to end within the time budget. Traced,
one pass runs each operation untraced and then replayed with spans, checks
the two outputs are equal, and derives the per-layer metrics from the spans.
No operation starts more than ``--deadline`` seconds after the process
started; the operations left out are counted as failed, so a program slow
enough to overrun still gets a result. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BEGIN = perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spokenkit import cli  # noqa: E402

from calibrate import SpeedSampler  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from stats import command_summary  # noqa: E402
from tracing import (  # noqa: E402
    COUNTS,
    END,
    NAME,
    PARENT,
    REQUEST,
    START,
    Tracer,
    check_breakdown,
    replay,
    size_classes,
)

ISSUE_CODES = (
    "DUP_ID", "BAD_ID", "DANGLING_REF", "ANCHOR_ORDER", "OFFSET_ORDER", "SPAN_ORDER",
    "UNKNOWN_TAG", "DOMAIN_VIOLATION", "LEVEL_INCOHERENT", "UNKNOWN_CATEGORY", "TAGSET_ERROR",
)
ALL_COMMANDS = ("validate", "overlaps", "convert_tier", "convert_tei")
SELF_TIME_SPANS = (
    "core.overlaps_report", "core.sequence_implicit", "core.check_level_coherence",
    "tei.parse_document", "tei.resolve_anchors", "tei.promote_document",
    "tei.serialize_document", "featstruct.build_library", "datacat.load_registry",
    "validate.validate_all", "validate.check_refs", "validate.check_ids",
    "validate.check_temporal", "validate.check_span_order", "validate.check_tagset",
    "tier.from_core", "tier.parse_tier", "tier.to_core", "tier.serialize_tier",
)
LATE = "not run: the run's time limit was reached"
SCALED_SPANS = ("core.overlaps_report", "validate.validate_all", "validate.check_refs", "tier.from_core")


def argv_for(workload: str, command: str, doc: Path, inputs: Path) -> list[str]:
    """The documented CLI flags each workload uses; never ``--jobs``."""
    if command == "validate":
        extra = ["--registry", str(inputs / "registry.tsv"), "--lang", "fr"] if workload == "tagged" else []
        return ["validate", *extra, str(doc)]
    if command == "overlaps":
        return ["overlaps", str(doc)]
    source = "tier" if workload == "score" else "tei"
    target = "tier" if command == "convert_tier" else "tei"
    extra = []
    if target == "tei" and workload == "tagged":
        extra = ["--conventions", str(inputs / "gat.rules")]
    elif target == "tei" and workload == "score":
        extra = ["--config", str(inputs / "categories.cfg")]
    return ["convert", str(doc), "--from", source, "--to", target, *extra]


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Corpus:
    """The documents of a written corpus, with their expectations read on demand."""

    def __init__(self, workload: str, work: Path) -> None:
        self.workload = workload
        self.inputs = work / "inputs"
        self.expected = work / "expected"
        ext = gen.EXTENSIONS[workload]
        self.names = sorted(p.name for p in self.inputs.glob(f"doc*.{ext}"))
        self.warmup = f"warmup.{ext}"
        self.items = {name: self.expect(name)["items"] for name in [*self.names, self.warmup]}

    def expect(self, name: str) -> dict:
        return json.loads((self.expected / (name + ".json")).read_text(encoding="utf-8"))

    def argv(self, command: str, name: str) -> list[str]:
        return argv_for(self.workload, command, self.inputs / name, self.inputs)

    def verdict(self, command: str, name: str, code: int, out: str) -> str | None:
        return oracle.check(command, self.expect(name), code, out,
                            (self.inputs / name).read_bytes())


def operate(corpus: Corpus, command: str, name: str, timer=None) -> tuple[float, str | None, tuple]:
    """One operation: the command on one document. Returns time, failure, output."""
    try:
        with timer or nullcontext():
            code, out, err, elapsed = run_cli(corpus.argv(command, name))
    except Exception as exc:  # an operation that raises counts as failed; the loop goes on
        return 0.0, f"raised {type(exc).__name__}: {exc}", ()
    return elapsed, corpus.verdict(command, name, code, out), (code, out, err)


def warm_up(corpus: Corpus, commands) -> None:
    for command in commands:
        operate(corpus, command, corpus.warmup)


def timed(corpus: Corpus, commands, seconds: float, deadline: float = float("inf")) -> dict:
    ops: list[list] = []  # [pass, command, document, wall seconds, seconds at reference speed]
    sampler = SpeedSampler()
    failures: list[list] = []  # [pass, command, document, reason]
    begin = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for command in commands:
            for name in corpus.names:
                if perf_counter() - BEGIN > deadline:
                    failures.append([passes, command, name, LATE])
                    continue
                _, failure, _ = operate(corpus, command, name, sampler)
                ops.append([passes, command, name, sampler.wall, sampler.scaled])
                if failure:
                    failures.append([passes, command, name, failure])
        passes += 1
        now = perf_counter()
        if now - begin + (now - pass_start) > seconds:
            break
    return {"ops": ops, "failures": failures, "passes": passes}


def traced(corpus: Corpus, commands, spans_path: Path, deadline: float = float("inf")) -> dict:
    tracer = Tracer()
    ops: list[list] = []
    failures: list[list] = []  # [pass, command, document, reason]
    untraced_s = traced_s = 0.0
    for command in commands:
        for name in corpus.names:
            if perf_counter() - BEGIN > deadline:
                failures.append([0, command, name, LATE])
                continue
            elapsed, failure, result = operate(corpus, command, name)
            ops.append([0, command, name, elapsed])
            if failure:
                failures.append([0, command, name, failure])
                continue
            tracer.request = name
            out, err = io.StringIO(), io.StringIO()
            first = len(tracer.spans)
            code, validated = replay(tracer, command, corpus.argv(command, name), out, err)
            root = tracer.spans[first]
            untraced_s += elapsed
            traced_s += root[END] - root[START]
            if (code, out.getvalue(), err.getvalue()) != result:
                failures.append([0, command, name, "replayed output differs from the CLI output"])
            for doc, options in validated:
                check_breakdown(tracer, doc, options)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps([
        {"name": s[NAME], "request": s[REQUEST], "parent": s[PARENT], "start": s[START],
         "end": s[END], "counts": s[COUNTS]}
        for s in tracer.spans
    ]), encoding="utf-8")
    return {"ops": ops, "failures": failures, "passes": 1,
            "layers": layer_metrics(tracer, corpus, ops, traced_s / untraced_s if untraced_s else 0.0)}


def layer_metrics(tracer: Tracer, corpus: Corpus, ops: list[list], overhead: float) -> dict:
    own = tracer.self_times()
    ms: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    per_doc: dict[tuple[str, str], float] = defaultdict(float)
    cli_self = 0.0
    for span, t in zip(tracer.spans, own):
        ms[span[NAME]] += t * 1000
        per_doc[(span[NAME], span[REQUEST])] += t
        if span[NAME].startswith("cli."):
            cli_self += t * 1000
        for key, value in span[COUNTS].items():
            counts[f"{span[NAME]}.{key}"] += value

    def mb_per_s(name: str) -> float:
        seconds = ms[name] / 1000
        return counts[f"{name}.bytes"] / 1e6 / seconds if seconds else 0.0

    metrics = {f"{name}.ms": ms[name] for name in SELF_TIME_SPANS}
    metrics.update({
        "core.overlaps_report.pairs": counts["core.overlaps_report.pairs"],
        "core.sequence_implicit.points_added": counts["core.sequence_implicit.points_added"],
        "tei.parse_document.mb_per_s": mb_per_s("tei.parse_document"),
        "tei.parse_document.annotations": counts["tei.parse_document.annotations"],
        "tei.serialize_document.mb_per_s": mb_per_s("tei.serialize_document"),
        "featstruct.build_library.tags": counts["featstruct.build_library.tags"],
        "datacat.registry.categories": max(
            (s[COUNTS]["categories"] for s in tracer.spans if s[NAME] == "datacat.load_registry"),
            default=0,
        ),
        "validate.issues": counts["validate.validate_all.issues"],
        "tier.from_core.residue": counts["tier.from_core.residue"],
        "cli.self.ms": cli_self,
        "trace.overhead_ratio": overhead,
    })
    for code in ISSUE_CODES:
        metrics[f"validate.issues.{code}"] = counts[f"validate.validate_all.issues.{code}"]

    spec = gen.WORKLOADS[corpus.workload]
    classes = dict(zip(corpus.names, size_classes([corpus.items[n] for n in corpus.names],
                                                   *spec.size_range)))
    scaling: dict[str, list[float]] = {}
    for name in SCALED_SPANS:
        time_by_class = [0.0] * 4
        items_by_class = [0] * 4
        for doc in corpus.names:
            if (name, doc) in per_doc:
                time_by_class[classes[doc]] += per_doc[(name, doc)]
                items_by_class[classes[doc]] += corpus.items[doc]
        per_item_us = [t * 1e6 / n if n else 0.0 for t, n in zip(time_by_class, items_by_class)]
        scaling[name] = per_item_us
        metrics[f"{name}.scale_ratio"] = per_item_us[-1] / per_item_us[0] if per_item_us[0] else 0.0

    for command in ALL_COMMANDS:
        summary = command_summary(corpus.items, ops, command)
        for key in ("items_per_s", "doc_ms_p50", "doc_ms_p90"):
            metrics[f"cli.{command}.{key}"] = summary[key] if summary else 0.0
    return {"metrics": metrics, "scaling": scaling}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    corpus = Corpus(args.workload, args.work)
    commands = gen.WORKLOADS[args.workload].commands
    warm_up(corpus, commands)
    if args.trace:
        result = traced(corpus, commands, args.spans, args.deadline)
    else:
        result = timed(corpus, commands, args.seconds, args.deadline)
    result["items"] = corpus.items
    late = [failure[1] for failure in result["failures"] if failure[3] == LATE]
    result["skipped"] = {command: late.count(command) for command in commands}
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
