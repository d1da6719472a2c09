"""Benchmark of the spokenkit command line on seeded synthetic corpora.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dialogue|tagged|score --seed N --seconds S --trace 0|1

The workload's corpus is generated from the seed and written under
``.perfbench/work`` before anything is timed. ``--trace 0`` measures set-up
time in fresh interpreters, then runs the workload's commands in a child
process (see ``child.py``) and reports the end-to-end metrics. ``--trace 1``
runs every operation once untraced and once replayed with spans, and reports
the per-layer metrics. Every output is checked against the generator's own
expectations. Human-readable tables come first; the last line of stdout is
the JSON result, also kept with provenance under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BEGIN = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench" / "work"
RESULTS = ROOT / ".perfbench" / "results"
SETUP_PAIRS = 16  # half before the timed child, half after, so they see the host at two times
RUN_LIMIT_S = 170  # the whole run, corpus generation and set-up launches included
LATE_SETUP_RESERVE_S = 15  # kept back for the set-up launches after the child
LAST_OP_RESERVE_S = 15  # the child starts no operation this close to its time limit

import gen  # noqa: E402  (perfbench/ is this script's directory, so it is on sys.path)
from calibrate import REFERENCE_S  # noqa: E402
from stats import command_summary, hd_quantile  # noqa: E402

END_TO_END = ("setup_s", "peak_rss_mb", "items_per_s", "doc_ms_p50", "doc_ms_p90")


def unit_of(name: str) -> str:
    if name == "setup_s":
        return "s"
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("items_per_s"):
        return "items/s"
    if name.endswith(".ms") or name.startswith("doc_ms_") or ".doc_ms_" in name:
        return "ms"
    if name.endswith(".mb_per_s"):
        return "MB/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spokenkit").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = found.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, inputs: Path, pairs: int) -> list[tuple[float, float]]:
    """Set-up seconds, (as measured, at reference speed), of ``pairs`` pairs of fresh interpreters.

    Each launch times the calibration unit once its set-up is done; its
    set-up time is scaled by REFERENCE_S over that unit time. A pair's
    sample is the faster of its two back-to-back launches, which leaves
    out most launches a neighbour on the host slowed down.
    """
    argv = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(ROOT), workload, str(inputs)]
    samples = []
    for _ in range(pairs):
        pair = []
        for _ in range(2):
            done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
            elapsed, unit = (float(field) for field in done.stdout.split())
            pair.append((elapsed, elapsed * REFERENCE_S / unit))
        samples.append((min(raw for raw, _ in pair), min(scaled for _, scaled in pair)))
    return samples


def run_child(args, work: Path, spans: Path, budget: float) -> dict:
    """The child's result; it starts no operation later than ``LAST_OP_RESERVE_S`` before ``budget``."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--deadline", str(budget - LAST_OP_RESERVE_S), "--spans", str(spans)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=budget, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({done.returncode}):\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["ops"]:
        raise RuntimeError("benchmark child ran no operation within its time limit")
    return result


def end_to_end(child: dict, setup: list[tuple[float, float]], scale: bool = True) -> dict:
    """The end-to-end metrics; times at reference speed unless ``scale`` is off."""
    items = child["items"]
    column = 4 if scale else 3
    per_doc: dict[tuple[int, str], float] = {}
    for op in child["ops"]:
        key = (op[0], op[2])
        per_doc[key] = per_doc.get(key, 0.0) + op[column]
    processed = sum(items[name] for _, name in per_doc)
    latencies = list(per_doc.values())
    return {
        "setup_s": hd_quantile([sample[scale] for sample in setup], 0.5),
        "peak_rss_mb": child["maxrss_kib"] / 1024,
        "items_per_s": processed / sum(latencies),
        "doc_ms_p50": hd_quantile(latencies, 0.5) * 1000,
        "doc_ms_p90": hd_quantile(latencies, 0.9) * 1000,
    }


def command_table(child: dict, commands) -> list[str]:
    """Per-command throughput and per-document latency; untraced runs give them at reference speed."""
    lines = [f"{'command':<14}{'items/s':>12}{'doc_ms_p50':>12}{'doc_ms_p90':>12}{'ops':>7}{'failed_ratio':>14}"]
    for command in commands:
        summary = command_summary(child["items"], child["ops"], command, column=-1)
        attempted = sum(1 for op in child["ops"] if op[1] == command) + child["skipped"][command]
        n_failed = sum(1 for failure in child["failures"] if failure[1] == command)
        figures = (f"{summary['items_per_s']:>12.1f}{summary['doc_ms_p50']:>12.2f}{summary['doc_ms_p90']:>12.2f}"
                   if summary else f"{'-':>12}{'-':>12}{'-':>12}")
        lines.append(f"{command:<14}{figures}{attempted:>7}{n_failed / attempted:>14.4f}")
    return lines


def scaling_table(scaling: dict) -> list[str]:
    lines = ["per-item self time (us) by size class, smallest to largest:"]
    for name, per_item in scaling.items():
        lines.append(f"  {name:<24}" + "".join(f"{v:>10.2f}" for v in per_item))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spokenkit" / "cli.py").is_file():
        print(f"perfbench: no spokenkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        corpus = gen.generate(args.workload, args.seed)
        gen.write_corpus(corpus, work)
        setup = []
        if not args.trace:
            measure_setup(args.workload, work / "inputs", 1)  # uncounted: caches bytecode
            setup += measure_setup(args.workload, work / "inputs", SETUP_PAIRS // 2)
        budget = RUN_LIMIT_S - (perf_counter() - BEGIN) - (0 if args.trace else LATE_SETUP_RESERVE_S)
        child = run_child(args, work, RESULTS / f"spans-{tag}.json", budget)
        if not args.trace:
            setup += measure_setup(args.workload, work / "inputs", SETUP_PAIRS // 2)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = corpus.workload.commands
    raw = {}
    if args.trace:
        values = child["layers"]["metrics"]
    else:
        values = end_to_end(child, setup)
        raw = end_to_end(child, setup, scale=False)
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    result = {
        "correct": not child["failures"],
        "attempted": len(child["ops"]) + sum(child["skipped"].values()),
        "failed": len(child["failures"]),
        "metrics": metrics,
    }
    info = provenance(args)
    info.update(passes=child["passes"], documents=len(corpus.docs),
                items=sum(d.items for d in corpus.docs), setup_samples_s=setup,
                unscaled_metrics=raw)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(
        {"provenance": info, "result": result, "failures": child["failures"],
         "scaling_us_per_item": child.get("layers", {}).get("scaling")}, indent=1), encoding="utf-8")

    print(f"perfbench {tag}: {info['documents']} documents, {info['items']} {corpus.workload.item_kind}, "
          f"{child['passes']} pass(es)")
    print("provenance " + json.dumps(info))
    print("\n".join(command_table(child, commands)))
    if args.trace:
        print("\n".join(scaling_table(child["layers"]["scaling"])))
    for name, metric in metrics.items():
        unscaled = f"   (unscaled {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<40}{metric['value']:>16.4f} {metric['unit']}{unscaled}")
    for pass_no, command, name, reason in child["failures"][:5]:
        print(f"failed: pass {pass_no} {command} {name}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
