"""Self-tests of the benchmark: generators, oracles, failure accounting, tracing.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import time
from pathlib import Path
from statistics import median

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, replay  # noqa: E402

WORKLOADS = sorted(gen.WORKLOADS)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> dict[str, child.Corpus]:
    """Three documents per workload, written to disk as a run writes them."""
    out = {}
    for workload in WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        gen.write_corpus(gen.generate(workload, 5, doc_count=3), work)
        out[workload] = child.Corpus(workload, work)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = gen.generate(workload, 3, doc_count=3)
    again = gen.generate(workload, 3, doc_count=3)
    other = gen.generate(workload, 4, doc_count=3)
    assert [(d.name, d.data, d.expect) for d in first.docs] == [
        (d.name, d.data, d.expect) for d in again.docs
    ]
    assert first.side == again.side
    assert [d.data for d in first.docs] != [d.data for d in other.docs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sizes_are_stratified_over_the_declared_range(workload):
    lo, hi = gen.WORKLOADS[workload].size_range
    corpus = gen.generate(workload, 9, doc_count=8)
    sizes = [d.items for d in corpus.docs]
    span = math.log(hi / lo)
    assert all(lo <= size <= hi for size in sizes)
    # One document per eighth of the log range; rounding may move one across a boundary.
    assert len({min(7, int(8 * math.log(size / lo) / span)) for size in sizes}) >= 7


def test_overlap_rows_match_all_pairs():
    rng = random.Random(1)
    intervals = []
    for n in range(60):
        s = rng.randrange(0, 100)
        intervals.append((s, s + rng.randrange(1, 20), f"e{n}"))
    ids = [f"T{n}" for n in range(130)]
    ranked = sorted(intervals)
    brute = "".join(
        f"{a[2]}\t{b[2]}\t{ids[max(a[0], b[0])]}\t{ids[min(a[1], b[1])]}\n"
        for i, a in enumerate(ranked)
        for b in ranked[i + 1:]
        if max(a[0], b[0]) < min(a[1], b[1])
    )
    assert gen.overlap_rows(intervals, ids) == brute


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracles_accept_the_program_output(corpora, workload):
    corpus = corpora[workload]
    result = child.timed(corpus, gen.WORKLOADS[workload].commands, seconds=0)
    assert result["failures"] == []
    assert len(result["ops"]) == len(corpus.names) * len(gen.WORKLOADS[workload].commands)


# A one-byte change inside a field each oracle checks: (needle, offset of the byte).
CORRUPTIONS = {
    ("dialogue", "validate"): ("DANGLING_REF", 0),
    ("dialogue", "overlaps"): ("\tT", 2),
    ("dialogue", "convert_tier"): ("event\t", 8),
    ("tagged", "validate"): ("SPAN_ORDER", 1),
    ("tagged", "convert_tei"): ('xml:id="w', 9),
    ("score", "convert_tei"): ('xml:id="p', 9),
    ("score", "convert_tier"): ("@point\t", 8),
}


@pytest.mark.parametrize("workload,command", sorted(CORRUPTIONS))
def test_output_corrupted_by_one_byte_counts_as_failed(corpora, monkeypatch, workload, command):
    needle, offset = CORRUPTIONS[(workload, command)]
    real_run_cli = child.run_cli

    def corrupting_run_cli(argv):
        code, out, err, elapsed = real_run_cli(argv)
        at = out.index(needle) + offset
        return code, out[:at] + chr(ord(out[at]) ^ 1) + out[at + 1:], err, elapsed

    monkeypatch.setattr(child, "run_cli", corrupting_run_cli)
    corpus = corpora[workload]
    result = child.timed(corpus, (command,), seconds=0)
    assert len(result["failures"]) == len(corpus.names)


def test_tier_oracle_rejects_overlap_within_a_tier():
    expect = {
        "points": [["T1", "0"], ["T2", "250"], ["T3", "500"]],
        "auto_points": 0,
        "events": [["S1", "verbal", "T1", "T3", "a"], ["S1", "verbal", "T2", "T3", "b"]],
    }
    text = (
        "@speaker\tS1\tAnne\n@point\tT1\t0\n@point\tT2\t250\n@point\tT3\t500\n"
        "@tier\tS1_verbal\tS1\tverbal\n"
        "event\tS1_verbal\tT1\tT3\ta\nevent\tS1_verbal\tT2\tT3\tb\n"
    )
    assert "overlap within tier" in oracle.check_tier(expect, text)


def test_slip_documents_fail_only_their_tier_conversion(tmp_path):
    corpus = gen.generate("dialogue", 2, doc_count=10, slip_share=0.2)
    slips = sorted(d.name for d in corpus.docs if d.expect["slip"])
    assert len(slips) == 2
    for doc in corpus.docs:
        if doc.name in slips:
            order = {pid: n for n, (pid, _) in enumerate(doc.expect["tier"]["points"])}
            spans = sorted(
                (order[start], order[end], who)
                for who, category, start, end, _ in doc.expect["tier"]["events"]
                if category == "verbal"
            )
            assert any(a[2] == b[2] and b[0] < a[1] for i, a in enumerate(spans) for b in spans[i + 1:])
    gen.write_corpus(corpus, tmp_path)
    result = child.timed(child.Corpus("dialogue", tmp_path), gen.WORKLOADS["dialogue"].commands, seconds=0)
    assert len(result["ops"]) == 30
    assert sorted((command, name) for _, command, name, _ in result["failures"]) == [
        ("convert_tier", name) for name in slips
    ]
    assert all("overlap within tier" in reason for *_, reason in result["failures"])


def test_operations_past_the_deadline_count_as_failed(corpora):
    corpus = corpora["score"]
    commands = gen.WORKLOADS["score"].commands
    result = child.timed(corpus, commands, seconds=0, deadline=0)
    assert result["ops"] == []
    assert [failure[3] for failure in result["failures"]] == [child.LATE] * len(commands) * len(corpus.names)


def _fixed_work(n: int) -> int:
    rows = [("w%d\t%s" % (i, "x" * (i % 13))).split("\t") for i in range(n)]
    rows.sort(key=lambda r: (len(r[1]), r[0]))
    table: dict[int, list[str]] = {}
    for a, b in rows:
        table.setdefault(len(b), []).append(a)
    return len(table)


@pytest.mark.parametrize("block_ms", [1, 20])
def test_scaled_time_keeps_the_ratio_of_wall_times(block_ms):
    """A block three times as long is scaled as much as a short one, for short and long blocks.

    Each pair runs a 1x and a 3x block back to back, so both see the host at
    about the same speed; for each pair the ratio of scaled times is divided
    by the ratio of wall times. The median over pairs keeps a neighbour's
    burst inside one pair from deciding the test.
    """
    start = time.perf_counter()
    _fixed_work(2000)
    n = max(200, int(2000 * block_ms / 1000 / (time.perf_counter() - start)))
    sampler = calibrate.SpeedSampler()
    drifts = []
    for _ in range(31 if block_ms < 5 else 21):
        pair = []
        for factor in (1, 3):
            with sampler:
                _fixed_work(n * factor)
            pair.append((sampler.wall, sampler.scaled))
        (wall1, scaled1), (wall3, scaled3) = pair
        drifts.append((scaled3 / scaled1) / (wall3 / wall1))
    assert abs(median(drifts) - 1) < 0.05


@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_matches_the_cli(corpora, workload):
    corpus = corpora[workload]
    for command in gen.WORKLOADS[workload].commands:
        name = corpus.names[0]
        code, out, err, _ = child.run_cli(corpus.argv(command, name))
        tracer = Tracer()
        replayed_out, replayed_err = io.StringIO(), io.StringIO()
        replayed_code, _ = replay(tracer, command, corpus.argv(command, name),
                                  replayed_out, replayed_err)
        assert (replayed_code, replayed_out.getvalue(), replayed_err.getvalue()) == (code, out, err)
        assert tracer.spans[0][0] == f"cli.{command}"
        assert all(t >= 0 for t in tracer.self_times())


def test_benchmark_json_matches_the_metrics_reported(corpora, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    corpus = corpora["dialogue"]
    result = child.traced(corpus, gen.WORKLOADS["dialogue"].commands, tmp_path / "spans.json")
    assert result["failures"] == []
    assert set(result["layers"]["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
