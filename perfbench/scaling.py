"""Stage timings on single dialogue documents of given sizes.

Usage, from the root of a source checkout:

    python3 perfbench/scaling.py --sizes 1000,4000 [--seed 1]

Generates one document per size with the dialogue workload's generator and
times the stages whose growth the roadmap tracks: TEI parse, anchor
resolution, validation, implicit sequencing, the overlap report, tier
projection and TEI serialisation. Prints milliseconds per stage and size,
and the growth from the first size to the last.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spokenkit.core import overlaps_report, sequence_implicit  # noqa: E402
from spokenkit.tei import parse_document, resolve_anchors, serialize_document  # noqa: E402
from spokenkit.tier import from_core  # noqa: E402
from spokenkit.validate import validate_all  # noqa: E402

import gen  # noqa: E402


def stage_ms(data: bytes) -> dict[str, float]:
    times: dict[str, float] = {}

    def timed(name, fn, *args):
        start = perf_counter()
        value = fn(*args)
        times[name] = (perf_counter() - start) * 1000
        return value

    doc, _ = timed("tei.parse_document", parse_document, data)
    doc, _ = timed("tei.resolve_anchors", resolve_anchors, doc)
    timed("validate.validate_all", validate_all, doc)
    timed("tei.serialize_document", serialize_document, doc)
    doc = timed("core.sequence_implicit", sequence_implicit, doc)
    timed("core.overlaps_report", overlaps_report, doc)
    timed("tier.from_core", from_core, doc)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1000,4000", help="comma-separated event counts")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    table = {}
    for n in sizes:
        doc = gen.dialogue_doc(random.Random(f"scaling:{args.seed}:{n}"), f"n{n}", n)
        table[n] = stage_ms(doc.data)
    print(f"{'stage':<26}" + "".join(f"{f'n={n} ms':>12}" for n in sizes) + f"{'growth':>10}")
    for stage in table[sizes[0]]:
        row = [table[n][stage] for n in sizes]
        print(f"{stage:<26}" + "".join(f"{v:>12.1f}" for v in row) + f"{row[-1] / row[0]:>9.1f}x")
    print(json.dumps({"sizes": sizes, "seed": args.seed, "stage_ms": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
