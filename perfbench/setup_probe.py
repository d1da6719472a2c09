import time

START = time.perf_counter()

# Set-up time, measured in a fresh interpreter from the first statement: import
# the CLI and load the workload's side inputs through their public loaders.
# Usage: setup_probe.py ROOT WORKLOAD INPUTS; prints the seconds taken and,
# after them, the calibration unit's time measured once set-up is done.
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

root, workload, inputs = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
sys.path.insert(0, str(root / "src"))

from spokenkit import cli  # noqa: E402
from spokenkit.datacat import load_registry  # noqa: E402
from spokenkit.tei import load_convention_rules  # noqa: E402

if workload == "tagged":
    load_registry((inputs / "registry.tsv").read_bytes())
    load_convention_rules((inputs / "gat.rules").read_bytes())
elif workload == "score":
    cli.load_config((inputs / "categories.cfg").read_bytes())

elapsed = time.perf_counter() - START

sys.path.insert(0, str(root / "perfbench"))
from calibrate import gap_sample  # noqa: E402

print(repr(elapsed), repr(gap_sample()))
