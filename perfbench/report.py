"""Print every end-to-end metric, by name and unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``perfbench/run.py --trace 0`` once per workload listed in
``BENCHMARK.json`` and prints each run's summary: the metrics with their
units, the sample count and percentile behind each timing, and the verdict
tally (pass, known-defect, failed) behind ``pass_ratio``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    status = 0
    for workload in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stderr)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
