"""The qcongruence benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports the package from ./src of the tree it sits in and nothing else.
`BENCHMARK.json` at the root names the workloads and metrics; see
`measure.py` for how each is measured. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["qcong-grid", "lemmas-grid", "cyclo-table",
                                 "cli-sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "qcongruence" / "__init__.py").is_file():
        sys.exit(f"no qcongruence sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import measure

    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
