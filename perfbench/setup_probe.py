"""One set-up, as every ``restartk run`` pays it: import the CLI, then generate
and write the workload's configs.

    python3 perfbench/setup_probe.py WORKLOAD SEED ROUNDS DIRECTORY

run.py times this script from process start to exit in a fresh interpreter.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import restartk.cli  # noqa: E402,F401  (the import is the cost being measured)
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, rounds, directory = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    workloads.write_configs(workloads.generate(workload, seed, rounds), directory)
