"""Time one cold start of a workload: importing hrcc plus its first call.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Run in a fresh interpreter by ``run.py``, which takes the median of several
probes as ``setup_s``.  Prints {"setup_s": seconds} on its last line.  The
workload's input generation happens between the two timed parts and is not
counted.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    start = perf_counter()
    import workloads  # imports numpy and every hrcc module the workloads call

    imported = perf_counter() - start
    workload = workloads.make(name, seed, out_dir)
    start = perf_counter()
    workload.warm_up()
    print(json.dumps({"setup_s": imported + perf_counter() - start}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
