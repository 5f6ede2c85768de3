"""Self-test of the traced run: counts repeat exactly, overhead is stated.

    python3 perfbench/selftest.py --workload scan --seed 1

Runs the benchmark twice with `--trace 1` on the same seed.  Every
per-layer metric that is a count or a ratio of counts must be identical in
the two runs; the exit code is 1 when one differs.  It prints the tracing
overhead of each run (`trace.overhead_s`: the traced pass minus the
untraced pass before it, in reference seconds) and the first run's
per-layer values.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: gate failed\n{out.stderr}")
    return result["metrics"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    first = traced(args.workload, args.seed)
    second = traced(args.workload, args.seed)
    exact = [k for k, v in first.items() if v["unit"] in ("count", "ratio")]
    differ = [k for k in exact if first[k]["value"] != second[k]["value"]]
    for key in differ:
        print(f"differs: {key} {first[key]['value']} != {second[key]['value']}")
    overhead = [m["trace.overhead_s"]["value"] for m in (first, second)]
    untraced = [m["trace.pass_ref_s"]["value"] - o
                for m, o in zip((first, second), overhead)]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "exact_metrics": len(exact), "differing": differ,
        "untraced_ref_s": untraced, "overhead_s": overhead,
        "overhead_frac": [o / u for o, u in zip(overhead, untraced)],
        "per_layer": {k: v["value"] for k, v in first.items()}}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
