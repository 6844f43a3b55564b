#!/usr/bin/env python3
"""Torus-commutant chains for sl(n): transcendence degrees and timings.

For each n the script forms the chain  Casimirs < S(sl_n)^T < S(sl_n),
verifies superintegrability, and reports how the two transcendence degrees
add up to n^2 - 1.
"""

import argparse
import json
import sys
import time

from poischain import builtin_sl, torus_chain


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5, help="largest sl(n) to run")
    ap.add_argument("--max-degree", type=int, default=None,
                    help="override the per-algebra degree cap")
    ap.add_argument("--out", type=str, default=None,
                    help="write the collected reports as JSON")
    args = ap.parse_args(argv)

    header = f"{'n':>2}  {'trdeg S^T':>9}  {'trdeg base':>10}  {'sum':>4}  {'dim':>4}  {'verdict':<18}  {'secs':>7}"
    print(header)
    print("-" * len(header))
    reports = []
    for n in range(2, args.max_n + 1):
        alg = builtin_sl(n)
        t0 = time.monotonic()
        rep = torus_chain(alg, max_degree=args.max_degree)
        dt = time.monotonic() - t0
        total = rep.trdeg_intermediate + rep.trdeg_base
        print(
            f"{n:>2}  {rep.trdeg_intermediate:>9}  {rep.trdeg_base:>10}"
            f"  {total:>4}  {rep.dim:>4}  {rep.verdict:<18}  {dt:>7.2f}"
        )
        reports.append({"n": n, "seconds": round(dt, 3), **rep.to_json()})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
