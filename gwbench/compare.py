#!/usr/bin/env python3
"""Compare two sets of gateway benchmark results.

    python3 gwbench/compare.py --base A1.json A2.json ... --change B1.json ...

Each file is a result file gwbench writes to <build dir>/gwbench-out/. All
files must carry the same host fingerprint (core count, SIMD backend,
compiler, build type, LUMEN_THREADS) and the same workload, trace mode and
run length; otherwise the script refuses to compare and exits with 2.

For every metric it prints each side's median and quartiles, and, for the
end-to-end metrics BENCHMARK.json bounds, whether the change's median is
worse than the base's by more than the bound ("regressed"), or whether the
base's own spread is wider than the bound ("unresolved").
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..",
                                                        "BENCHMARK.json"))
    args = ap.parse_args()
    base, change = load(args.base), load(args.change)

    keys = ("fingerprint", "workload", "trace", "seconds")
    ref = {k: base[0][k] for k in keys}
    for r in base + change:
        for k in keys:
            if r[k] != ref[k]:
                print("refusing to compare: %s differs (%r vs %r)"
                      % (k, r[k], ref[k]))
                sys.exit(2)
    bad = [r for r in base + change if not r["correct"]]
    if bad:
        print("refusing to compare: %d result(s) failed the verdict check"
              % len(bad))
        sys.exit(2)

    spec = {}
    if os.path.exists(args.benchmark):
        with open(args.benchmark) as f:
            for m in json.load(f)["end_to_end"]:
                spec[m["name"]] = m

    print("workload %s, fingerprint %s" % (ref["workload"],
                                          json.dumps(ref["fingerprint"])))
    regressed = False
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        verdict = ""
        m = spec.get(name)
        if m is not None and bq[1] != 0:
            worse = (cq[1] - bq[1]) / abs(bq[1])
            if m["better"] == "higher":
                worse = -worse
            spread = (bq[2] - bq[0]) / abs(bq[1])
            if spread > m["bound"] and name != "setup_s":
                verdict = "unresolved (base spread %.1f%%)" % (100 * spread)
            elif worse > m["bound"]:
                verdict = "REGRESSED by %.1f%% (bound %.0f%%)" % (
                    100 * worse, 100 * m["bound"])
                regressed = True
            else:
                verdict = "within bound (%+.1f%% worse)" % (100 * worse)
        print("  %-40s base %12.4g [%.4g, %.4g]  change %12.4g [%.4g, %.4g]"
              "  %s" % (name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2],
                        verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
