#!/usr/bin/env python3
"""CI bench smoke gate.

Compares a freshly produced BENCH_gofree.json against the committed
reduced-scale baseline (bench/baseline_smoke.json).  The baseline holds
one section per execution engine ({"engines": {"bytecode": ..}}); the
current document's "engine" field (default "bytecode") selects which
section it is compared against.

Checks:

  * wall_ns may not regress by more than --tolerance (default 20%) on
    any workload/setting pair — catches interpreter/allocator slowdowns;
  * the geometric mean of the wall_ns ratios across every
    workload/setting pair may not regress by more than --geomean
    (default 10%) — catches broad slowdowns that stay under the
    per-pair tolerance everywhere;
  * every allocator-visible metric (alloced_bytes, freed_bytes,
    gc_cycles, maxheap_bytes, free_ratio) must match the baseline
    EXACTLY — the simulated runtime is deterministic under a fixed
    seed/scale, so any drift means the semantics changed.

Exit status 0 = pass, 1 = regression/mismatch, 2 = bad input.
"""

import argparse
import json
import math
import sys

EXACT_KEYS = ("alloced_bytes", "freed_bytes", "gc_cycles",
              "maxheap_bytes", "free_ratio")


def load(path, schema):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if schema and doc.get("schema") != schema:
        print(f"error: {path}: unexpected schema {doc.get('schema')!r}",
              file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="max allowed per-pair wall_ns regression (fraction)")
    ap.add_argument("--geomean", type=float, default=0.10,
                    help="max allowed geomean wall_ns regression (fraction)")
    args = ap.parse_args()

    baselines = load(args.baseline, None)
    cur = load(args.current, "gofree-bench-v1")

    engine = cur.get("engine", "bytecode")
    if "engines" not in baselines:
        print(f"error: {args.baseline}: no \"engines\" sections",
              file=sys.stderr)
        sys.exit(2)
    base = baselines["engines"].get(engine)
    if base is None:
        print(f"error: {args.baseline}: no baseline for engine "
              f"{engine!r} (has: {', '.join(sorted(baselines['engines']))})",
              file=sys.stderr)
        sys.exit(2)
    if base.get("schema") != "gofree-bench-v1":
        print(f"error: {args.baseline}[{engine}]: unexpected schema "
              f"{base.get('schema')!r}", file=sys.stderr)
        sys.exit(2)

    for key in ("runs", "scale_pct", "seed", "engine"):
        if base.get(key) != cur.get(key):
            print(f"error: {key} differs (baseline {base.get(key)}, "
                  f"current {cur.get(key)}) — not comparable", file=sys.stderr)
            sys.exit(2)

    base_ws = {w["name"]: w for w in base["workloads"]}
    failures = 0
    log_ratios = []
    for w in cur["workloads"]:
        bw = base_ws.pop(w["name"], None)
        if bw is None:
            print(f"FAIL {w['name']}: missing from baseline")
            failures += 1
            continue
        for setting, cs in w["settings"].items():
            bs = bw["settings"].get(setting)
            if bs is None:
                print(f"FAIL {w['name']}/{setting}: missing from baseline")
                failures += 1
                continue
            ratio = cs["wall_ns"] / bs["wall_ns"] if bs["wall_ns"] else 0.0
            if ratio > 0.0:
                log_ratios.append(math.log(ratio))
            if ratio > 1.0 + args.tolerance:
                print(f"FAIL {w['name']}/{setting}: wall_ns {bs['wall_ns']:.0f}"
                      f" -> {cs['wall_ns']:.0f} (+{(ratio - 1) * 100:.1f}% > "
                      f"{args.tolerance * 100:.0f}%)")
                failures += 1
            else:
                print(f"ok   {w['name']}/{setting}: wall_ns "
                      f"{(ratio - 1) * 100:+.1f}%")
            for k in EXACT_KEYS:
                if cs[k] != bs[k]:
                    print(f"FAIL {w['name']}/{setting}: {k} changed "
                          f"{bs[k]} -> {cs[k]} (must be exact)")
                    failures += 1
    for name in base_ws:
        print(f"FAIL {name}: present in baseline, missing from current run")
        failures += 1

    if log_ratios:
        geomean = math.exp(sum(log_ratios) / len(log_ratios))
        if geomean > 1.0 + args.geomean:
            print(f"FAIL geomean wall_ns ratio {geomean:.3f} "
                  f"(> +{args.geomean * 100:.0f}%)")
            failures += 1
        else:
            print(f"ok   geomean wall_ns ratio {geomean:.3f} "
                  f"({(geomean - 1) * 100:+.1f}%)")

    if failures:
        print(f"{failures} check(s) failed")
        sys.exit(1)
    print(f"bench smoke passed ({engine} engine)")


if __name__ == "__main__":
    main()
