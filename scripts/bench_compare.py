#!/usr/bin/env python3
"""Diff committed bench results against a fresh run and gate regressions.

Usage:
    bench_compare.py --committed BENCH_runtime.json --fresh fresh.json \
                     [--fresh more.json ...] [--max-regression 0.30]

The committed file is the checked-in BENCH_runtime.json; each --fresh file is
the --json output of a bench binary from the current build. Only keys present
in BOTH files are compared, with one exception: a GATED_SERIES key that the
committed file carries must appear in at least one --fresh file, so a bench
that silently skips a gated section (e.g. the allocation audit without the
operator-new interposer) fails instead of passing unchecked.

Two classes of series are GATED (the script exits 1 on a breach):

  * host-robust ratios and exact counts (GATED_SERIES below): speedup ratios,
    shedding retention, alloc-per-forward counts, lost-request counts. These
    are dimensionless or exact, so they hold across runner hardware.
  * zero-baseline counts: when the committed value is 0 (e.g. zero allocs per
    forward, zero lost requests), ANY fresh value above 0 fails — an
    invariant, not a tolerance.

Everything else (raw images/s, GFLOPS, latency ms) is host-dependent and is
reported but never gated: CI runners differ too much for absolute thresholds
to be signal rather than noise.
"""

from __future__ import annotations

import argparse
import json
import sys

# name -> direction: "higher" means a drop by more than --max-regression
# fails; "lower" means a rise by more than --max-regression fails.
GATED_SERIES = {
    "lut_cache_speedup": "higher",
    "frontdoor_shed_goodput_retention": "higher",
    "allocs_per_forward_arena_sc_lut": "lower",
    "allocs_per_forward_arena_w2a2_packed": "lower",
    "frontdoor_rolling_lost": "lower",
    "frontdoor_rolling_publish_committed": "higher",
    "frontdoor_drain_clean": "higher",
}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a flat JSON object")
    return data


def numeric(value) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--committed", required=True, help="checked-in BENCH_runtime.json")
    ap.add_argument("--fresh", action="append", required=True,
                    help="fresh --json output (repeatable)")
    ap.add_argument("--max-regression", type=float, default=0.30,
                    help="relative change gated series may move in the bad "
                         "direction (default 0.30)")
    args = ap.parse_args()

    committed = load(args.committed)
    fresh: dict = {}
    for path in args.fresh:
        fresh.update(load(path))

    failures: list[str] = []
    compared = 0
    print(f"{'series':48s} {'committed':>12s} {'fresh':>12s} {'change':>9s}  verdict")
    for key in sorted(set(committed) & set(fresh)):
        old, new = numeric(committed[key]), numeric(fresh[key])
        if old is None or new is None:
            continue
        compared += 1
        direction = GATED_SERIES.get(key)
        change = (new - old) / abs(old) if old != 0 else float("inf") if new != 0 else 0.0
        change_str = f"{change:+8.1%}" if change not in (float("inf"),) else "  +inf"

        verdict = "info"
        if direction is not None:
            verdict = "ok"
            if old == 0:
                # Zero baseline is an invariant: any nonzero fresh value in
                # the bad direction fails regardless of tolerance.
                bad = new > 0 if direction == "lower" else new < 0
                if bad:
                    verdict = "FAIL"
            else:
                bad_change = -change if direction == "higher" else change
                if bad_change > args.max_regression:
                    verdict = "FAIL"
            if verdict == "FAIL":
                failures.append(
                    f"{key}: committed {old:g} -> fresh {new:g} "
                    f"(gated '{direction}', tolerance {args.max_regression:.0%})")
        print(f"{key:48s} {old:12g} {new:12g} {change_str:>9s}  {verdict}")

    for key in sorted(k for k in GATED_SERIES if k in committed and k not in fresh):
        print(f"{key:48s} {committed[key]!s:>12s} {'-':>12s} {'':>9s}  MISSING")
        failures.append(f"{key}: gated series missing from every --fresh file")

    print(f"\n{compared} series compared, {len(GATED_SERIES)} gate definitions, "
          f"{len(failures)} failure(s)")
    if compared == 0:
        print("error: no overlapping numeric series between committed and fresh files",
              file=sys.stderr)
        return 1
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
