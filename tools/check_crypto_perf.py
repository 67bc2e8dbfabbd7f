#!/usr/bin/env python3
"""CI gate for the crypto microbenchmarks.

Reads the metrics.json written by bench_micro_crypto and the checked-in
thresholds (bench/crypto_perf_thresholds.json), and fails when the
accelerated path's speedup over the portable path drops below the
required ratio for any primitive. Ratios, not absolute speeds, so the
gate holds on any runner. A pair whose accelerated path needs an ISA
extension the runner lacks (its `crypto.impl.*` gauge reads 0) is
skipped with the reason printed: both sides ran the portable code.

Usage: check_crypto_perf.py <metrics.json> <thresholds.json>
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        gauges = json.load(f).get("gauges", {})
    with open(sys.argv[2]) as f:
        thresholds = json.load(f)

    failures = []
    for pair, bound in sorted(thresholds["min_speedup_milli"].items()):
        needed = [gauge for prefix, gauge in thresholds["requires"].items()
                  if pair.startswith(prefix)]
        missing_isa = [gauge for gauge in needed if gauges.get(gauge) != 1]
        if missing_isa:
            print(f"SKIP: {pair}: this CPU lacks the ISA "
                  f"({', '.join(missing_isa)} != 1); both sides ran the "
                  "portable code")
            continue
        speedup = gauges.get(f"crypto.bench.{pair}.speedup_milli")
        if speedup is None:
            failures.append(f"{pair}: metrics.json has no speedup gauge "
                            "(bench_micro_crypto did not run the pair?)")
            continue
        portable = gauges.get(f"crypto.bench.{pair}.portable_ns", 0)
        accelerated = gauges.get(f"crypto.bench.{pair}.accelerated_ns", 0)
        print(f"{pair:14s} portable {portable:>10,} ns  accelerated "
              f"{accelerated:>8,} ns  speedup {speedup / 1000:7.2f}x "
              f"(min {bound / 1000:.2f}x)")
        if speedup < bound:
            failures.append(f"{pair}: accelerated/portable speedup "
                            f"{speedup / 1000:.2f}x below required "
                            f"{bound / 1000:.2f}x")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: crypto fast paths within thresholds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
