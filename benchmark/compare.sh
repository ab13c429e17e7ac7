#!/usr/bin/env bash
# compare.sh A.jsonl B.jsonl — one row per workload × end-to-end metric.
#
# A and B are sets of runs written with `--out` (one full-report line
# per run, any number of runs per workload, untraced). For each pairing
# it prints both medians, by how much B is worse than A, the wider of
# the two sets' run-to-run spreads (IQR ÷ median, as the driver takes
# it), and a verdict against the metric's bound:
#   within bound — B's median is no worse than A's by more than the bound
#   unresolved   — the spread is wider than the bound: not "unchanged"
#   regressed    — B is worse by more than the bound, and the spread is not
# Exits 1 if any row regressed.
set -euo pipefail
if [ "$#" -ne 2 ]; then
  echo "usage: $0 A.jsonl B.jsonl" >&2
  exit 2
fi
exec python3 - "$1" "$2" <<'PY'
import json, statistics, sys

def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if not r.get("measured") or "end_to_end" not in r:
                continue
            for name, m in r["end_to_end"].items():
                runs.setdefault((r["workload"], name), []).append(m)
    return runs

def spread(values):
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None

a, b = load(sys.argv[1]), load(sys.argv[2])
regressed = False
print(f"{'workload':<12} {'metric':<24} {'A':>12} {'B':>12} {'worse':>8} {'spread':>8} {'bound':>6}  verdict")
for key in sorted(a.keys() & b.keys()):
    va = [m["value"] for m in a[key]]
    vb = [m["value"] for m in b[key]]
    bound, better = a[key][0]["bound"], a[key][0]["better"]
    ma, mb = statistics.median(va), statistics.median(vb)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    spreads = [s for s in (spread(va), spread(vb)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict, regressed = "regressed", True
    else:
        verdict = "within bound"
    shown = f"{widest:8.1%}" if widest is not None else f"{'n/a':>8}"
    print(f"{key[0]:<12} {key[1]:<24} {ma:12.4f} {mb:12.4f} {worse:8.1%} {shown} {bound:6.0%}  {verdict}")
for key in sorted(a.keys() ^ b.keys()):
    print(f"{key[0]:<12} {key[1]:<24} only in {'A' if key in a else 'B'}")
sys.exit(1 if regressed else 0)
PY
