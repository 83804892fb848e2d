#!/usr/bin/env python3
"""Convert `go test -bench` output into a JSON benchmark summary.

Usage: benchjson.py bench.txt > BENCH_ci.json

Each benchmark line becomes one record with its name, iteration count,
ns/op, and every custom metric go's harness printed (e.g. the simulated
cycle counts and speed-ups b.ReportMetric emits). Lines that are not
benchmark results are ignored, so the raw `go test` stream can be piped
straight through `tee`.

`go test` appends "-<GOMAXPROCS>" to every name when GOMAXPROCS is above
one; the record's name drops it, so names match a baseline taken on any
number of CPUs. No benchmark's own name ends in "-<digits>".
"""

import json
import re
import sys

# e.g. "BenchmarkFigure5-8   1   123456 ns/op   2.68 MOM-vs-Alpha-4way"
LINE = re.compile(r"^(Benchmark\S+)\s+(\d+)\s+(.*)$")
METRIC = re.compile(r"([0-9.eE+-]+)\s+(\S+)")
PROCS = re.compile(r"-\d+$")


def parse(stream):
    out = []
    for line in stream:
        m = LINE.match(line.strip())
        if not m:
            continue
        name, iters, rest = PROCS.sub("", m.group(1)), int(m.group(2)), m.group(3)
        rec = {"name": name, "iterations": iters, "metrics": {}}
        for value, unit in METRIC.findall(rest):
            try:
                v = float(value)
            except ValueError:
                continue
            if unit == "ns/op":
                rec["ns_per_op"] = v
            else:
                rec["metrics"][unit] = v
        out.append(rec)
    return out


def main():
    if len(sys.argv) > 1:
        with open(sys.argv[1]) as f:
            results = parse(f)
    else:
        results = parse(sys.stdin)
    json.dump({"benchmarks": results}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
