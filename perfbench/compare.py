#!/usr/bin/env python3
"""Compares two benchmark results written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json NEW.json

The files are the records run.py writes to .bench_build/results/. Two
results are comparable only when they were recorded under the same host
facts — core count, CPU model, compiler and version, build type, and the
hash of the absolute source path of the checkout that was built — and for
the same workload and trace mode. Otherwise the comparison is refused with
exit code 2 and the differing facts are named. A comparable pair prints
every metric of both results with the relative change.
"""

import json
import sys

FACT_KEYS = ("cores", "cpu_model", "compiler", "build_type",
             "source_path_hash")


def refusal_reasons(base, new):
    """Returns why `base` and `new` must not be compared; empty if they may."""
    reasons = []
    for key in ("workload", "trace"):
        if base.get(key) != new.get(key):
            reasons.append("%s differs: %r vs %r"
                           % (key, base.get(key), new.get(key)))
    base_facts = base.get("facts", {})
    new_facts = new.get("facts", {})
    for key in FACT_KEYS:
        if key not in base_facts or key not in new_facts:
            reasons.append("host fact %s is missing" % key)
        elif base_facts[key] != new_facts[key]:
            reasons.append("host fact %s differs: %r vs %r"
                           % (key, base_facts[key], new_facts[key]))
    return reasons


def comparison_lines(base, new):
    lines = []
    for name, metric in sorted(base["metrics"].items()):
        other = new["metrics"].get(name)
        if other is None:
            lines.append("%-36s %14.6g %14s %s"
                         % (name, metric["value"], "-", metric["unit"]))
            continue
        change = ""
        if metric["value"]:
            change = "%+.2f%%" % (100.0 * (other["value"] - metric["value"])
                                  / abs(metric["value"]))
        lines.append("%-36s %14.6g %14.6g %-8s %s"
                     % (name, metric["value"], other["value"],
                        metric["unit"], change))
    return lines


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    reasons = refusal_reasons(base, new)
    if reasons:
        print("refused: the results are not comparable", file=sys.stderr)
        for reason in reasons:
            print("  " + reason, file=sys.stderr)
        return 2
    for line in comparison_lines(base, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
