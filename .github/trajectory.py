"""Print one metric of every run in a bench record, one "label value" line each.

    python .github/trajectory.py METRIC [PATH]

METRIC is a dotted path into a run, such as digest, cli_pruned.after.cnot or
rows.16.prepare_s, where rows.N picks the row whose n is N. PATH defaults to
BENCH_trajectory.json. A run without the metric prints "-"; a metric that no
run has, or a wrong argument count, exits 2.
"""

import json
import sys


def lookup(node, metric):
    for part in metric.split("."):
        if isinstance(node, list):  # rows.N
            node = next((row for row in node if str(row.get("n")) == part), None)
        else:
            node = node.get(part) if isinstance(node, dict) else None
    return node


if len(sys.argv) not in (2, 3):
    print(__doc__, file=sys.stderr)
    sys.exit(2)
metric, path = sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else "BENCH_trajectory.json"
with open(path) as record:
    runs = json.load(record)["runs"]
values = [lookup(run, metric) for run in runs]
if all(value is None for value in values):
    print(f"unknown metric {metric!r} in {path}", file=sys.stderr)
    sys.exit(2)
for run, value in zip(runs, values):
    print(run.get("label"), "-" if value is None else value if isinstance(value, str) else json.dumps(value))
