"""Echo standard input and bound the "max amplitude error" lines in it.

    ucrsynth verify c.json a.json b.json | python .github/errors_at_most.py COUNT BOUND

Exits 1 unless exactly COUNT such lines appear and each error is at most BOUND.
"""

import re
import sys

text = sys.stdin.read()
print(text, end="")
errors = [float(e) for e in re.findall(r"^max amplitude error (\S+)$", text, re.M)]
count, bound = int(sys.argv[1]), float(sys.argv[2])
sys.exit(0 if len(errors) == count and all(e <= bound for e in errors) else 1)
