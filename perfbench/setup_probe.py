"""Set-up time of one fresh process: import bilevelkit, then load every problem once.

Usage: python3 setup_probe.py SRC_DIR (fixture:NAME | PROBLEM_FILE)...
Prints the seconds from before `import bilevelkit` until the last
`load_problem` returns.  Nothing is imported before the clock starts.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from bilevelkit.problem import FIXTURE_SOURCES, load_problem  # noqa: E402

for item in sys.argv[2:]:
    if item.startswith("fixture:"):
        load_problem(FIXTURE_SOURCES[item[len("fixture:"):]])
    else:
        with open(item) as handle:
            load_problem(handle.read())
print(repr(time.perf_counter() - start))
