"""Time the set-up every tabsynth command pays, in a fresh interpreter.

    python3 setup_probe.py <src-dir> <table.csv>

Prints the seconds from before ``import tabsynth`` to the end of loading the
CSV (with schema inference) and encoding it.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tabsynth  # noqa: E402

tabsynth.encode(tabsynth.load_table(sys.argv[2]))
print(repr(time.perf_counter() - start))
