"""Run a command; print its wall seconds and peak RSS for the log.

The figures are printed, not gated: the exit status is the command's.
Peak RSS is ``ru_maxrss`` over the waited-for descendants, i.e. the
largest single process of the run (a worker pool's workers included).

Run from the repository root: ``python .github/scripts/timed.py
CMD [ARG ...]``.
"""

import resource
import subprocess
import sys
import time

t0 = time.perf_counter()
status = subprocess.run(sys.argv[1:]).returncode
took = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"wall {took:.1f} s, peak RSS {peak_kb / 1024:.0f} MiB "
      f"(exit {status}): {' '.join(sys.argv[1:])}")
sys.exit(status)
