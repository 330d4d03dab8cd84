"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing pipeopt, generating the workload's instances and
round-tripping them through serialize, as `run.py` does before measuring.
"""

import sys
import time

start = time.perf_counter()
import jobs  # noqa: E402  (imports pipeopt)

jobs.load_reference()
jobs.make_jobs(jobs.draw(sys.argv[1], int(sys.argv[2])))
print(time.perf_counter() - start)
