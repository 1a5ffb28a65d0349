"""Set-up probe: import frontlab, build one workload's inputs, say "ready".

`run.py` starts this script in a fresh interpreter and times it from the
start of the process until the "ready" line arrives, which is the
workload's set-up time.  Usage: setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys

from run import prepare_environment

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    prepare_environment()
    import workloads

    workloads.WORKLOADS[workload](seed, workdir)
    print("ready", flush=True)
