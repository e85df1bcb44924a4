"""Set-up probe: one fresh process that imports and warms up a workload.

    python3 perfbench/probe.py <workload> <seed>

Prints ``ready`` when set-up is done; run.py times process start to that
line.  Then it prints the fastest of three runs of the host-speed loop,
which run.py uses to scale that time to reference host speed.
"""

import sys

from run import host_loop_s, load_workload

if __name__ == "__main__":
    load_workload(sys.argv[1], int(sys.argv[2])).setup()
    print("ready", flush=True)
    print(min(host_loop_s() for _ in range(3)), flush=True)
