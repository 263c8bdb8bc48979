"""Set-up probe: import the stack, prepare one workload, print ``ready``.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  The harness
starts it in a fresh interpreter and times it from process start to that
line, which is the set-up a user of the workload pays once per process.
"""

import sys

import checkout

if __name__ == "__main__":
    if not checkout.use_checkout_sources():
        sys.exit(2)
    import workloads

    workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
    print("ready", flush=True)
