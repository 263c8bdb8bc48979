"""Host-time benchmark of the dlpc stack.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, times in host
time gauged against a fixed reference computation (see ``reference.py``);
``--trace 1`` gives the per-layer metrics
from a traced run.  Either way the run keeps itself on one CPU (see
``harness.pin_to_one_cpu``).  Each metric is printed by name with its unit,
then the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details (set-up
samples, wall-clock figures, host slowness per call, tail sample counts,
failures, load average, library versions) and the traced run's spans go to
``.perfbench-out/``.

Exit codes: 0 when a result was printed, 2 when the checkout holds no
``src/dlpc`` to measure, 1 when no driver call completed.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not checkout.use_checkout_sources():
        print(f"perfbench: no dlpc sources under {checkout.SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    harness.pin_to_one_cpu()
    run = harness.traced_run if args.trace else harness.timed_run
    try:
        result, details = run(workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    harness.OUT_DIR.mkdir(exist_ok=True)
    report = harness.OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"result": result, **details}, indent=1))
    print(f"{workload.name} seed={args.seed} trace={args.trace} calls={details['calls']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(
        f"  {'fail_frac':<28} {details['fail_frac']:.6g} frac "
        f"({result['failed']}/{result['attempted']} iterations)"
    )
    if "tail" in details:
        t = details["tail"]
        print(
            f"  iter_tail_us is p{t['percentile']:.4g} of each call's {t['intervals_per_call']} "
            f"intervals ({t['beyond_per_call']} beyond), median over {t['calls']} calls"
        )
        raw = ", ".join(f"{k} {v:.6g}" for k, v in details["raw"].items())
        slowness = sorted(details["slowness"])
        print(
            f"  host time is wall time / host slowness (median {slowness[len(slowness) // 2]:.3f}, "
            f"range {slowness[0]:.3f}-{slowness[-1]:.3f}); in wall time: {raw}"
        )
    for failure in details["failures"]:
        print(f"  FAILED: {failure}")
    n = details["noise"]
    print(
        f"  python {n['python']} numpy {n['numpy']} scipy {n['scipy']} nproc {n['nproc']} "
        f"cpus {n['cpus']} load {n['loadavg']} -> {n['loadavg_after']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
