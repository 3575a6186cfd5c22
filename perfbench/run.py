"""Run one benchmark workload of spanattn in this process and print its result.

    python3 perfbench/run.py --workload adapt-se-2k --seed 0 --seconds 36 --trace 0

BLAS and OpenMP are pinned to one thread before numpy is imported, and the
run fails if the pin did not take. The last line of stdout is the result,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``setup_s`` and ``tokens_per_s`` are wall-clock figures scaled to the
host's full speed by the probe of spanbench/hostspeed.py.
The line before it is the environment. A fuller record, and the spans of a
traced run, go to perfbench/out/.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, plus the interpreter's own start

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spanattn").is_dir():
        print(f"error: the spanattn sources are not at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from spanbench import env

    env.pin_threads()
    started = STARTED - max(0.0, env.seconds_since_process_start() - (time.perf_counter() - STARTED))
    blas_path, threads = env.require_pin()

    from spanbench import hostspeed, metrics, workloads
    from spanbench.tracer import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    outcome = workloads.run(workload, args.seed, args.seconds, started, out_dir, tracer)

    wall_tokens_per_s = sum(outcome.op_tokens) / sum(outcome.op_seconds) if outcome.op_seconds else 0.0
    slowdown = hostspeed.slowdown(outcome.probe_seconds)
    tokens_per_s = wall_tokens_per_s * slowdown
    setup_s = outcome.setup_s / hostspeed.slowdown(outcome.probe_seconds[: hostspeed.SETUP_PROBES])
    if tracer:
        emitted = tracer.counters["emitted_tokens"]
        values = metrics.per_layer(tracer, len(outcome.op_seconds), emitted, outcome.detail.pop("isolated"), tokens_per_s)
    else:
        values = {"setup_s": setup_s, "tokens_per_s": tokens_per_s, "peak_rss_mb": outcome.peak_rss_mb}
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()},
    }
    environment = env.environment(workload.name, args.seed, blas_path, threads)
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    record = {
        "result": result,
        "environment": environment,
        "seconds": args.seconds,
        "op_seconds": outcome.op_seconds,
        "op_tokens": outcome.op_tokens,
        "wall_setup_s": outcome.setup_s,
        "wall_tokens_per_s": wall_tokens_per_s,
        "host_slowdown": slowdown,
        "probe_seconds": outcome.probe_seconds,
        "failures": outcome.failures,
        **outcome.detail,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
