"""One-off size sweep of the construct-mine workload (not a gated run).

    python3 perfbench/sweep.py --seed 1

Generates construct-mine inputs at each pool size of gen.SWEEP_VIDEOS,
times `capedit construct` on them (median of gen.SWEEP_CALLS untraced
calls, outputs checked), and fits the growth exponent b of wall time ~
videos^b by least squares on the log-log points.  b close to 1 means
construction time grows close to linearly with the pool size; the
all-pairs similarity join pushes it towards 2.  One more, traced, call
per size gives build_del_length's share of the call's self time, so
that the exponent can be read against the share of the join that
drives it.  The result goes to .perfbench_work/sweep-construct-mine.json
and to the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

from run import SRC, WORK, environment

import gen
from tracer import Tracer

JOIN = "construction.build_del_length"


def fit_exponent(sizes: list[int], seconds: list[float]) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def join_share(op, tracer: Tracer) -> tuple[float, list[str]]:
    """build_del_length's share of one traced call's self time."""
    import workloads

    workloads.remove_outputs(op)
    tracer.install()
    tracer.begin_run()
    try:
        code, err = workloads.call_cli(op.argv())
    finally:
        tracer.end_run()
        tracer.remove()
    layers = tracer.layers(tracer.run_id)
    total = sum(agg["self_ns"] for agg in layers.values())
    problems = [f"traced call: exit {code}: {err}"] if code != 0 else []
    return layers.get(JOIN, {}).get("self_ns", 0) / total, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "capedit", "cli.py")):
        print(f"error: no capedit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    tracer = Tracer()
    points = []
    for videos in gen.SWEEP_VIDEOS:
        work = os.path.join(WORK, "sweep", f"videos-{videos}")
        manifest = gen.generate_construct("construct-mine", args.seed, work, videos=videos)
        op = workloads.Construct(work, work, manifest, args.seed)
        durations, problems = [], []
        for _ in range(gen.SWEEP_CALLS):
            workloads.remove_outputs(op)
            t0 = time.perf_counter()
            code, err = workloads.call_cli(op.argv())
            durations.append(time.perf_counter() - t0)
            if code != 0:
                problems.append(f"exit {code}: {err}")
        if not problems:
            problems = op.check()
        share, traced_problems = join_share(op, tracer)
        problems += traced_problems
        wall = statistics.median(durations)
        point = {
            "videos": videos,
            "items": op.items,
            "wall_s": wall,
            "items_per_s": op.items / wall,
            "join_share": share,
            "calls": durations,
            "problems": problems,
        }
        points.append(point)
        print(f"videos {videos}: {op.items} captions, {wall:.3f} s, "
              f"{op.items / wall:.1f} items/s, build_del_length {share:.1%} of self time, "
              f"{'ok' if not problems else problems}")
    exponent = fit_exponent([p["videos"] for p in points], [p["wall_s"] for p in points])
    print(f"growth exponent {exponent:.3f} (wall time ~ videos^b)")
    result = {
        "environment": environment("construct-mine", args.seed),
        "points": points,
        "growth_exponent": exponent,
        "wrapper_ns_per_call": tracer.cost_ns,
    }
    with open(os.path.join(WORK, "sweep-construct-mine.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"growth_exponent": exponent, "points": [
        {k: p[k] for k in ("videos", "wall_s", "items_per_s", "join_share")} for p in points
    ]}))
    return 0 if all(not p["problems"] for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
