"""End-to-end benchmark of capedit's two user workloads, evaluate and
construct, with per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload evaluate-en --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds src/capedit.  The benchmark:

1. sets up: a fresh interpreter imports capedit and writes the
   workload's seeded inputs (perfbench/gen.py), SETUP_REPEATS times;
   setup_s is the median.  The program sees only the generated files.
2. calls capedit.cli.main(argv) on them, one call at a time from this
   one thread, until --seconds have passed (at least MIN_CALLS calls),
   and checks every call's output;
3. prints one line per metric, then one JSON object as the last line.

With --trace 0 it reports the end-to-end metrics, measured untraced:
items_per_s (input items per second of the whole CLI call; an item is
an evaluation unit or an input caption), setup_s and peak_rss_mb.  With
--trace 1 it alternates untraced and traced calls and reports the
per-layer metrics of the traced ones (self time, calls and work counts
per layer; see tracer.py) and trace.overhead_ratio.

Inputs, outputs, span files and full results go to .perfbench_work/
under the checkout root.  The construct workloads also run the
stacked-adjective probe, a fixed input that exposes a known
construction defect; its outcome is printed and counted in the
per-layer metric probe.stacked_adjective.failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# the benchmark's directory holds the benchmark's sources and nothing else
sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import workloads  # noqa: E402
from gen import ROOT, SRC  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9
MIN_CALLS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120

WORKLOADS = ("evaluate-en", "evaluate-zh", "construct-mine", "construct-balance")

# Per-layer metrics reported by a traced run, "<layer>.<function>.<field>",
# with their units, as BENCHMARK.json lists them.  Fields: calls, self_s,
# cells (sum of n*m over kernel calls), ns_per_cell (self time per cell),
# records / samples_in / samples_out (work counts at the layer boundary),
# calls_per_unit (base: evaluation units) and calls_per_sample (base:
# filter_and_balance samples_in).
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest() -> str:
    """SHA-256 over the package's Python sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "capedit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    from capedit import kernels

    return {
        "workload": workload,
        "seed": seed,
        "backend": kernels.backend(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def set_up(workload: str, seed: int, inputs: str) -> tuple[list[float], list[str]]:
    """Run the set-up SETUP_REPEATS times in fresh interpreters; returns
    the wall times and problems (failed set-ups, differing inputs)."""
    times, digests, problems = [], set(), []
    for _ in range(SETUP_REPEATS):
        # each set-up writes new files, as in a fresh checkout: truncating
        # existing ones makes ext4 flush them on close (~0.35 s, noisy)
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", inputs],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            problems.append(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        digests.add(json.loads(proc.stdout.strip().splitlines()[-1])["inputs_sha256"])
    if len(digests) > 1:
        problems.append("set-up wrote different inputs for the same seed")
    return times, problems


class DigestLog:
    """Output digests per (workload, seed, source digest, input digest),
    kept across runs in the work directory: every call and every run of
    the same code on the same inputs must produce the same output bytes."""

    def __init__(self, path: str, key: str):
        self.path, self.key = path, key
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, digest: str) -> list[str]:
        expected = self.known.setdefault(self.key, digest)
        if digest != expected:
            return [f"output digest {digest[:12]} differs from {expected[:12]} of an earlier call"]
        return []

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)


class Runner:
    """Calls the workload's operation and counts attempts and failures."""

    def __init__(self, op, digests: DigestLog):
        self.op, self.digests = op, digests
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.checked = False

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def call(self, tracer: Tracer | None = None) -> float:
        workloads.remove_outputs(self.op)
        self.attempted += 1
        if tracer is not None:
            tracer.install()
            tracer.begin_run()
        t0 = time.perf_counter()
        try:
            code, err = workloads.call_cli(self.op.argv())
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_run()
                tracer.remove()
        if code != 0:
            self.fail([f"exit {code}: {err}"])
            return elapsed
        try:
            problems = self.digests.check(self.op.digest())
            if not self.checked:
                # the full check once per run; the digest ties every other
                # call (and every run of this seed) to the checked output
                problems += self.op.check()
                self.checked = True
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(problems)
        return elapsed


def measure(runner: Runner, seconds: float, tracer: Tracer | None) -> tuple[list, list]:
    """Call durations, untraced and traced.  Each round is one untraced
    call, plus one traced call when tracing; rounds go on while the next
    one is expected to end within `seconds`, and at least a minimum
    number of rounds run."""
    untraced: list[float] = []
    traced: list[float] = []
    minimum = MIN_TRACED_PAIRS if tracer else MIN_CALLS
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(runner.call())
        if tracer is not None:
            traced.append(runner.call(tracer))
        now = time.perf_counter()
        if len(untraced) >= minimum and now - started + (now - round_start) > seconds:
            return untraced, traced


def layer_metrics(layers: dict, items: int) -> dict[str, float]:
    out = {}
    balance_in = layers.get("construction.filter_and_balance", {}).get("samples_in", 0)
    for name in PER_LAYER:
        fn, field = name.rsplit(".", 1)
        agg = layers.get(fn, {})
        if field == "self_s":
            value = agg.get("self_ns", 0) / 1e9
        elif field == "ns_per_cell":
            value = agg["self_ns"] / agg["cells"] if agg.get("cells") else 0.0
        elif field == "calls_per_unit":
            value = agg.get("calls", 0) / items
        elif field == "calls_per_sample":
            value = agg.get("calls", 0) / balance_in if balance_in else 0.0
        elif name.startswith(("trace.", "probe.")):
            continue
        else:
            value = agg.get(field, 0)
        out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "capedit", "cli.py")):
        print(f"error: no capedit sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    inputs, outputs = os.path.join(work, "inputs"), os.path.join(work, "outputs")
    os.makedirs(outputs, exist_ok=True)

    setup_times, setup_problems = set_up(args.workload, args.seed, inputs)
    if setup_problems:
        print("error: " + "; ".join(setup_problems), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import capedit

    if not os.path.abspath(capedit.__file__).startswith(os.path.join(SRC, "capedit")):
        print(f"error: imported capedit from {capedit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import capedit.cli  # noqa: F401

    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    kind = workloads.Evaluate if args.workload.startswith("evaluate") else workloads.Construct
    op = kind(inputs, outputs, manifest, args.seed)
    env = environment(args.workload, args.seed)
    # the same code on the same inputs must write the same bytes; a change
    # to either starts a new entry
    key = ":".join((args.workload, str(args.seed), env["src_sha256"], manifest["inputs_sha256"]))
    digests = DigestLog(os.path.join(WORK, "digests.json"), key)
    runner = Runner(op, digests)
    print("env " + json.dumps(env, sort_keys=True))

    if isinstance(op, workloads.Evaluate):
        runner.attempted += 1
        problems = op.check_identity()
        if problems:
            runner.fail(problems)

    probe_problems = None
    if isinstance(op, workloads.Construct):
        probe_dir = os.path.join(WORK, "probe")
        gen.write_probe(probe_dir)
        probe_problems = workloads.StackedAdjectiveProbe(probe_dir, outputs).run()
        verdict = "FAILED (" + "; ".join(probe_problems) + ")" if probe_problems else "passed"
        print(f"probe stacked_adjective: {verdict}")

    tracer = Tracer() if args.trace else None
    untraced, traced = measure(runner, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests.save()

    items = op.items
    ips = [items / d for d in untraced]
    q1, ips_median, q3 = quartiles(ips)
    setup_q = quartiles(setup_times)
    print(f"items {items} per call ({'evaluation units' if kind is workloads.Evaluate else 'input captions'})")
    print(f"items_per_s {ips_median:.4f} 1/s (untraced; median of {len(ips)} calls, q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"setup_s {setup_q[1]:.4f} s (median of {len(setup_times)} set-ups, q1 {setup_q[0]:.4f}, q3 {setup_q[2]:.4f})")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"fail_ratio {runner.failed / runner.attempted:.4f} ratio ({runner.failed} failed of {runner.attempted} operations)")
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}")

    result = {"environment": env, "untraced_call_s": untraced, "setup_s": setup_times,
              "problems": runner.problems, "probe": probe_problems}
    if tracer is None:
        metrics = {
            "items_per_s": {"value": ips_median, "unit": "1/s"},
            "setup_s": {"value": setup_q[1], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        per_run = [
            layer_metrics(tracer.layers(run_id), items) for run_id in range(len(traced))
        ]
        values = {
            name: statistics.median(m[name] for m in per_run) for name in per_run[0]
        }
        traced_ips = statistics.median(items / d for d in traced)
        values["trace.overhead_ratio"] = (ips_median - traced_ips) / ips_median
        values["probe.stacked_adjective.failed"] = int(bool(probe_problems))
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()
        }
        for name, unit in PER_LAYER.items():
            print(f"{name} {values[name]:.6g} {unit}")
        print(f"traced: median of {len(traced)} calls; spans in {os.path.join(work, 'spans.tsv')}")
        outer, inner = (statistics.median(c) for c in zip(*tracer.cost_ns))
        print(f"wrapper cost per call (median over traced calls): {outer:.1f} ns taken out "
              f"of the caller's self_s, {inner:.1f} ns out of the span's own")
        tracer.write(os.path.join(work, "spans.tsv"))
        result["traced_call_s"] = traced
        result["wrapper_ns_per_call"] = tracer.cost_ns
    result["metrics"] = metrics
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
