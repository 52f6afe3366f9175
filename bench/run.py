"""hrpairs benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]
                         [--runs R] [--record FILE]
    python3 bench/run.py --smoke

Run it from the root of a source checkout; the program is imported from
``src``.  One run sets the workload up, measures whole cycles of its
operation mix for about S seconds, and checks every operation against its
predicted outcome.  The last line of standard output is one JSON object:
with ``--trace 0`` it holds every end-to-end metric of BENCHMARK.json, with
``--trace 1`` every per-layer metric, from a run with timing wrappers around
the program's public functions.  The exit code is 0 only when every
operation gave its predicted result.  ``--workload all`` runs each workload
R times, each run in its own process, and prints the median and spread of
every metric; ``--smoke`` is the harness's self-check at a tiny size.
"""

import argparse
import bisect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import slowness, spin, spin_in_child

# one BLAS/OpenMP thread, in this process and in every process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

# end-to-end times are scaled to a reference speed (speed.py); the raw
# times are on the `# extra` line
SPIN_EVERY_S = 0.1

# per-layer metrics that are exact counts and must repeat for the same seed
EXACT_SUFFIXES = (".calls", ".setup_calls", ".term_pairs", ".pairs_visited",
                  ".pairs_nonzero", ".nonzero_ratio", ".n_max")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind):
    """{metric name: unit} of one metric list in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def workload_names():
    return [w["name"] for w in spec()["workloads"]]


# -- measuring ---------------------------------------------------------------


def mix_rate(latencies):
    """Throughput of the fixed mix, from the median time of each slot."""
    return len(latencies) / sum(map(statistics.median, latencies))


def timings(latencies):
    """ops_per_s, op_p50_ms and op_p90_ms of per-slot latencies; the 90th
    percentile only where ten samples lie beyond it."""
    samples = sorted(t for slot in latencies for t in slot)
    return {
        "ops_per_s": mix_rate(latencies),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_p90_ms": (1e3 * statistics.quantiles(samples, n=10)[8]
                      if len(samples) >= 100 else None),
    }


class Phase:
    """Latencies (seconds) and end times per cycle slot, the failures, and
    `spin()` times, of whole cycles."""

    def __init__(self, workload):
        self.latencies = [[] for _ in workload.slots]
        self.ended = [[] for _ in workload.slots]
        self.failures = []
        self.checked = 0
        self.cycles = 0
        self.spins = []
        self.spun_at = []
        self._spin = spin_in_child if workload.in_children else lambda: [spin()]

    def record(self, slot, seconds):
        self.latencies[slot].append(seconds)
        self.ended[slot].append(time.perf_counter())

    def sample_speed(self):
        """Time `spin()` between operations, at most every SPIN_EVERY_S."""
        if not self.spun_at or time.perf_counter() - self.spun_at[-1] >= SPIN_EVERY_S:
            spins = self._spin()
            self.spins.extend(spins)
            self.spun_at.extend([time.perf_counter()] * len(spins))

    @property
    def attempted(self):
        return sum(map(len, self.latencies))

    def scaled(self):
        """Latencies at the reference speed: each divided by the slowness
        of the six spins taken nearest to its end, three before, three after."""
        def near(t):
            i = bisect.bisect(self.spun_at, t)
            return self.spins[max(0, i - 3):i + 3]

        return [[seconds / slowness(near(t)) for seconds, t in zip(lat, end)]
                for lat, end in zip(self.latencies, self.ended)]


def run_cycle(workload, state, seed, cycle, phase, tracer=None):
    """One cycle of the workload's slots, each operation timed and checked."""
    for s, (kind, prepare) in enumerate(workload.slots):
        op_id = cycle * len(workload.slots) + s
        op, check = prepare(state, random.Random(f"{workload.name}:{seed}:{cycle}:{s}"))
        if tracer:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            result, error = op(), None
        except Exception:  # counted as a failed operation; the loop goes on
            result, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        if error is None:
            error = check(result)
            phase.checked += 1
        phase.record(s, elapsed)
        if error:
            phase.failures.append(f"op {op_id} ({kind}): {error}")
        phase.sample_speed()
    phase.cycles += 1


def timed_setup(kind, workload):
    """Seconds this process spends on `kind` ("import": importing the CLI;
    "setup": the workload's set-up, imports included), `spin()` times taken
    just before and just after, and the set-up's state: (seconds, spins, state)."""
    spins = [spin() for _ in range(8)]
    start = time.perf_counter()
    if kind == "import":
        import hrpairs.cli  # noqa: F401

        state = None
    else:
        import workloads

        state = workloads.WORKLOADS[workload].setup()
    seconds = time.perf_counter() - start
    return seconds, spins + [spin() for _ in range(8)], state


def probe(kind, workload):
    """`timed_setup` in a fresh interpreter: (seconds, spins)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", kind, "--workload", workload]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    seconds, *spins = map(float, proc.stdout.split())
    return seconds, spins


def median_setup(timings):
    """Median over (seconds, spins) pairs of seconds at the reference speed."""
    return statistics.median(seconds / slowness(spins) for seconds, spins in timings)


def peak_rss_mb():
    """Largest resident set of this process or of any process it waited for."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_pinning": "not used",
        "page_cache": "not dropped",
    }


def measure(name, seed, seconds, probes):
    """End-to-end metrics of one untraced run."""
    own_s, own_spins, state = timed_setup("setup", name)
    setups = [(own_s, own_spins)] + [probe("setup", name) for _ in range(probes)]
    import workloads

    workload = workloads.WORKLOADS[name]
    phase = Phase(workload)
    start = time.perf_counter()
    while phase.cycles == 0 or time.perf_counter() - start < seconds:
        run_cycle(workload, state, seed, phase.cycles, phase)
    scaled = timings(phase.scaled())
    values = {
        "ops_per_s": scaled["ops_per_s"],
        "op_p50_ms": scaled["op_p50_ms"],
        "setup_s": median_setup(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "samples": phase.attempted,
        "cycles": phase.cycles,
        "op_p90_ms": scaled["op_p90_ms"],
        "failed_ratio": len(phase.failures) / phase.attempted,
        "slowness": slowness(phase.spins),
        "spins": len(phase.spins),
        "raw": dict(timings(phase.latencies),
                    setup_s=statistics.median(t for t, _ in setups),
                    setup_runs_s=[t for t, _ in setups]),
    }
    return [phase], values, extra


def measure_traced(name, seed, seconds, probes):
    """Per-layer metrics: set-up and cycles with the timing wrappers on.

    Every cycle runs twice on the same inputs, once traced and once not, in
    alternating order, so the two throughputs give the tracing overhead.
    """
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    tracer.recording = True
    try:
        state = workload.setup()
    finally:
        tracer.recording = False
        restore()
    OUT.mkdir(exist_ok=True)
    child_spans = OUT / f"child-{name}-seed{seed}.json"
    state.update(tracer=tracer, child_spans=child_spans)
    imports = median_setup(probe("import", name) for _ in range(probes))
    plain, traced = Phase(workload), Phase(workload)

    def run_traced(cycle):
        restore = spans.install(tracer)
        state["traced"] = True
        try:
            run_cycle(workload, state, seed, cycle, traced, tracer)
        finally:
            state["traced"] = False
            restore()

    start = time.perf_counter()
    while traced.cycles == 0 or time.perf_counter() - start < seconds:
        cycle = traced.cycles
        if cycle % 2:
            run_traced(cycle)
        run_cycle(workload, state, seed, cycle, plain)
        if not cycle % 2:
            run_traced(cycle)
    child_spans.unlink(missing_ok=True)
    values = tracer.layer_table(len(workload.slots))
    values["cli.import_s"] = imports
    values["trace.ops_per_s"] = mix_rate(traced.latencies)
    values["trace.untraced_ops_per_s"] = mix_rate(plain.latencies)
    values["trace.overhead_ratio"] = (1 - values["trace.ops_per_s"]
                                      / values["trace.untraced_ops_per_s"])
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    extra = {"cycles": traced.cycles, "spans": len(tracer.start),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return [plain, traced], values, extra


def run_one(args):
    units = declared("per_layer" if args.trace else "end_to_end")
    how = measure_traced if args.trace else measure
    phases, values, extra = how(args.workload, args.seed, args.seconds, args.probes)
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    extra.update(workload=args.workload, seed=args.seed, attempted=attempted,
                 checked=sum(p.checked for p in phases), machine=machine())
    for metric, unit in units.items():
        print(f"{metric:<42} {values[metric]:>14.6g} {unit}")
    print("# extra " + json.dumps(extra))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0 if not failures else 1


# -- several runs ------------------------------------------------------------


def child_run(name, seed, seconds, trace, probes):
    """One run in its own process: (exit code, result, extra)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--probes", str(probes)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("# extra "):
        raise RuntimeError(f"{name}: no result (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2][len("# extra "):])


def summarize(values):
    out = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    out["values"] = values
    return out


def run_all(args):
    """Every workload, `--runs` times each with seeds seed, seed+1, ..., each
    run in its own process; prints the median of every metric and the spread
    (quartile distance over median), and writes them to `--record`."""
    units = declared("per_layer" if args.trace else "end_to_end")
    record = {"machine": machine(), "runs": args.runs, "first_seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    bad = 0
    for name in workload_names():
        runs = [child_run(name, args.seed + i, args.seconds, args.trace, args.probes)
                for i in range(args.runs)]
        bad += sum(code != 0 for code, _, _ in runs)
        attempted = sum(r["attempted"] for _, r, _ in runs)
        failed = sum(r["failed"] for _, r, _ in runs)
        print(f"== {name}: {args.runs} runs, attempted {attempted}, failed {failed}")
        entry = {"failed_ratio": failed / attempted}
        for metric, unit in units.items():
            entry[metric] = summarize([r["metrics"][metric]["value"] for _, r, _ in runs])
            entry[metric]["unit"] = unit
        if not args.trace:
            p90 = [x["op_p90_ms"] for _, _, x in runs if x["op_p90_ms"] is not None]
            entry["op_p90_ms"] = dict(summarize(p90), unit="ms") if p90 else None
            entry["samples_per_run"] = summarize([x["samples"] for _, _, x in runs])
        for metric in [*units, *([] if args.trace else ["op_p90_ms"])]:
            e = entry[metric]
            if e is None:
                print(f"  {metric:<42} undefined: fewer than 100 samples per run")
                continue
            spread = f"  spread {e['spread']:.3f}" if e.get("spread") is not None else ""
            print(f"  {metric:<42} {e['median']:>14.6g} {e['unit']}{spread}")
        print(f"  {'failed_ratio':<42} {entry['failed_ratio']:>14.6g}")
        record["workloads"][name] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if bad else 0


def smoke(args):
    """Tiny runs of every workload in both modes.

    Checks that every declared metric is present with its unit, that every
    operation was checked, that the check rejects a wrong prediction, and
    that the exact work counts repeat for the same seed.
    """
    import workloads
    from hrpairs.verdict import Verdict

    problems = []
    if workloads._expect(Verdict("fail", (1, 0, 3)), "pass", (1, 0, 3)) is None:
        problems.append("the verdict check accepted a wrong prediction")
    for name in workload_names():
        results = [child_run(name, 1, 0.2, trace, probes=1) for trace in (0, 1, 1)]
        for (code, result, extra), kind in zip(results, ("end_to_end", "per_layer", "per_layer")):
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != declared(kind):
                problems.append(f"{name} {kind}: metrics {sorted(set(got) ^ set(declared(kind)))}"
                                " missing or extra, or units differ")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} {kind}: exit {code}, result {result}")
            if extra["checked"] != result["attempted"]:
                problems.append(f"{name} {kind}: {extra['checked']} of "
                                f"{result['attempted']} operations checked")
        first, second = (r[1]["metrics"] for r in results[1:])
        for metric, v in first.items():
            exact = metric.endswith(EXACT_SUFFIXES) or metric.startswith("hrcheck.verdicts.")
            if exact and v["value"] != second[metric]["value"]:
                problems.append(f"{name}: {metric} differs between runs with one seed: "
                                f"{v['value']} vs {second[metric]['value']}")
        print(f"{name}: checked")
    for p in problems:
        print("PROBLEM:", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes", type=int, default=3,
                    help="fresh processes timed for setup_s (besides the run's own "
                         "set-up) and for cli.import_s")
    ap.add_argument("--runs", type=int, default=1, help="runs per workload with --workload all")
    ap.add_argument("--record", help="with --workload all: write the medians to this JSON file")
    ap.add_argument("--smoke", action="store_true", help="harness self-check")
    ap.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "hrpairs" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not an hrpairs source checkout (need src/hrpairs and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.probe:
        seconds, spins, _ = timed_setup(args.probe, args.workload)
        print(seconds, *spins)
        return 0
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.smoke:
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workload_names():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
