#!/usr/bin/env python3
"""hypcross benchmark: end-to-end timings with tracing off, per-layer spans
with tracing on.

    python3 bench/run.py --workload spectrum-sharp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --results FILE

One run imports hypcross from ``src/`` next to this directory, makes the
workload's inputs from ``--seed``, runs one warm-up round, then repeats
rounds for ``--seconds`` and checks every result against the reference under
``reference/``.  Lines starting with ``#`` describe the run; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (time of
one operation, call to checked result; see ``wall_seconds``), ``setup_s``
(median time for a fresh interpreter to ``import hypcross``, sampled through
the run) and ``peak_rss_mb``.  With
``--trace 1`` rounds alternate between untraced and traced, and the metrics
are the per-layer ones, computed from spans around the calls into each
module (see ``spans.py``); the spans are written to ``out/``.

``--workload all`` runs every workload in its own process, once with each
``--trace`` value, and with ``--results`` writes all figures and the machine
they came from to one JSON file.

HYPCROSS_THREADS is removed from the environment, so the library's default
thread count is what gets measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, by_root, call_cost, self_times
from workloads import COUNT_LENGTHS, DEFAULT_SEED, WORKLOADS, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_MIN_SAMPLES = 9
SETUP_EVERY_S = 2.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 600

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import hypcross\n"
    "print(time.perf_counter() - t)\n"
)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else median(xs)


def git_revision() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT, env={**os.environ, "GIT_DIR": str(git_dir)},
        capture_output=True, text=True, timeout=30,
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def import_seconds() -> float:
    """Time of ``import hypcross`` in a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


# ------------------------------------------------------------------ loop

class Stats:
    def __init__(self, n_items: int):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: list[float] = []  # untraced operations, seconds
        self.item_times: list[list[float]] = [[] for _ in range(n_items)]
        self.traced: list[float] = []  # traced operations, seconds
        self.overhead: list[float] = []  # traced operation minus the same item's previous untraced one
        self.setup: list[float] = []  # fresh-interpreter imports, seconds


def operate(workload, item, stats: Stats) -> float | None:
    """One operation from call to checked result; its time, or None if it
    failed."""
    t0 = time.perf_counter()
    try:
        problems = workload.check(item, workload.run(item))
    except Exception as exc:  # a raising operation is a failed one
        problems = [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    stats.attempted += 1
    if problems:
        stats.failed += 1
        stats.problems.extend(problems[: max(0, 5 - len(stats.problems))])
        return None
    return dt


def measure(workload, seconds: float, tracer=None, setup: bool = False) -> Stats:
    """A warm-up round, then rounds until ``seconds`` have passed (at least
    two).  With a tracer, odd rounds run traced, each operation under a
    ``bench.operation`` root span, and each traced operation is paired with
    the same item's operation in the untraced round before it.  With
    ``setup``, a fresh-interpreter import is timed between rounds every
    ``SETUP_EVERY_S`` seconds, so that its samples spread over the run; that
    time does not count against ``seconds``."""
    stats = Stats(len(workload.items))
    if setup:
        import_seconds()  # the first import may also write bytecode caches
    for item in workload.items:
        operate(workload, item, stats)
    deadline = time.perf_counter() + seconds
    last_setup = -math.inf
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        if setup and time.perf_counter() - last_setup >= SETUP_EVERY_S:
            t0 = time.perf_counter()
            stats.setup.append(import_seconds())
            last_setup = time.perf_counter()
            deadline += last_setup - t0
        if tracer is not None and rounds % 2 == 1:
            with tracer.patch(workload.targets()):
                for i, item in enumerate(workload.items):
                    with tracer.span("bench.operation") as root:
                        ok = operate(workload, item, stats)
                    if ok is not None:
                        stats.traced.append(root[2] - root[1])
                        if stats.item_times[i]:
                            stats.overhead.append(stats.traced[-1] - stats.item_times[i][-1])
        else:
            for i, item in enumerate(workload.items):
                dt = operate(workload, item, stats)
                if dt is not None:
                    stats.samples.append(dt)
                    stats.item_times[i].append(dt)
        rounds += 1
    while setup and len(stats.setup) < SETUP_MIN_SAMPLES:
        stats.setup.append(import_seconds())
    return stats


# --------------------------------------------------------------- metrics

def wall_seconds(stats: Stats, words_are_items: bool) -> float:
    """``wall_s``.  On a workload of many words, one operation takes about a
    millisecond, much less than the seconds over which a shared host's speed
    changes, so each word's fastest time over the run is its cost at the
    host's best speed, and ``wall_s`` is the mean of those over the word
    set.  The other workloads' operations take most of a second or more and
    each spans such changes; there ``wall_s`` is the median operation time."""
    if words_are_items:
        return statistics.fmean(min(ts) for ts in stats.item_times if ts) if stats.samples else 0.0
    return median(stats.samples)


def word_times_ms(stats: Stats) -> list[float]:
    """Each word's median time for both counters, in ms."""
    return [1e3 * median(ts) for ts in stats.item_times if ts]


def layer_metrics(spans: list[list], stats: Stats, words_are_items: bool) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    selfs = self_times(spans)
    ops = []  # per traced operation, its root span included: name -> [(duration, self, attrs)]
    for root, kids in by_root(spans).items():
        op: dict[str, list] = {}
        for i in (root, *kids):
            name, start, end, _, _, attrs = spans[i]
            op.setdefault(name, []).append((end - start, selfs[i], attrs or {}))
        ops.append(op)

    def per_op(name: str) -> float:
        return median([sum(c[0] for c in op[name]) for op in ops if name in op])

    def per_call(name: str, length: int | None = None) -> float:
        return median([c[0] for op in ops for c in op.get(name, ()) if length is None or c[2].get("len") == length])

    def per_op_ratio(num: str, den: str, den_time: bool) -> float:
        vals = []
        for op in ops:
            if num in op and den in op:
                d = sum(c[0] for c in op[den]) if den_time else len(op[den])
                vals.append(len(op[num]) / d)
        return median(vals)

    m: dict[str, tuple[float, str]] = {}
    m["words.enumerate_classes_s"] = (per_op("words.enumerate_classes"), "s")
    m["words.enumerate_share"] = (median([sum(c[0] for c in op["words.enumerate_classes"]) / op["bench.operation"][0][0]
                                          for op in ops if "words.enumerate_classes" in op]), "ratio")
    m["words.classes_per_s"] = (per_op_ratio("words.word_trace", "words.enumerate_classes", True), "1/s")
    m["words.word_trace_s"] = (per_op("words.word_trace"), "s")
    m["spectrum.kept_share"] = (per_op_ratio("selfint.tracer_count", "words.word_trace", False), "ratio")
    m["spectrum.residual_s"] = (median([c[1] for op in ops for c in op.get("spectrum.spectrum", ())]), "s")
    for n in COUNT_LENGTHS:
        m[f"selfint.doublecoset_ms.len{n:02d}"] = (1e3 * per_call("selfint.self_intersection_count", n), "ms")
        m[f"selfint.tracer_ms.len{n:02d}"] = (1e3 * per_call("selfint.tracer_count", n), "ms")
    m["selfint.doublecoset_s"] = (per_op("selfint.self_intersection_count"), "s")
    m["selfint.tracer_s"] = (per_op("selfint.tracer_count"), "s")
    m["selfint.failed"] = (sum(1 for s in spans if s[0].startswith("selfint.") and s[5] and "error" in s[5]), "count")
    words = word_times_ms(stats) if words_are_items else []
    m["selfint.word_p50_ms"] = (median(words), "ms")
    m["selfint.word_p90_ms"] = (p90(words), "ms")
    for fn in ("verify_concavity_chain", "verify_case1_chain", "find_bound_minimum"):
        m[f"verifier.{fn}_s"] = (per_op(f"verifier.{fn}"), "s")
    for name in ("pants.trace_length_oracle", "pants.gamma_mn_length",
                 "winding.saccheri_top_length", "winding.verify_cusp_lemma_geometrically"):
        m[f"{name}_us"] = (1e6 * per_call(name), "us")
    m["pants.minimize_over_moduli_s"] = (per_op("pants.minimize_over_moduli"), "s")
    m["collar.width_scan_s"] = (per_op("collar.width_scan"), "s")
    m["trace.overhead_s"] = (median(stats.overhead), "s")
    return m


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Self time of each module's spans as a share of all traced operation
    time; ``bench`` is the time outside every traced call."""
    total = sum(e - s for _, s, e, parent, _, _ in spans if parent is None)
    shares: dict[str, float] = {}
    for (name, *_), st in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + st
    return {k: v / total for k, v in sorted(shares.items())} if total else {}


def span_summary(spans: list[list]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for (name, start, end, *_), st in zip(spans, self_times(spans)):
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += st
    return out


# ------------------------------------------------------------------ runs

def run_one(args) -> None:
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, load_reference(cls.name))
    env = environment()
    tracer = Tracer() if args.trace else None
    stats = measure(workload, args.seconds, tracer, setup=not args.trace)

    details = {
        "workload": cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "samples": len(stats.samples),
        "failed_share": stats.failed / stats.attempted,
        "problems": stats.problems,
    }
    if args.trace:
        metrics = layer_metrics(tracer.spans, stats, cls.words_are_items)
        details["traced_samples"] = len(stats.traced)
        details["span_cost_us"] = 1e6 * call_cost()
        details["spans_per_operation"] = median([1 + len(kids) for kids in by_root(tracer.spans).values()])
        details["estimated_overhead_s"] = 1e-6 * details["span_cost_us"] * details["spans_per_operation"]
        details["layer_self_share"] = layer_shares(tracer.spans)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{cls.name}.json", {**details, "summary": span_summary(tracer.spans)})
    else:
        values = {
            "wall_s": wall_seconds(stats, cls.words_are_items),
            "setup_s": median(stats.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        details["setup_samples"] = len(stats.setup)
        if len(stats.samples) >= 100:  # ten samples beyond the 90th percentile
            details["wall_p90_s"] = p90(stats.samples)
        if cls.words_are_items:
            words = word_times_ms(stats)
            details["word_p50_ms"] = median(words)
            details["word_p90_ms"] = p90(words)
            details["words"] = len(words)
            details["wall_median_s"] = median(stats.samples)

    print(f"# {cls.name} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{stats.attempted} operations, {stats.failed} failed (failed_share {details['failed_share']:g}), "
          f"{len(stats.samples)} untraced samples")
    for problem in stats.problems:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print("# details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    runs = {}
    correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{name} --trace {trace} exited with {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            details = next(json.loads(l[len("# details "):]) for l in lines if l.startswith("# details "))
            runs.setdefault(name, {})["traced" if trace else "untraced"] = {"result": result, "details": details}
            correct = correct and result["correct"]
    if args.results:
        doc = {"env": environment(), "seed": args.seed, "seconds": args.seconds, "workloads": runs}
        with open(args.results, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "workloads": {k: {t: r["result"] for t, r in v.items()} for k, v in runs.items()}}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    os.environ.pop("HYPCROSS_THREADS", None)
    if not (SRC / "hypcross" / "__init__.py").is_file():
        fail(f"no hypcross sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypcross

    if Path(hypcross.__file__).resolve().parent != SRC / "hypcross":
        fail(f"imported hypcross from {hypcross.__file__}, not from {SRC}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None, help="with --workload all: write every figure to this JSON file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
