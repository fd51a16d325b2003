"""Benchmark of planarloops: exact-homology workloads with pinned answers.

Run from the repository root:

    python3 perfbench/run.py --workload homology-table --seed 1 --seconds 20 --trace 0

A run imports the library from ``src/``, measures set-up in fresh processes,
then repeats passes of the workload until ``--seconds`` is used up (at least
one pass).  Each pass starts from emptied library caches and re-warmed
tables, as a fresh process would, so every pass does the same work.  Every
answer is checked against its pinned value; a wrong answer or an exception
counts as failed and the run goes on.

The speed of a shared machine drifts by tens of percent within seconds, and
the drift moves every pure-Python computation alike.  So while a pass runs, a
timer signal every SAMPLE_INTERVAL seconds times a fixed snippet that uses
nothing from the library; the snippet's time is left out of the pass, and
the pass is scaled by SNIPPET_SECONDS over the snippet times sampled during
it.  Times therefore read as seconds on a machine that runs the snippet in
SNIPPET_SECONDS.  Set-up is scaled the same way in its own process.  The raw
times and the scale of every pass are in the run record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from resource import RUSAGE_SELF, getrusage

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
SAMPLE_INTERVAL = 0.05
SNIPPET_ITERATIONS = 6000
# the snippet's time on a quiet core of the 2-core x86-64 VM (Xeon, Python
# 3.11) the benchmark was written on
SNIPPET_SECONDS = 0.0015
MISSING = object()


def _use_library_sources() -> None:
    if not (SRC / "planarloops" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC / 'planarloops'}")
    sys.path.insert(0, str(SRC))


def _snippet() -> float:
    """Seconds for a fixed piece of pure-Python work: dict updates and small
    int arithmetic, the staple of the library's hot loops."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(SNIPPET_ITERATIONS):
        key = (i * 7919) & 65535
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the snippet before, after and every SAMPLE_INTERVAL during a block.

    ``spent`` is the time the in-block samples took, to be left out of the
    block's time; ``scale`` converts the rest to seconds at nominal speed.
    """

    def __enter__(self):
        self.samples = [_snippet()]
        self.spent = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def _tick(self, signum, frame):
        took = _snippet()
        self.samples.append(took)
        self.spent += took

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(_snippet())

    @property
    def scale(self) -> float:
        return statistics.fmean(SNIPPET_SECONDS / s for s in self.samples)


def _setup_probe() -> tuple[float, float]:
    """Seconds to import the library and warm its lazy tables in this fresh
    process, and the speed scale sampled around it."""
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        import workloads
        workloads.warm()
        setup = time.perf_counter() - t0 - speed.spent
    return setup, speed.scale


def _setup_samples() -> list[tuple[float, float]]:
    out = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run([sys.executable, __file__, "--setup-probe"],
                               capture_output=True, text=True, timeout=120,
                               check=True)
        setup, scale = map(float, child.stdout.split())
        out.append((setup, scale))
    return out


def _cpu() -> float:
    ru = getrusage(RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Pass:
    wall: float  # raw seconds, sampling excluded
    cpu: float
    scale: float
    attempted: int
    wrong: list[str]
    layers: dict | None = None


def _one_pass(workload, seed: int, smoke: bool, tracer=None) -> Pass:
    import tracing
    import workloads
    workloads.reset_caches()
    gc.collect()
    workloads.warm()
    compose0 = workloads.D.compose.cache_info()
    tasks, pinned = workload(random.Random(seed), smoke)
    with SpeedProbe() as speed:
        def clock():
            return time.perf_counter() - speed.spent

        if tracer:
            tracer.spans.clear()
            tracer.install(clock)
        try:
            cpu0, spent0, t0 = _cpu(), speed.spent, clock()
            got = {}
            for task in tasks:
                try:
                    got.update(task())
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            wrong = [k for k, want in pinned.items()
                     if got.get(k, MISSING) != want]
            wall = clock() - t0
            cpu = _cpu() - cpu0 - (speed.spent - spent0)
        finally:
            if tracer:
                tracer.uninstall()
    for k in wrong:
        print(f"perfbench: wrong answer {k}: got {got.get(k, 'nothing')!r}, "
              f"pinned {pinned[k]!r}", file=sys.stderr)
    done = Pass(wall, cpu, speed.scale, len(pinned), wrong)
    if tracer:
        done.layers = tracing.layer_metrics(tracer.spans, wall)
        compose1 = workloads.D.compose.cache_info()
        done.layers["diagram.compose_calls"] = (
            compose1.hits + compose1.misses - compose0.hits - compose0.misses)
        done.layers["diagram.compose_misses"] = compose1.misses - compose0.misses
    return done


def _passes(run_one, seconds: float) -> list[Pass]:
    """Repeat run_one, which makes one or more passes, until the next round
    would overrun seconds."""
    out, start, rounds = [], time.perf_counter(), 0
    while True:
        out.extend(run_one())
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return out


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="low-degree workloads that finish in seconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_library_sources()
    if args.setup_probe:
        print(*_setup_probe())
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup = _setup_samples()
    record = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "git_sha": _git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "setup_s_and_scale": setup}
    if args.trace:
        tracer = tracing.Tracer()
        everything = _passes(
            lambda: [_one_pass(workload, args.seed, args.smoke),
                     _one_pass(workload, args.seed, args.smoke, tracer)],
            args.seconds)
        spans = tracer.to_json()
        plain, traced = everything[0::2], everything[1::2]
        counts: Counter = Counter()
        with tracing.counting_coeff_ops(counts):
            everything.append(_one_pass(workload, args.seed, args.smoke))
        for t in traced:
            t.layers.update({k: v * t.scale for k, v in t.layers.items()
                             if k.endswith("_s")})
        # median_low keeps counts whole: they repeat exactly across passes
        metrics = {k: statistics.median_low(t.layers[k] for t in traced)
                   for k in traced[0].layers}
        metrics.update({f"coeff.ops.{suffix}": counts[kind]
                        for kind, suffix in tracing.KIND_SUFFIX.items()})
        metrics["trace.overhead_frac"] = (
            statistics.median(t.wall * t.scale for t in traced)
            / statistics.median(u.wall * u.scale for u in plain) - 1)
        declared_metrics = declared["per_layer"]
        SPAN_DIR.mkdir(exist_ok=True)
        (SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans))
    else:
        everything = _passes(
            lambda: [_one_pass(workload, args.seed, args.smoke)], args.seconds)
        metrics = {
            "wall_s": statistics.median(p.wall * p.scale for p in everything),
            "cpu_s": statistics.median(p.cpu * p.scale for p in everything),
            "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(t * scale for t, scale in setup),
        }
        declared_metrics = declared["end_to_end"]
    record["passes"] = [{"wall_s": p.wall, "cpu_s": p.cpu, "scale": p.scale,
                         "traced": p.layers is not None} for p in everything]

    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.wrong) for p in everything)
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    units = {m["name"]: m["unit"] for m in declared_metrics}
    missing = set(units) - set(metrics)
    if missing:
        sys.exit(f"perfbench: no value for declared metrics {sorted(missing)}")
    print("# run " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
