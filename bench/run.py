"""Run one workload of the starrep benchmark and print its metrics.

    python3 bench/run.py --workload bijection --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke [--trace 1]

Run from a checkout: starrep is imported from ``src/`` next to this
directory, never from an installed copy. One caller runs the workload's
operations one after another (a closed loop) in whole rounds that fit in
``--seconds``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` (operation times in multiples of a reference
computation timed in the same run, see ``reference.py``), the per-layer
metrics with ``--trace 1``.
``--smoke`` runs every workload once on its smallest inputs, checks on.
The exit status is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: runs are steadier, and the benchmark stays within the
# two cores it is meant for. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (numpy loads here, after the thread settings)

import cliwork  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, metric_units  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("bijection", "decompose", "cone", "cli")
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
# Seconds between reference probes: the child probe costs about 0.1 s, the
# in-process one about 2 ms.
CHILD_PROBE_EVERY, PROBE_EVERY = 0.5, 0.2
SMALL_N, LARGE_N = 9, 16


def import_starrep():
    """Import starrep from the checkout's sources, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "starrep" / "__init__.py").is_file():
        sys.exit(f"error: no starrep sources at {src}")
    sys.path.insert(0, str(src))
    import starrep

    if Path(starrep.__file__).resolve().parent != (src / "starrep").resolve():
        sys.exit(f"error: starrep was imported from {starrep.__file__}, not {src}")
    return starrep


def import_times() -> tuple[float, float]:
    """Medians over fresh interpreters of (the import alone, the whole process).

    Each child times its own ``import starrep``; the parent times the child
    from start to exit, which adds interpreter start.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time; t = time.perf_counter(); import starrep; print(time.perf_counter() - t)"
    inner, outer = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        outer.append(time.perf_counter() - t0)
        inner.append(float(proc.stdout))
    return statistics.median(inner), statistics.median(outer)


def make_workload(name: str, traced: bool):
    return {
        "bijection": workloads.Bijection,
        "decompose": workloads.Decompose,
        "cone": workloads.Cone,
        "cli": lambda: cliwork.Cli(ROOT, OUT / "workspaces", in_process=traced),
    }[name]()


def make_probe(name: str, traced: bool):
    """The reference probe and its spacing: a child process for cli's child processes."""
    if name == "cli" and not traced:
        return reference.child_process, CHILD_PROBE_EVERY
    return reference.in_process, PROBE_EVERY


def run_workload(sr, wl, seed: int, seconds: float, smoke: bool, tracer=None, probe=(None, 0.0)):
    """Set up (timed, repeated), then run whole rounds that fit in the given seconds."""
    setup_times = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        data = wl.setup(sr, seed, smoke)
        setup_times.append(time.perf_counter() - t0)
    wl.prepare(data, seed)
    rec = workloads.Recorder(*probe)
    if tracer is not None:
        tracer.install(sr)
    rounds = 0
    t0 = time.perf_counter()
    try:
        # Another whole round starts only when, at the mean round time so far,
        # it should end within the given seconds; a run has at least one.
        while rounds == 0 or (time.perf_counter() - t0) * (rounds + 1) / rounds <= seconds:
            order = random.Random(f"{seed} {rounds}")
            workloads.interleave(wl.pipelines(sr, data, rec), rec, order)
            rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rec, rounds, time.perf_counter() - t0, statistics.median(setup_times)


def geometric_mean(samples) -> float:
    """exp of the mean log time: every operation counts by its relative change.

    The operations of a round fall into clusters by kind and size, with gaps
    between them. A median that lands in a gap jumps to the next cluster when
    a few operations near it run slow; the geometric mean moves by the average
    of the operations' relative changes instead.
    """
    return float(np.exp(np.mean(np.log(np.asarray(samples, dtype=float)))))


def end_to_end(rec, setup_s: float, import_s: float, child_rss: bool) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) of each end-to-end metric.

    Operation times are given in ``ref``: multiples of the geometric mean
    time of the run's reference probes (see ``reference.py``).
    """
    secs = [s for _, s in rec.samples]
    small = [s for n, s in rec.samples if n <= SMALL_N]
    large = [s for n, s in rec.samples if n >= LARGE_N]
    ref = geometric_mean(rec.probes)
    who = resource.RUSAGE_CHILDREN if child_rss else resource.RUSAGE_SELF
    return {
        "setup_s": (import_s + setup_s, "s", SETUP_REPEATS),  # import: IMPORT_REPEATS
        "latency_gmean_ref": (geometric_mean(secs) / ref, "ref", len(secs)),
        "small_gmean_ref": (geometric_mean(small) / ref, "ref", len(small)),
        "large_gmean_ref": (geometric_mean(large) / ref, "ref", len(large)),
        "latency_mean_ref": (statistics.fmean(secs) / ref, "ref", len(secs)),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB", 1),
    }


def in_ms(rec) -> dict[str, tuple[float, str, int]]:
    """The same operation times in milliseconds, and the reference itself, for the log."""
    secs = [s for _, s in rec.samples]
    return {
        "reference_ms": (1e3 * geometric_mean(rec.probes), "ms", len(rec.probes)),
        "latency_gmean_ms": (1e3 * geometric_mean(secs), "ms", len(secs)),
        "latency_mean_ms": (1e3 * statistics.fmean(secs), "ms", len(secs)),
    }


def report_problems(rec) -> None:
    for line in rec.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in rec.wrong:
        print(f"WRONG {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    sr = import_starrep()

    if args.smoke:
        correct, attempted, failed = True, 0, 0
        for name in WORKLOADS:
            wl = make_workload(name, bool(args.trace))
            rec, rounds, wall, _ = run_workload(
                sr, wl, args.seed, 0.0, smoke=True, tracer=Tracer() if args.trace else None,
                probe=make_probe(name, bool(args.trace)))
            report_problems(rec)
            print(f"smoke {name}: {rec.attempted} operations in {rounds} rounds, "
                  f"{rec.failed} failed, {len(rec.wrong)} wrong, {wall:.1f} s")
            correct &= not rec.wrong
            attempted += rec.attempted
            failed += rec.failed
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0 if correct and not failed else 1

    wl = make_workload(args.workload, bool(args.trace))
    tracer = Tracer() if args.trace else None
    import_s, process_s = import_times()
    rec, rounds, wall, setup_s = run_workload(sr, wl, args.seed, args.seconds, False, tracer,
                                              make_probe(args.workload, bool(args.trace)))
    report_problems(rec)
    info = end_to_end(rec, setup_s, import_s, child_rss=args.workload == "cli" and not args.trace)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds in {wall:.2f} s"
          f"{' (traced)' if args.trace else ''}")
    for name, (value, unit, count) in (info | in_ms(rec)).items():
        print(f"  {name:18s} {value:12.4f} {unit:5s} (n={count})")
    if tracer is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in info.items()}
    else:
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        values = tracer.metrics(rounds)
        values["process.import_s"] = process_s
        units = metric_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = not rec.wrong
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
