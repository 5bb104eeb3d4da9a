"""Benchmark of the three cexlab constructions.

Run from the root of a source checkout:

    python3 bench/run.py --workload wave-ladder --seed 1 --seconds 40 --trace 0

One invocation runs one workload, in one process, single-threaded, as a
closed loop: each case starts when the previous one ends.  The seed
fixes the round of cases; rounds repeat until the time is up (whole
rounds only, so every run attempts the same operations in the same
proportions).  Only the program calls of a case are timed; the checks
against independent computations run between cases.  Every round does
the same work, so a case's time over the rounds varies mostly with how
busy the machine is; the timings report each case's fastest round.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the program's public
functions are wrapped on alternate rounds and the per-layer metrics,
plus the tracing overhead, are reported instead, and the spans are
written to ``bench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "wave-ladder": "wave_ladder",
    "transport-stages": "transport_stages",
    "bump-grid": "bump_grid",
}


def _since_process_start():
    """Seconds between the process start and the first line of this
    script, from /proc (10 ms ticks); 0 where /proc is not available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK")
               - (time.perf_counter() - _T0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import cexlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "cexlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no cexlab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import cexlab
    if Path(cexlab.__file__).resolve().parent != (SRC / "cexlab").resolve():
        raise SystemExit(f"error: imported cexlab from {cexlab.__file__}")


def run(args, pre_start):
    import importlib
    wl = importlib.import_module(WORKLOADS[args.workload])

    tracer = undo = None
    if args.trace:
        # imports every cexlab module, so only traced runs pay for it
        import tracing
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    cases = wl.make_round(args.seed)
    setup_s = pre_start + time.perf_counter() - _T0

    attempted = failed = 0
    failures = []
    # case_times[traced][i]: the times of case i over the rounds of that kind
    case_times = {True: [[] for _ in cases], False: [[] for _ in cases]}
    round_times = {True: [], False: []}
    begin = time.perf_counter()
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 0
        if args.trace:
            if traced and undo is None:
                undo = tracing.install(tracer)
            elif not traced and undo is not None:
                tracing.uninstall(undo)
                undo = None
        round_s = 0.0
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.case = f"r{r}c{i}"
            t = time.perf_counter()
            try:
                outcome = wl.run_case(case)
            except Exception as exc:  # an unexpected raise: one failed operation
                outcome = None
                print(f"round {r} case {i}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            dt = time.perf_counter() - t
            round_s += dt
            case_times[traced][i].append(dt)
            if outcome is None:
                attempted += 1
                failed += 1
                continue
            attempted += outcome.attempted
            failed += outcome.failed
            if traced:
                tracer.record(outcome.counts)
            failures += [f"round {r} case {i}: {m}"
                         for m in wl.check_case(case, outcome.out)]
        round_times[traced].append(round_s)
        r += 1
        elapsed = time.perf_counter() - begin
        # whole rounds only; start another if it would end within half a
        # round of the deadline
        if elapsed + 0.5 * elapsed / r >= args.seconds:
            break
    if undo is not None:
        tracing.uninstall(undo)

    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)

    best = {k: [min(ts) for ts in v] for k, v in case_times.items() if v[0]}
    if args.trace:
        overhead = sum(best[True]) - sum(best.get(False, best[True]))
        metrics = tracing.layer_metrics(tracer, len(round_times[True]), overhead)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-s{args.seed}.jsonl")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # one round at each case's fastest time: the program's cost
            # without the slow spells of a shared machine, which last
            # seconds to minutes
            "wall_s": {"value": sum(best[False]), "unit": "s"},
            "case_p50_s": {"value": statistics.median(best[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    rounds_s = " ".join(f"{t:.3f}" for t in round_times[False] + round_times[True])
    print(f"rounds={r} cases={r * len(cases)} run_s={time.perf_counter() - begin:.3f} "
          f"round_s={rounds_s}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    pre_start = _since_process_start()
    args = parse_args(argv)
    import_program()
    result = run(args, pre_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
