"""Seeded benchmark for robust_recourse: end-to-end throughput and answer
quality on three workloads, and a traced run that splits the time across
the package's modules.

    python3 bench/run.py --workload k1-nonparametric --seed 707 --seconds 25 --trace 0

Run from the repository root or anywhere else; the package is imported
from ``src/`` next to this directory, never from site-packages.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (environment,
per-block times, the whole span table) goes to ``bench/out/``.  See
``bench/README.md`` for why each workload exists and what each metric
should move.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

# one BLAS thread: the solver works on 3-vectors, and a second thread only
# adds scheduling noise on a shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

DEFAULT_SEED = 707
WORKLOADS = ("k1-nonparametric", "k3-weight-robust", "cli-sweep")
SETUP_REPEATS = 3  # set-ups per run, each in a fresh process; setup_s is their median
# calibration loop size, and its time on the nominal host (2-core shared
# x86-64 VM, Python 3.11, numpy 2.4); see calibration_s
CAL_ROWS = 3000
CAL_PASSES = 3
CAL_NOMINAL_S = 0.09


def import_package():
    """Import robust_recourse from src/ of this checkout, or exit non-zero."""
    init = SRC / "robust_recourse" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import robust_recourse

    if Path(robust_recourse.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported robust_recourse from {robust_recourse.__file__}, not {SRC}")
    return robust_recourse


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else the
    environment setting."""
    import ctypes
    import glob

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


# --- tracing ---------------------------------------------------------------------

# span name -> "module:attr" targets, each patched where its caller looks it up
HOOKS = {
    "harness.generate_synthetic": ["robust_recourse.harness:generate_synthetic",
                                   "robust_recourse.cli:generate_synthetic"],
    "harness.generate_recourses": ["robust_recourse.harness:generate_recourses",
                                   "robust_recourse.cli:generate_recourses"],
    "harness.sweep_frontier": ["robust_recourse.harness:sweep_frontier",
                               "robust_recourse.cli:sweep_frontier"],
    "harness.build_shift_ensemble": ["robust_recourse.harness:build_shift_ensemble",
                                     "robust_recourse.cli:build_shift_ensemble"],
    "harness.evaluate": ["robust_recourse.harness:evaluate", "robust_recourse.cli:evaluate"],
    "optimizer.solve": ["robust_recourse.harness:solve", "robust_recourse.optimizer:solve"],
    "optimizer.pgd_minimize": ["robust_recourse.optimizer:pgd_minimize"],
    "objective.eval": [f"robust_recourse.optimizer:eval_{m}" for m in
                       ("nonparametric", "gaussian", "weight_robust", "worst_component")],
    "objective.weight_dual": ["robust_recourse.objective:_weight_dual"],
    "model.validate_problem": ["robust_recourse.optimizer:validate_problem"],
    "feasibility.project_feasible": ["robust_recourse.feasibility:project_feasible"],
    "feasibility.delta_min": ["robust_recourse.feasibility:delta_min"],
    "feasibility.min_cost_point": ["robust_recourse.feasibility:min_cost_point"],
    "feasibility.slsqp": ["scipy.optimize:minimize"],
    "estimation.train_logistic": ["robust_recourse.estimation:train_logistic",
                                  "robust_recourse.harness:train_logistic",
                                  "robust_recourse.cli:train_logistic"],
    "estimation.bootstrap_parameters": ["robust_recourse.estimation:bootstrap_parameters",
                                        "robust_recourse.cli:bootstrap_parameters"],
    "estimation.fit_mixture_moments": ["robust_recourse.estimation:fit_mixture_moments",
                                       "robust_recourse.cli:fit_mixture_moments"],
    "cli.load_csv": ["robust_recourse.cli:load_csv"],
}
OBSERVED = ("optimizer.solve", "optimizer.pgd_minimize")


def _quantile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def layer_metrics(tracer, overhead):
    """The per-layer metrics named in BENCHMARK.json, from the span table."""
    table, edges, wall, unattributed = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}, "durations": []}

    def row(name):
        return table.get(name, empty)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def calls_s(name):
        put(f"{name}.calls", row(name)["calls"], "count")
        put(f"{name}.s", row(name)["s"], "s")

    pf = row("feasibility.project_feasible")
    calls_s("feasibility.project_feasible")
    put("feasibility.project_feasible.us_per_call",
        1e6 * pf["s"] / pf["calls"] if pf["calls"] else 0.0, "us")
    for name in ("feasibility.delta_min", "feasibility.min_cost_point", "feasibility.slsqp",
                 "objective.eval", "objective.weight_dual"):
        calls_s(name)
    ev = row("objective.eval")
    put("objective.infeasible_margin_share",
        ev["errors"].get("InfeasibleMargin", 0) / ev["calls"] if ev["calls"] else 0.0, "share")

    # solver outcomes observed at the solve boundary, timed blocks only
    block_sections = {i for i, (label, _, _) in enumerate(tracer.sections)
                      if label.startswith("block")}
    solves = [r for sec, r in tracer.results.get("optimizer.solve", []) if sec in block_sections]
    pgd_iters = sum(out[3] for _, out in tracer.results.get("optimizer.pgd_minimize", []))
    sv = row("optimizer.solve")
    put("optimizer.solve.calls", sv["calls"], "count")
    put("optimizer.solve.self_s", sv["self_s"], "s")
    put("optimizer.solve.ms_p50", 1e3 * _quantile(sv["durations"], 0.5), "ms")
    put("optimizer.solve.ms_p90", 1e3 * _quantile(sv["durations"], 0.9), "ms")
    put("optimizer.pgd_minimize.self_s", row("optimizer.pgd_minimize")["self_s"], "s")
    iters = [r.iterations for r in solves]
    put("optimizer.iterations_p50", _quantile(iters, 0.5), "count")
    put("optimizer.iterations_p95", _quantile(iters, 0.95), "count")
    put("optimizer.accept_ratio", pgd_iters / ev["calls"] if ev["calls"] else 0.0, "share")
    put("optimizer.converged_rate",
        statistics.fmean(float(r.converged) for r in solves) if solves else 0.0, "share")
    put("optimizer.mean_objective",
        statistics.fmean(r.objective for r in solves) if solves else 0.0, "prob")
    put("model.validate_problem.s", row("model.validate_problem")["s"], "s")
    for name in ("generate_recourses", "sweep_frontier", "build_shift_ensemble", "evaluate"):
        put(f"harness.{name}.s", row(f"harness.{name}")["s"], "s")
    calls_s("estimation.train_logistic")
    put("estimation.bootstrap_parameters.s", row("estimation.bootstrap_parameters")["s"], "s")
    put("estimation.fit_mixture_moments.s", row("estimation.fit_mixture_moments")["s"], "s")
    calls_s("cli.load_csv")
    for stage in ("synth", "estimate", "sweep"):
        put(f"cli.stage.{stage}.s", row(f"cli.stage.{stage}")["s"], "s")
    put("trace.unattributed_share", unattributed / wall if wall else 0.0, "share")
    put("trace.overhead", overhead, "ratio")
    spans = {
        name: {k: v for k, v in r.items() if k != "durations"} for name, r in sorted(table.items())
    }
    return m, {"wall_s": wall, "unattributed_s": unattributed, "spans": spans,
               "edges": dict(sorted(edges.items())), "absent": tracer.absent}


# --- runs ------------------------------------------------------------------------


def timed_setup(wl, seconds_before):
    """Runs the set-up; returns its (wall, nominal-host) seconds, the latter
    rescaled by two calibration loops run right after it."""
    t = time.perf_counter()
    wl.setup()
    wall = seconds_before + time.perf_counter() - t
    cal = statistics.fmean(calibration_s() for _ in range(2))
    return wall, wall * CAL_NOMINAL_S / cal


def probe_setup(args):
    """Set-up times of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def calibration_s():
    """Seconds a fixed loop takes on this host right now: scalar float
    arithmetic and numpy calls on 3-vectors, the mix of work a solve does.

    The host is shared, and its speed drifts by up to 30% over minutes.
    Timed calls are rescaled by how fast this loop ran around them, which
    cut the spread of 30-second medians of one fixed block from 14% to 7%.
    """
    import math

    import numpy as np

    vectors = np.linspace(-1.0, 1.0, 3 * CAL_ROWS).reshape(CAL_ROWS, 3)
    t = time.perf_counter()
    acc = 0.0
    for _ in range(CAL_PASSES):
        for row in vectors:
            n = float(np.linalg.norm(row))
            d = float(row @ row)
            x = 0.0
            for k in range(40):
                x = math.sqrt(x * 0.5 + k + d) - n * 1e-3
            acc += x
    return time.perf_counter() - t


def run_blocks(wl, args, size):
    """Timed calls until --seconds have passed, and at least min_blocks,
    with the calibration loop before each and after the last; then block
    0 once more, untimed, which must give identical answers."""
    t_start = time.perf_counter()
    r = {"blocks": [], "times": [], "cpu": [], "solves": [], "cal": [calibration_s()],
         "attempted": 0, "failed": 0, "messages": []}
    min_blocks = size.min_blocks[wl.name]
    i = 0
    while i < min_blocks or time.perf_counter() - t_start < args.seconds:
        inputs = wl.instances(i)
        t, c = time.perf_counter(), time.process_time()
        output = wl.run(inputs)
        r["times"].append(time.perf_counter() - t)
        r["cpu"].append(time.process_time() - c)
        r["cal"].append(calibration_s())
        n = wl.solves(inputs)
        nf, msgs = wl.check(inputs, output)
        r["solves"].append(n)
        r["attempted"] += n
        r["failed"] += nf
        r["messages"] += [f"block {i}: {msg}" for msg in msgs]
        if i < min_blocks:
            r["blocks"].append((inputs, output))
        i += 1
    inputs, output = r["blocks"][0]
    if wl.fingerprint(wl.run(inputs)) != wl.fingerprint(output):
        r["failed"] += wl.solves(inputs)
        r["messages"].append("block 0: a repeat gave different answers")
    return r


def run_untraced(wl, args, size, record, import_s):
    setup_times = probe_setup(args)
    setup_times.append(timed_setup(wl, import_s))
    r = run_blocks(wl, args, size)
    quality = wl.quality(r["blocks"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each block's time in nominal-host seconds, from the calibration loops
    # on either side of it
    speed = [CAL_NOMINAL_S / (0.5 * (a + b)) for a, b in zip(r["cal"], r["cal"][1:])]
    nominal_s = sum(t * f for t, f in zip(r["times"], speed))
    attempted, failed = r["attempted"], r["failed"]
    metrics = {
        "recourses_per_s": {"value": sum(r["solves"]) / nominal_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(n for _, n in setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "m2_validity": {"value": quality["m2_validity"], "unit": "share"},
        "solved_share": {"value": (attempted - failed) / attempted, "unit": "share"},
    }
    record.update(
        setup_wall_s=[w for w, _ in setup_times], setup_nominal_s=[n for _, n in setup_times],
        block_times_s=r["times"], block_cpu_s=r["cpu"],
        block_solves=r["solves"], calibration_s=r["cal"], block_speed_factor=speed,
        wall_recourses_per_s=sum(r["solves"]) / sum(r["times"]), quality=quality,
    )
    return metrics, attempted, failed, r["messages"]


def run_traced(wl, tracer, args, size, record):
    """Traced set-up, then each of the first min_blocks calls untraced and
    traced on the same inputs; both must give the same answers."""
    attempted = failed = 0
    messages = []
    t_plain = t_traced = 0.0
    with tracer.section("setup"):
        wl.setup()
    for i in range(size.min_blocks[wl.name]):
        inputs = wl.instances(i)
        t = time.perf_counter()
        plain = wl.run(inputs)
        t_plain += time.perf_counter() - t
        with tracer.section(f"block{i}"):
            t = time.perf_counter()
            traced = wl.run(inputs)
            t_traced += time.perf_counter() - t
        nf, msgs = wl.check(inputs, traced)
        if wl.fingerprint(traced) != wl.fingerprint(plain):
            nf = wl.solves(inputs)
            msgs.append("traced answers differ from untraced answers")
        plain_quality = wl.quality([(inputs, plain)])
        with tracer.section(f"quality{i}"):
            traced_quality = wl.quality([(inputs, traced)])
        if plain_quality != traced_quality:
            nf = wl.solves(inputs)
            msgs.append(f"quality {traced_quality} traced vs {plain_quality} untraced")
        attempted += wl.solves(inputs)
        failed += nf
        messages += [f"block {i}: {msg}" for msg in msgs]
    metrics, detail = layer_metrics(tracer, t_plain / t_traced)
    record.update(trace=detail, untraced_s=t_plain, traced_s=t_traced)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out / f"{run_tag(args)}.spans.csv.gz")
    return metrics, attempted, failed, messages


def run_tag(args):
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", default=str(BENCH_DIR / "out"), help="results directory")
    args = parser.parse_args(argv)
    import_package()
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - _T0
    size = workloads.Size(args.tiny)
    tracer = None
    if args.trace:
        tracer = Tracer()
        for name, targets in HOOKS.items():
            tracer.hook(name, targets, observe=name in OBSERVED)
    wl = workloads.make_workload(args.workload, args.seed, size, tracer)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "env": environment(args.seed)}
    try:
        if args.setup_probe:
            print(json.dumps(timed_setup(wl, import_s)))
            return 0
        if tracer is not None:
            metrics, attempted, failed, messages = run_traced(wl, tracer, args, size, record)
        else:
            metrics, attempted, failed, messages = run_untraced(wl, args, size, record, import_s)
    finally:
        if tracer is not None:
            tracer.unpatch()
        wl.cleanup()
    correct = failed == 0 and not messages
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result=result, check_messages=messages)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{run_tag(args)}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for msg in messages:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
