"""hopcav benchmark: end-to-end and per-layer metrics on four workloads.

One workload, one seed (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload surface --seed 1 --seconds 22 --trace 0

Every workload, interleaved over seeds, with medians and quartiles:

    python3 perfbench/run.py --all --seeds 0,1,2 --seconds 22 [--trace 1]

Run from the root of a hopcav checkout; the package is imported from its
``src`` directory.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import gzip
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans
import speed
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3
# latency percentiles are taken over chunks of this many calls and seconds
# at least, so that each p90 has ten or more calls beyond it
CHUNK_CALLS = 100
CHUNK_S = 0.05
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# metrics printed on the last line: every end-to-end metric untraced, and
# the per-layer metrics that every workload exercises when traced
END_TO_END = {
    "points_per_s": "1/s",
    "points_per_s_w2": "1/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "steady_state.calls": "count",
    "steady_state.s": "s",
    "steady_state.branches_per_call": "count",
    "dynamics.calls": "count",
    "dynamics.s": "s",
    "lyapunov.gate_calls": "count",
    "lyapunov.gate_s": "s",
    "lyapunov.stable_ratio": "ratio",
    "lyapunov.s": "s",
    "lyapunov.solve_calls": "count",
    "measures.calls": "count",
    "stability.calls": "count",
    "stability.s": "s",
    "engine.csv_bytes": "B",
    "engine.pool_speedup": "ratio",
    "trace.overhead_frac": "ratio",
}
# printed and saved only: the untraced figures before rescaling to the
# reference CPU speed, and the median rescaling factor
WALL = {
    "wall.points_per_s": "1/s",
    "wall.points_per_s_w2": "1/s",
    "wall.point_ms_p50": "ms",
    "wall.point_ms_p90": "ms",
    "wall.setup_s": "s",
    "wall.idle_frac": "ratio",
    "wall.idle_steps": "count",
    "speed.factor": "ratio",
}
# a single-process step idle for more than this share of its time (waiting,
# or work in a process that is not a child) is marked in the output
IDLE_MARK = 0.25
# reported in the traced table and results file only: zero on a workload
# that never enters the layer, plus the rescaling factor
TABLE_ONLY = {
    "speed.factor": "ratio",
    "lyapunov.solve_s": "s",
    "lyapunov.worst_residual": "1",
    "measures.s": "s",
    "engine.run_point_s": "s",
    "engine.run_point_self_s": "s",
    "engine.run_point_accounted": "ratio",
    "engine.sweep_self_s": "s",
    "engine.csv_s": "s",
}


def environment(load_start) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception as exc:  # older releases print instead of returning
            return f"unknown ({type(exc).__name__})"

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "machine": platform.machine(),
    }


def measure_setup(workload, probe, runs: int = SETUP_RUNS) -> dict:
    """Cold import plus preset or config building, each in a fresh interpreter."""
    code = workload.setup_code(str(SRC))
    results = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        f = probe.factor(t0, time.perf_counter())
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()[-500:]}")
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"setup_s": speed.busy(*r["setup_s"]) * f,
                        "import_s": speed.busy(*r["import_s"]) * f,
                        "wall_setup_s": r["setup_s"][0]})
    return {k: statistics.median(r[k] for r in results) for k in results[0]} | {"n": runs}


def stop_children() -> None:
    """End every child process before the result is printed.  A spawn pool
    starts multiprocessing's resource tracker, which otherwise exits only
    after this process has, and is then left for init to reap; any other
    child still running is terminated.  Each is waited for."""
    from multiprocessing import resource_tracker

    # the closed pool's semaphores are unlinked by their finalizers first,
    # so that the tracker finds none left to clean up when it stops
    gc.unfreeze()
    gc.collect()
    resource_tracker._resource_tracker._stop()
    for pid in map(int, speed.children("self")):
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Schedule:
    """Steps run in a fixed interleaved order, the order reversed each
    round.  A kind whose last step would now end after the deadline is
    skipped, so shorter kinds fill the end of the run; the run ends when no
    kind fits.  Each kind runs at least once."""

    def __init__(self, kinds: list[str], seconds: float):
        self.kinds = kinds
        self.deadline = time.perf_counter() + seconds
        self.last: dict[str, float] = {}
        self.count: dict[str, int] = {k: 0 for k in kinds}

    def steps(self):
        order = list(self.kinds)
        while True:
            ran = False
            for kind in order:
                if kind in self.last and time.perf_counter() + self.last[kind] > self.deadline:
                    continue
                t0 = time.perf_counter()
                yield kind, self.count[kind]
                self.last[kind] = time.perf_counter() - t0
                self.count[kind] += 1
                ran = True
            if not ran:
                return
            order.reverse()


def latency_chunks(lat: list[tuple]) -> list[list[tuple]]:
    """Split a step's back-to-back calls, (start, wall, CPU) each, into
    chunks of at least ``CHUNK_CALLS`` calls and ``CHUNK_S`` seconds; a
    short remainder joins the last chunk.  The CPU speed switches about
    every second, so a chunk mostly runs at one speed and its factor fits
    all its calls, where over a whole step the slow stretches set p90."""
    chunks, chunk = [], []
    for call in lat:
        chunk.append(call)
        if len(chunk) >= CHUNK_CALLS and call[0] + call[1] - chunk[0][0] >= CHUNK_S:
            chunks.append(chunk)
            chunk = []
    if chunk:
        if chunks:
            chunks[-1].extend(chunk)
        else:
            chunks.append(chunk)
    return chunks


class Samples:
    """Rates and latencies, each kept rescaled to the reference CPU speed
    and as measured on the wall clock."""

    def __init__(self):
        self.rates = collections.defaultdict(list)
        self.wall_rates = collections.defaultdict(list)
        # percentiles of each chunk of single calls (see latency_chunks),
        # each rescaled by the factor of its chunk: one factor per call
        # would add the probe's own noise to every call, and widen the tail
        self.chunk_p50: list[float] = []
        self.chunk_p90: list[float] = []
        self.wall_latencies: list[float] = []
        self.factors: list[float] = []
        # per single-process step, the share of its wall time, less steal
        # and probe, in which neither it nor its children had the CPU
        self.idle: list[float] = []

    def step(self, workload, kind: str, step: int, pool, probe) -> float:
        """Run one step; returns the speed factor of its interval."""
        workers = 2 if kind == "w2" else 1
        t0, c0 = time.perf_counter(), speed.cpu_seconds()
        s0, p0 = speed.steal_seconds(), speed.steal_seconds(speed.WORK_CPU)
        if kind == "lat":
            lat = workload.latency_batch(step)
        elif workers == 1:
            workload.run(step, workers, pool)
            lat = workload.pending_latencies()
        else:
            with speed.on_all_cpus():
                workload.run(step, workers, pool)
            lat = []
        t1, c1 = time.perf_counter(), speed.cpu_seconds()
        s1, p1 = speed.steal_seconds(), speed.steal_seconds(speed.WORK_CPU)
        f = probe.factor(t0, t1)
        self.factors.append(f)
        wall = t1 - t0
        if workers == 1:
            probe_cpu = probe.cpu_between(t0, t1)
            cpu = c1 - c0 - probe_cpu
            available = wall - (p1 - p0) - probe_cpu
            self.idle.append(max(0.0, 1.0 - cpu / available) if available > 0 else 0.0)
        if kind != "lat":
            if workers == 1:
                elapsed = speed.busy(wall, cpu)
            else:
                elapsed = wall - (s1 - s0) / os.cpu_count()
            points = workload.points(step, workers)
            self.rates[kind].append(points / (elapsed * f))
            self.wall_rates[kind].append(points / wall)
        for chunk in latency_chunks(lat):
            # each call less the probe's time inside it, like the steps
            busy = [speed.busy(w, c) - probe.cpu_between(t, t + w) for t, w, c in chunk]
            fc = probe.factor(chunk[0][0], chunk[-1][0] + chunk[-1][1])
            self.chunk_p50.append(statistics.median(busy) * fc)
            self.chunk_p90.append(p90(busy) * fc)
        self.wall_latencies.extend(w for _, w, _ in lat)
        return f


def measure(workload, seconds: float, pool, probe) -> Samples:
    samples = Samples()
    for kind, step in Schedule(workload.kinds, seconds).steps():
        samples.step(workload, kind, step, pool, probe)
    samples.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return samples


def measure_traced(workload, seconds: float, pool, probe) -> dict:
    import hopcav.cli
    import hopcav.engine
    import hopcav.stability

    modules = {"cli": hopcav.cli, "engine": hopcav.engine, "stability": hopcav.stability}
    tracer = spans.Tracer()
    samples = Samples()
    traced_factors = []
    units = 0
    for kind, step in Schedule(["traced", "w1", "w2"], seconds).steps():
        if kind == "traced":
            with spans.installed(tracer, modules):
                traced_factors.append(samples.step(workload, "traced", step, pool, probe))
            units += workload.points(step, 1) if workload.name == "point" else 1
        else:
            samples.step(workload, kind, step, pool, probe)
    return {"samples": samples, "tracer": tracer, "units": units,
            "factor": statistics.median(traced_factors)}


def layer_metrics(traced: dict, setup: dict) -> dict[str, float]:
    tracer, units = traced["tracer"], traced["units"]
    totals = tracer.layer_totals()

    def get(name, field):
        # times per unit of work, rescaled like the end-to-end figures
        value = totals.get(name, {}).get(field, 0.0)
        return value * traced["factor"] if field != "calls" else value

    gate_calls = get("lyapunov.gate", "calls")
    steady_calls = get("steady_state", "calls")
    rates = {k: statistics.median(v) for k, v in traced["samples"].rates.items()}
    # one- and two-process steps are rescaled under different conditions, so
    # the pool's speed-up is the ratio of their wall-clock rates in this run
    wall = {k: statistics.median(v) for k, v in traced["samples"].wall_rates.items()}
    # the listed layers' self time inside run_point, plus run_point's own
    run_point_s = get("engine.run_point", "s")
    accounted = sum(v["self_s"] for v in tracer.layer_totals("engine.run_point").values()) * traced["factor"]
    m = {
        "setup.import_s": setup["import_s"],
        "config.load_s": get("config", "s") / units,
        "cli.self_s": get("cli", "self_s") / units,
        "steady_state.calls": steady_calls / units,
        "steady_state.s": get("steady_state", "self_s") / units,
        "steady_state.branches_per_call": tracer.counters["steady_state.branches"] / max(steady_calls, 1),
        "dynamics.calls": get("dynamics", "calls") / units,
        "dynamics.s": get("dynamics", "self_s") / units,
        "lyapunov.gate_calls": gate_calls / units,
        "lyapunov.gate_s": get("lyapunov.gate", "self_s") / units,
        "lyapunov.stable_ratio": tracer.counters["lyapunov.stable"] / max(gate_calls, 1),
        "lyapunov.s": (get("lyapunov.gate", "self_s") + get("lyapunov.solve", "self_s")) / units,
        "lyapunov.solve_calls": get("lyapunov.solve", "calls") / units,
        "measures.calls": get("measures", "calls") / units,
        "stability.calls": get("stability", "calls") / units,
        "stability.s": get("stability", "self_s") / units,
        "engine.csv_bytes": tracer.counters["engine.csv_bytes"] / units,
        "engine.pool_speedup": wall["w2"] / wall["w1"],
        "trace.overhead_frac": rates["w1"] / rates["traced"] - 1.0,
        "lyapunov.solve_s": get("lyapunov.solve", "self_s") / units,
        "lyapunov.worst_residual": tracer.counters["lyapunov.worst_residual"],
        "measures.s": get("measures", "self_s") / units,
        "engine.run_point_s": run_point_s / units,
        "engine.run_point_self_s": get("engine.run_point", "self_s") / units,
        "engine.run_point_accounted": accounted / run_point_s if run_point_s else 0.0,
        "engine.sweep_self_s": get("engine.sweep", "self_s") / units,
        "engine.csv_s": get("engine.csv", "s") / units,
        "speed.factor": traced["factor"],
    }
    return m


def save_spans(tracer, path: Path) -> None:
    """Write every span as one JSON document: names plus parallel arrays."""
    doc = {
        "names": tracer.names,
        "name_id": list(tracer.name_id),
        "parent": list(tracer.parent),
        "start": list(tracer.start),
        "end": list(tracer.end),
    }
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(doc, fh)


def run_one(args) -> int:
    load_start = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pool = None
    # single-process work, setup interpreters and the probe share one CPU
    os.sched_setaffinity(0, {speed.WORK_CPU})
    probe = speed.SpeedProbe()
    try:
        workload = workloads.make(args.workload, args.seed, work)
        setup = measure_setup(workload, probe)
        sys.path.insert(0, str(SRC))
        import hopcav  # noqa: F401

        workload.prepare()
        if workload.needs_pool:
            with speed.on_all_cpus():
                pool = multiprocessing.get_context("spawn").Pool(
                    2, initializer=workloads.init_worker, initargs=(str(SRC),))
        with speed.on_all_cpus():
            workload.warm_up(pool)
        # collections while timing then traverse what hopcav allocates, not
        # the benchmark's own bookkeeping
        gc.collect()
        gc.freeze()
        if args.trace:
            traced = measure_traced(workload, args.seconds, pool, probe)
        else:
            measured = measure(workload, args.seconds, pool, probe)
    finally:
        probe.close()
        if pool is not None:
            # every map has returned, so no task is lost; on an error path
            # this also ends a worker still busy
            pool.terminate()
            pool.join()
            pool = None
        stop_children()
    attempted, failed, messages = workload.check()
    shutil.rmtree(work, ignore_errors=True)
    env = environment(load_start)

    if args.trace:
        values = layer_metrics(traced, setup)
        units = {**PER_LAYER, **TABLE_ONLY}
        samples = {k: traced["units"] for k in units}
        samples["setup.import_s"] = setup["n"]
        printed = PER_LAYER
    else:
        m = measured
        values = {
            "points_per_s": statistics.median(m.rates["w1"]),
            "points_per_s_w2": statistics.median(m.rates["w2"]),
            "point_ms_p50": statistics.median(m.chunk_p50) * 1e3,
            "point_ms_p90": statistics.median(m.chunk_p90) * 1e3,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": m.peak_rss_mb,
            "wall.points_per_s": statistics.median(m.wall_rates["w1"]),
            "wall.points_per_s_w2": statistics.median(m.wall_rates["w2"]),
            "wall.point_ms_p50": statistics.median(m.wall_latencies) * 1e3,
            "wall.point_ms_p90": p90(m.wall_latencies) * 1e3,
            "wall.setup_s": setup["wall_setup_s"],
            "wall.idle_frac": statistics.median(m.idle),
            "wall.idle_steps": sum(i > IDLE_MARK for i in m.idle),
            "speed.factor": statistics.median(m.factors),
        }
        units = {**END_TO_END, **WALL}
        n_w1, n_w2, n_lat = len(m.rates["w1"]), len(m.rates["w2"]), len(m.wall_latencies)
        calls = f"{n_lat} calls in {len(m.chunk_p50)} chunks"
        samples = {"points_per_s": n_w1, "points_per_s_w2": n_w2, "point_ms_p50": calls,
                   "point_ms_p90": calls, "setup_s": setup["n"], "peak_rss_mb": 1,
                   "wall.points_per_s": n_w1, "wall.points_per_s_w2": n_w2,
                   "wall.point_ms_p50": n_lat, "wall.point_ms_p90": n_lat,
                   "wall.setup_s": setup["n"], "wall.idle_frac": len(m.idle),
                   "wall.idle_steps": len(m.idle), "speed.factor": len(m.factors)}
        printed = END_TO_END

    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}  unit of work: {workload.unit_label}")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:>14.6g} {unit:6s} n={samples[name]}")
    print(f"  attempted {attempted}  failed {failed}  failed_frac {failed / max(attempted, 1):.3g}")
    for msg in messages[:20]:
        print(f"  check: {msg}")
    if not args.trace and values["wall.idle_steps"]:
        print(f"  warning: {values['wall.idle_steps']} single-process steps idle for more than "
              f"{IDLE_MARK:.0%} of their time; busy-time figures leave that time out")
    print(f"  env: {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": printed[k]} for k in printed},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": samples, "env": env, "messages": messages[:50],
              "table": {k: {"value": values[k], "unit": units[k]} for k in units}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        save_spans(traced["tracer"], OUT_DIR / f"{stem}.spans.json.gz")
    print(json.dumps(result))
    return 0 if correct else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args) -> int:
    """Every workload for every seed, interleaved, each run a fresh process."""
    seeds = [int(s) for s in args.seeds.split(",")]
    names = list(workloads.WORKLOADS)
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    runs = {name: [] for name in names}
    ok = True
    for seed in seeds:
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            result.update(seed=seed, exit=proc.returncode, wall_s=wall)
            record = OUT_DIR / f"BENCH_{name}_seed{seed}_trace{args.trace}.json"
            result["table"] = json.loads(record.read_text(encoding="utf-8"))["table"]
            runs[name].append(result)
            print(f"{name:10s} seed {seed:3d} exit {proc.returncode} wall {wall:5.1f}s "
                  f"correct {result['correct']} failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    print(f"\n{'workload':10s} {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} unit  n")
    for name, results in runs.items():
        if not results:
            continue
        summary[name] = {}
        for metric in results[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else math.inf
            unit = results[0]["metrics"][metric]["unit"]
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "unit": unit, "n": len(vals), "values": vals}
            bound = bounds.get(metric)
            print(f"{name:10s} {metric:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6} {unit:5s} {len(vals)}")
    out = OUT_DIR / f"BENCH_all_trace{args.trace}.json"
    OUT_DIR.mkdir(exist_ok=True)
    doc = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
           "env": environment(os.getloadavg()), "summary": summary, "runs": runs}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if ok else 1


def write_reference() -> int:
    """Regenerate the default-seed reference tables from the presets (grid
    workloads) and from ``hopcav point`` (point workload)."""
    sys.path.insert(0, str(SRC))
    from hopcav.engine import csv_text, run_sweep
    from hopcav.presets import fig_preset
    from hopcav.stability import stability_map

    ref = workloads.REFERENCE_DIR
    ref.mkdir(exist_ok=True)

    def put(key, text):
        (ref / f"{key}.csv.gz").write_bytes(gzip.compress(text.encode("utf-8"), 9, mtime=0))

    for name in ("fig2a", "fig2b", "fig6b"):
        put(name, workloads.data_text(csv_text(run_sweep(fig_preset(name)).records)))
    config = fig_preset("fig5")
    axes = {a.name: a.values for a in config.axes}
    lines = ["delta,xi,s1,s2,hurwitz_reduced,hurwitz_full,agree\n"]
    for r in stability_map(config.params, axes["delta"], axes["xi"]):
        lines.append(f"{r.delta:.12g},{r.xi:.12g},{r.s1:.12g},{r.s2:.12g},"
                     f"{str(r.hurwitz_reduced).lower()},{str(r.hurwitz_full).lower()},"
                     f"{str(r.agree).lower()}\n")
    put("fig5", "".join(lines))
    work = ROOT / ".perfbench_work" / "reference"
    paths = inputs.write_configs(
        {f"point{k:02d}": d for k, d in enumerate(inputs.point_configs(inputs.DEFAULT_SEED))}, work)
    records = []
    for path in paths.values():
        code, out = workloads.cli_call(["point", "--config", str(path), "--json"])
        if code != 0:
            raise RuntimeError(f"hopcav point failed on {path}")
        records.append(json.loads(out)["record"])
    (ref / "point.json").write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    print(f"wrote reference tables to {ref}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload for every seed")
    parser.add_argument("--seeds", default="0", help="comma-separated seeds for --all")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the default-seed reference tables")
    args = parser.parse_args(argv)

    if not (SRC / "hopcav" / "__init__.py").is_file():
        print(f"no hopcav sources under {SRC}; run from the root of a hopcav checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
