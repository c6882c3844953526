"""The four benchmark workloads.

Every unit of work calls ``hopcav.cli.main`` in-process with the argument
list a user would type, so configuration loading, the pipeline and output
writing are all inside the timed region.  The outputs of every unit are kept
(one copy of each distinct text) and checked after timing ends.

``points_per_s_w2`` uses hopcav's own process pool (``--workers 2``) where
the command has one, which is ``sweep``.  ``stability`` and ``point`` have no
worker option, so there the benchmark splits the same work over a two-process
pool of its own, started once per run and warmed before timing: the figure
says what two CPUs give that path today.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import gzip
import io
import json
import random
import sys
import time
from pathlib import Path

import check
import inputs
import speed

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LATENCY_SAMPLES = 100   # distinct points per grid preset
LATENCY_STEP_S = 0.5    # one latency step: single points, back to back
POINT_BLOCK = 200


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``hopcav.cli.main`` in this process; returns exit code and stdout."""
    from hopcav import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_code(argv: list[str]) -> int:
    """Pool task: one CLI call, stdout dropped."""
    return cli_call(argv)[0]


def point_block(paths: list[str], count: int, offset: int) -> list[tuple[tuple[int, int, str], int]]:
    """Pool task: a closed loop of ``point`` calls over the configurations;
    returns each distinct (config index, exit code, stdout) with its count."""
    seen = collections.Counter()
    for j in range(count):
        k = (offset + j) % len(paths)
        code, out = cli_call(["point", "--config", paths[k], "--json"])
        seen[(k, code, out)] += 1
    return list(seen.items())


def init_worker(src: str) -> None:
    sys.path.insert(0, src)
    import hopcav.cli  # noqa: F401  (import cost stays out of the timed calls)


def data_text(csv_text: str) -> str:
    """A CSV without its '#' header lines, which carry labels only."""
    return "".join(line for line in csv_text.splitlines(keepends=True) if not line.startswith("#"))


def load_reference(key: str):
    path = REFERENCE_DIR / f"{key}.csv.gz"
    if path.exists():
        return check.read_table(gzip.decompress(path.read_bytes()).decode("utf-8"))
    path = REFERENCE_DIR / f"{key}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


class Workload:
    name = ""
    unit_label = ""
    # interleaved steps: one worker, two workers, and single-point latencies
    # between them, so that each kind samples the whole run
    kinds = ["w1", "lat", "w2", "lat"]
    needs_pool = False  # a benchmark-side pool for the two-process steps

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        # output key -> {(exit code, text): occurrences}
        self.outputs: dict[str, collections.Counter] = collections.defaultdict(collections.Counter)
        # which grid positions are timed one by one does not depend on the
        # seed: the seed moves the grid, and the timed set stays comparable
        self.rng = random.Random(0)
        self.latency_attempted = 0
        self.latency_failed = 0

    # subclasses: setup_code(src), prepare(), points(step, workers),
    # run(step, workers, pool), point_call(step) -> (call, samples),
    # point_problems(result), check() -> (attempted, failed, messages)

    def warm_up(self, pool) -> None:
        """Untimed: first calls through every code path, pool workers busy."""
        self.latency_batch(0, 0.2)
        if pool is not None:
            self.run(0, 2, pool)
        self.latency_batch(1, 0.2)

    def latency_batch(self, step: int, seconds: float = LATENCY_STEP_S) -> list[tuple]:
        """Time single points back to back, cycling through the samples, for
        ``seconds``; each result is checked outside its timed interval.
        Returns (start, wall seconds, CPU seconds) per call."""
        call, samples = self.point_call(step)
        times = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            sample = samples[len(times) % len(samples)]
            t0, c0 = time.perf_counter(), speed.cpu_seconds(live_children=False)
            result = call(sample)
            times.append((t0, time.perf_counter() - t0, speed.cpu_seconds(live_children=False) - c0))
            # checked at once, so that results do not pile up on the heap
            self.latency_attempted += 1
            if self.point_problems(result):
                self.latency_failed += 1
        return times

    def pending_latencies(self) -> list[tuple]:
        return []


def _setup_code(src: str, body: str) -> str:
    return (
        "import json, sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "t0, c0 = time.perf_counter(), time.process_time()\n"
        "import hopcav\n"
        "t1, c1 = time.perf_counter(), time.process_time()\n"
        f"{body}\n"
        "t2, c2 = time.perf_counter(), time.process_time()\n"
        "print(json.dumps({'import_s': [t1 - t0, c1 - c0], 'setup_s': [t2 - t0, c2 - c0]}))\n"
    )


class GridWorkload(Workload):
    """``hopcav sweep`` over preset-shaped grids, with 1 and 2 workers."""

    unit_label = "sweeps"

    def __init__(self, name: str, seed: int, work: Path):
        super().__init__(seed, work)
        self.name = name
        self.docs = inputs.grid_configs(name, seed)
        self.paths = inputs.write_configs(self.docs, work / "inputs")
        self.presets = list(self.docs)
        self.configs = {}
        self.samples = {}

    def setup_code(self, src: str) -> str:
        return _setup_code(src, "from hopcav.presets import fig_preset\n"
                                + "".join(f"fig_preset({p!r})\n" for p in self.presets))

    def prepare(self) -> None:
        from hopcav.config import load_config
        from hopcav.engine import grid_points, run_point

        for preset, path in self.paths.items():
            config = self.configs[preset] = load_config(path)
            grid = grid_points(config)
            # latency is sampled on stable points only: an unstable point stops
            # at the gate and costs a third as much, and with half the grid
            # stable a median over both kinds falls between the two
            stable = []
            for i in self.rng.sample(range(len(grid)), len(grid)):
                if all(r.stable for r in run_point(config, grid[i]).records):
                    stable.append(grid[i])
                    if len(stable) == LATENCY_SAMPLES:
                        break
            self.samples[preset] = stable

    def _preset(self, step: int) -> str:
        return self.presets[step % len(self.presets)]

    def points(self, step: int, workers: int) -> int:
        return inputs.grid_size(self.docs[self._preset(step)])

    def run(self, step: int, workers: int, pool=None) -> None:
        preset = self._preset(step)
        out = self.work / f"{preset}.w{workers}.csv"
        # a unit that writes no file fails, rather than finding the last one's
        out.unlink(missing_ok=True)
        code, _ = cli_call(["sweep", "--config", str(self.paths[preset]), "--out", str(out),
                            "--workers", str(workers)])
        self.record(preset, code, out)

    def record(self, preset: str, code: int, out: Path) -> None:
        self.outputs[preset][(code, data_text(out.read_text(encoding="utf-8")) if out.exists() else "")] += 1

    def point_call(self, step: int):
        from hopcav import engine

        preset = self._preset(step)
        config = self.configs[preset]
        return (lambda overrides: engine.run_point(config, overrides)), self.samples[preset]

    def point_problems(self, result) -> list[str]:
        from hopcav.engine import CSV_COLUMNS

        return [p for rec in result.records
                for p in check.sweep_row_problems({c: getattr(rec, c) for c in CSV_COLUMNS})]

    def check(self) -> tuple[int, int, list[str]]:
        return _check_tables(self.outputs, self.seed, check.sweep_row_problems,
                             self.latency_attempted, self.latency_failed)


class StabilityWorkload(GridWorkload):
    """``hopcav stability`` over the fig5 grid."""

    unit_label = "maps"
    needs_pool = True

    def __init__(self, seed: int, work: Path):
        super().__init__("stability", seed, work)
        doc = self.docs["fig5"]
        delta = doc["axes"][0]["values"]
        half = len(delta) // 2 + 1
        halves = {}
        for part, values in (("lo", delta[:half]), ("hi", delta[half:])):
            d = copy.deepcopy(doc)
            d["axes"][0]["values"] = values
            d["label"] = f"fig5-{part}"
            halves[f"fig5-{part}"] = d
        self.half_paths = inputs.write_configs(halves, work / "inputs")

    def prepare(self) -> None:
        from hopcav.config import load_config

        config = load_config(self.paths["fig5"])
        axes = {a.name: a.values for a in config.axes}
        self.params = config.params
        self.stab_samples = [(self.rng.choice(axes["delta"]), self.rng.choice(axes["xi"]))
                             for _ in range(1000)]

    def run(self, step: int, workers: int, pool=None) -> None:
        if workers == 1:
            out = self.work / "fig5.w1.csv"
            out.unlink(missing_ok=True)
            code, _ = cli_call(["stability", "--config", str(self.paths["fig5"]), "--out", str(out)])
            self.record("fig5", code, out)
            return
        outs = [self.work / f"{name}.w2.csv" for name in self.half_paths]
        for out in outs:
            out.unlink(missing_ok=True)
        argvs = [["stability", "--config", str(path), "--out", str(out)]
                 for path, out in zip(self.half_paths.values(), outs)]
        codes = pool.map(cli_code, argvs, chunksize=1)
        parts = [data_text(out.read_text(encoding="utf-8")) if out.exists() else "" for out in outs]
        # the halves' rows, under one column-name row, are the whole map's rows
        joined = parts[0] + parts[1].split("\n", 1)[-1]
        self.outputs["fig5"][(max(codes), joined)] += 1

    def point_call(self, step: int):
        from hopcav import stability

        return (lambda dx: stability.stability_point(self.params, *dx)), self.stab_samples

    def point_problems(self, report) -> list[str]:
        return check.stability_row_problems({"agree": report.agree})

    def check(self) -> tuple[int, int, list[str]]:
        return _check_tables(self.outputs, self.seed, check.stability_row_problems,
                             self.latency_attempted, self.latency_failed)


class PointWorkload(Workload):
    """A closed loop with one client calling ``hopcav point --json``."""

    name = "point"
    unit_label = "blocks"
    kinds = ["w1", "w2"]  # the latencies are those of the one-client blocks
    needs_pool = True

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        docs = {f"point{k:02d}": d for k, d in enumerate(inputs.point_configs(seed))}
        self.paths = [str(p) for p in inputs.write_configs(docs, work / "inputs").values()]
        self.latencies: list[tuple] = []

    def setup_code(self, src: str) -> str:
        return _setup_code(src, f"from hopcav.config import load_config\nload_config({self.paths[0]!r})")

    def prepare(self) -> None:
        pass

    def points(self, step: int, workers: int) -> int:
        return POINT_BLOCK * workers

    def run(self, step: int, workers: int, pool=None) -> None:
        offset = step * POINT_BLOCK
        if workers == 1:
            for j in range(POINT_BLOCK):
                k = (offset + j) % len(self.paths)
                t0, c0 = time.perf_counter(), speed.cpu_seconds(live_children=False)
                code, out = cli_call(["point", "--config", self.paths[k], "--json"])
                self.latencies.append((t0, time.perf_counter() - t0,
                                       speed.cpu_seconds(live_children=False) - c0))
                self.outputs[str(k)][(code, out)] += 1
            return
        tasks = [(self.paths, POINT_BLOCK, offset), (self.paths, POINT_BLOCK, offset + POINT_BLOCK // 2)]
        for block in pool.starmap(point_block, tasks, chunksize=1):
            for (k, code, out), count in block:
                self.outputs[str(k)][(code, out)] += count

    def warm_up(self, pool) -> None:
        self.run(0, 1, pool)
        self.run(0, 2, pool)
        self.pending_latencies()

    def pending_latencies(self) -> list[tuple]:
        batch, self.latencies = self.latencies, []
        return batch

    def check(self) -> tuple[int, int, list[str]]:
        reference = load_reference("point") if self.seed == inputs.DEFAULT_SEED else None
        attempted = failed = 0
        messages = []
        for key, seen in sorted(self.outputs.items(), key=lambda kv: int(kv[0])):
            canonical = None
            for (code, out), count in seen.items():
                attempted += count
                problems = [f"exit code {code}"] if code != 0 else []
                if not problems:
                    record = json.loads(out)["record"]
                    problems = check.sweep_row_problems(record)
                    if reference is not None:
                        problems += check.compare_row(record, reference[int(key)])
                    if canonical is None:
                        canonical = record
                    else:
                        problems += check.compare_row(record, canonical)
                if problems:
                    failed += count
                    messages.append(f"point config {key}: {problems[:3]}")
        return attempted, failed, messages


def _check_tables(outputs: dict, seed: int, invariants, attempted: int, failed: int):
    """Check every distinct output table; rows count once per occurrence."""
    messages = []
    for key, seen in outputs.items():
        reference = load_reference(key) if seed == inputs.DEFAULT_SEED else None
        canonical = None
        for (code, text), count in seen.items():
            rows = check.read_table(text) if text else []
            if code != 0 or not rows:
                attempted += count * max(1, len(rows))
                failed += count * max(1, len(rows))
                messages.append(f"{key}: exit code {code}, {len(rows)} rows")
                continue
            bad = check.check_rows(rows, reference, invariants)
            if canonical is None:
                canonical = rows
            elif rows != canonical:
                # outputs are byte-deterministic, whatever the worker count
                for i, problems in check.check_rows(rows, canonical, lambda row: []).items():
                    bad.setdefault(i, []).extend(problems)
            attempted += count * len(rows)
            failed += count * check.failed_count(bad, len(rows))
            for i, problems in list(bad.items())[:3]:
                messages.append(f"{key} row {i}: {problems[:3]}")
    return attempted, failed, messages


def make(name: str, seed: int, work: Path) -> Workload:
    if name in ("surface", "bare"):
        return GridWorkload(name, seed, work)
    if name == "stability":
        return StabilityWorkload(seed, work)
    if name == "point":
        return PointWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("surface", "bare", "stability", "point")
