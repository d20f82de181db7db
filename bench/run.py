"""hooklab benchmark: census-scan, series-scan and verify-suite.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run repeats whole passes of the workload, each in a
fresh interpreter, for about S seconds, checks every output against the
independent references in ``checks.py``, and prints the end-to-end metrics
(times of the fastest pass and set-up, the median peak memory).  With
``--trace 1`` it runs one traced and one untraced pass, the direct layer
calls of the probe, and the import-time probes, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout, never from an
installed copy; the run exits 2 without a result when ``src/hooklab`` is
missing.  Everything the run writes goes under ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_run"

WORKLOADS = ("census-scan", "series-scan", "verify-suite")
# every child is killed once the run has taken --seconds plus this margin,
# which covers the last pass, the set-up samples, the dump and the probe
RUN_MARGIN_S = 140.0
SETUP_SAMPLES = 12    # set-ups per run, counting those of the passes
SETUP_PER_PASS = 3    # set-up-only samples before each pass, spread over the run

# census-scan: a cold scan at N, four cache-served censuses, an extension to
# N + DELTA and a repeat.  At N = 84 the cold r1/r2 censuses project more
# than hooks._PARALLEL_THRESHOLD partitions and use the pool, g1/g2 do not.
CENSUS_N, CENSUS_DELTA = 84, 2
SERIES_ORDER = 5000
POOL_CLASSES = ("r1", "r2")   # the probe's census_rows pair (both use the pool)

END_TO_END = {  # name -> unit; the pass's own figures over the passes of a run
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
}


def workers_available() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def make_inputs(workload: str, seed: int, workers: int, *, small: bool = False) -> dict:
    """The generated inputs of one workload.  ``small`` gives the reduced
    versions the probe runs for layers a traced pass never calls."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census-scan":
        n, delta = (40, 2) if small else (CENSUS_N, CENSUS_DELTA)
        order = list(checks.CLASSES)
        rng.shuffle(order)
        return {"n": n, "delta": delta, "t": [3, 4], "t_max": 4, "class_order": order,
                "workers": workers}
    if workload == "series-scan":
        order = 600 if small else SERIES_ORDER
        crossover = sorted(checks.CROSSOVER_PAIRS)
        ratios = sorted(f"{k}-model" for k in ("r11", "r12", "r21", "r22", "g11", "g12", "g21", "g22"))
        ratios += sorted(checks.CROSS_RATIOS)
        bivariate = [(fam, j, t) for fam in "RG" for j in (1, 2) for t in (1, 2)]
        for seq in (crossover, ratios, bivariate):
            rng.shuffle(seq)
        # checkpoints below the order are drawn where every cross-ratio is
        # already closing in on its limit (the approach is monotone past 40)
        low = sorted(rng.sample(range(100, order), 3))
        return {
            "crossover_n": order,
            "crossover_pairs": crossover,
            "ratio_pairs": ratios,
            "checkpoints": low + [order],
            "identity_order": 600 if small else 2000,
            "bivariate": bivariate,
            "bivariate_order": 40 if small else 150,
            "asym_targets": ["S11", "H11"],
            "asym_eps": [0.05, 0.02] if small else [0.05, 0.02, 0.01, 0.005, 0.003],
            "eta_eps": [0.05] if small else [0.05, 0.02, 0.01],
        }
    if workload == "verify-suite":
        n_max = 16 if small else 40
        corrupt_n = 12 if small else 16
        key = rng.choice(sorted(checks.SERIES_CLASS))
        return {"n_max": n_max, "corrupt_n": corrupt_n,
                "corrupt": [key, rng.randint(1, corrupt_n), rng.choice([-2, -1, 1, 2])]}
    raise ValueError(workload)


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


class Runner:
    """Starts every child of one run and keeps the run inside its limit."""

    def __init__(self, run_dir: Path, seconds: int):
        self.run_dir = run_dir
        self.deadline = monotonic() + seconds + RUN_MARGIN_S
        self.env = {k: v for k, v in os.environ.items() if k not in ("HOOKLAB_CACHE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.count = 0

    def _run(self, argv: list, log: Path, **kw) -> subprocess.CompletedProcess:
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise RuntimeError("run limit reached")
        with open(log, "w") as fh:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=fh, stderr=subprocess.PIPE,
                                    start_new_session=True, text=True, **kw)
            try:
                _, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
                proc.communicate()
                raise RuntimeError(f"{argv[1:]} did not finish inside the run limit")
        return subprocess.CompletedProcess(argv, proc.returncode, "", err)

    def child(self, mode: str, workload: str, inputs: dict, trace: bool = False) -> tuple:
        """Run child.py; returns (result, set-up seconds)."""
        d = self.run_dir / f"{self.count:02d}-{mode}"
        self.count += 1
        d.mkdir(parents=True)
        spec = {"mode": mode, "workload": workload, "inputs": inputs, "dir": str(d),
                "src": str(SRC), "trace": trace}
        (d / "spec.json").write_text(json.dumps(spec))
        start = monotonic()
        done = self._run([sys.executable, str(CHILD), str(d / "spec.json")], d / "stdout.log")
        if done.returncode != 0:
            raise RuntimeError(f"{mode} child exited {done.returncode}: {done.stderr[-1500:]}")
        result = json.loads((d / "result.json").read_text())
        result["dir"] = str(d)
        return result, result["ready"] - start

    def python(self, args: list) -> subprocess.CompletedProcess:
        d = self.run_dir / f"{self.count:02d}-python"
        self.count += 1
        d.mkdir(parents=True)
        done = self._run([sys.executable, *args], d / "stdout.log")
        if done.returncode != 0:
            raise RuntimeError(f"python {args} exited {done.returncode}: {done.stderr[-1500:]}")
        done.stdout = (d / "stdout.log").read_text()
        return done


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock child.py stamps with


# --------------------------------------------------------------------------
# checking a pass
# --------------------------------------------------------------------------


def check_passes(runner, workload: str, inputs: dict, passes: list) -> tuple:
    """(attempted, failed, wrong, messages) over all passes of a run.

    An operation fails when it raises, exits non-zero, or an output check
    names it; ``wrong`` counts failures that produced an output (a wrong
    answer rather than an error)."""
    refs = checks.References(workload, inputs)
    series = bad = None
    if workload == "series-scan":
        series = runner.child("dump", workload, inputs)[0]["series"]
        bad = checks.series_problems(series, inputs["crossover_n"], refs)
    attempted = failed = wrong = 0
    messages = [f"series {k}: {m}" for k, m in (bad or {}).items()]
    for res in passes:
        errored = {op["name"] for op in res["ops"] if op["error"] or op["rc"] not in (None, 0)}
        for op in res["ops"]:
            if op["name"] in errored:
                messages.append(f"{op['name']}: rc={op['rc']} {op['error'] or op.get('stderr', '')}")
        if workload == "census-scan":
            fails = checks.check_census(inputs, res, refs)
        elif workload == "series-scan":
            fails = checks.check_series(inputs, res, refs, series, bad)
        else:
            fails = checks.check_verify(inputs, res)
        flagged = {name for name, _ in fails} - errored
        messages += [f"{name}: {msg}" for name, msg in fails if name in flagged]
        attempted += len(res["ops"])
        failed += len(errored | flagged)
        wrong += len(flagged)
    return attempted, failed, wrong, messages


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def run_timed(runner: Runner, workload: str, seed: int, seconds: int) -> tuple:
    inputs = make_inputs(workload, seed, workers_available())
    start = monotonic()
    passes, setups, rounds = [], [], []
    while True:
        begin = monotonic()
        for _ in range(SETUP_PER_PASS):
            setups.append(runner.child("setup", workload, inputs)[1])
        res, setup = runner.child("pass", workload, inputs)
        passes.append(res)
        setups.append(setup)
        rounds.append(monotonic() - begin)
        # whole passes only: start another while at least half of one fits
        if monotonic() - start + max(rounds) / 2 > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup", workload, inputs)[1])
    attempted, failed, wrong, messages = check_passes(runner, workload, inputs, passes)
    # Times are the fastest of the run: on a shared virtual machine the CPU
    # speed can drift by tens of percent within seconds, and the minimum is
    # the figure the slow stretches disturb least.  Memory does not drift;
    # it is a median.
    metrics = {
        "setup_s": min(setups),
        "wall_s": min(r["wall_s"] for r in passes),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in passes),
    }
    steps = {k: min(r["metrics"][k] for r in passes) for k in passes[0]["metrics"]}
    lines = [f"{workload} seed {seed}: {len(passes)} passes of {len(passes[0]['ops'])} operations, "
             f"{attempted} attempted, {failed} failed"]
    lines += [f"  {k:<14} {v:.4f} {END_TO_END[k]}" for k, v in metrics.items()]
    lines.append("  wall_s of each pass: " + ", ".join(f"{r['wall_s']:.4f}" for r in passes))
    lines.append("  setup_s of each sample: " + ", ".join(f"{v:.4f}" for v in setups))
    # step times are printed for reading; the JSON holds the metrics every workload has
    lines += [f"  {k:<14} {v:.4f} s  (step, fastest pass)" for k, v in steps.items()]
    out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return attempted, failed, wrong, messages, out, lines


PER_LAYER = {  # name -> unit
    "classes.enum_s": "s",
    "classes.members_enumerated": "count",
    "classes.enum_rate.r1": "1/s",
    "classes.enum_rate.r2": "1/s",
    "classes.enum_rate.g1": "1/s",
    "classes.enum_rate.g2": "1/s",
    "hooks.census_rows_s": "s",
    "hooks.bin_self_s": "s",
    "hooks.pool_speedup": "ratio",
    "hooks.t_hook_count_calls": "count",
    "hooks.t_hook_count_s": "s",
    "hooks.geometry_s": "s",
    "qseries.builds": "count",
    "qseries.distinct_builds": "count",
    "qseries.sum_side_s": "s",
    "qseries.product_side_s": "s",
    "qseries.identity_s": "s",
    "qseries.bivariate_sum_s": "s",
    "qseries.bivariate_product_s": "s",
    "asym.eta_residual_s": "s",
    "asym.saddle_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.cache_hit_s": "s",
    "cli.cache_io_s": "s",
    "cli.cache_writes": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

IMPORT_TIMER = ("import time; t = time.perf_counter(); import hooklab.cli; "
                "print(time.perf_counter() - t)")


def scipy_import_share(importtime_log: str) -> float:
    """scipy's share of the time ``import hooklab.cli`` takes, from the
    ``python -X importtime`` log: the cumulative time of every scipy module
    whose importer is not itself a scipy module, over that of the hooklab
    modules imported at top level."""
    entries = []
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    scipy, stack = 0, []
    for level, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += cumulative
        stack.append((level, name))
    total = sum(c for level, name, c in entries if level == 0 and name.split(".")[0] == "hooklab")
    return scipy / total


def run_traced(runner: Runner, workload: str, seed: int) -> tuple:
    workers = workers_available()
    # one census worker keeps every span of the traced pass in one process
    inputs = make_inputs(workload, seed, 1)
    traced = runner.child("pass", workload, inputs, trace=True)[0]
    untraced = runner.child("pass", workload, inputs)[0]
    probe_inputs = {
        "census_top": CENSUS_N + CENSUS_DELTA,
        "t_max": 4,
        "pool_classes": list(POOL_CLASSES),
        "workers": workers,
        "mini": {w: make_inputs(w, seed, 1, small=True) for w in WORKLOADS},
    }
    probe = runner.child("probe", workload, probe_inputs)[0]
    imports = [float(runner.python(["-c", IMPORT_TIMER]).stdout) for _ in range(3)]
    scipy = [scipy_import_share(runner.python(["-X", "importtime", "-c", "import hooklab.cli"]).stderr)
             for _ in range(3)]

    attempted, failed, wrong, messages = check_passes(runner, workload, inputs, [traced, untraced])
    for name, ops in probe["mini_failures"].items():
        messages += [f"probe {name}: {op} failed" for op in ops]

    enum = probe["enum"]
    rows = probe["census_rows"]
    one = sum(rows[f"{c}@1"] for c in POOL_CLASSES)
    many = sum(rows[f"{c}@{workers}"] for c in POOL_CLASSES)
    m = {
        "classes.enum_s": sum(e["seconds"] for e in enum.values()),
        **{f"classes.enum_rate.{c}": e["members"] / e["seconds"] for c, e in enum.items()},
        "hooks.census_rows_s": one,
        "hooks.bin_self_s": one - sum(enum[c]["seconds"] for c in POOL_CLASSES),
        "hooks.pool_speedup": one / many,
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(imports) * statistics.median(scipy),
        "trace.traced_wall_s": traced["wall_s"],
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    sources = {}
    for group in ("census", "cache", "geometry", "series", "bivariate", "asym"):
        source = "pass" if group in traced["layers"] else "probe"
        sources[group] = source
        m.update((traced if source == "pass" else probe)["layers"][group])
    lines = [f"{workload} seed {seed} traced: {attempted} attempted, {failed} failed",
             f"  spans: {traced['dir']}/trace.jsonl and {probe['dir']}/trace.jsonl",
             "  layer groups measured on the pass: "
             + ", ".join(g for g, s in sources.items() if s == "pass")
             + "; on the probe: " + ", ".join(g for g, s in sources.items() if s == "probe")]
    lines += [f"  {k:<28} {m[k]:.6g} {u}" for k, u in PER_LAYER.items()]
    out = {k: {"value": m[k], "unit": u} for k, u in PER_LAYER.items()}
    return attempted, failed, wrong, messages, out, lines


def prune(run_dir: Path) -> None:
    """Keep the spans and the printed lines; drop caches, CSVs and dumps."""
    for d in run_dir.iterdir():
        for path in d.iterdir():
            if path.name not in ("trace.jsonl", "stdout.log"):
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "hooklab" / "cli.py").is_file():
        print(f"error: no hooklab sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, args.seconds)
    try:
        if args.trace:
            attempted, failed, wrong, messages, metrics, lines = run_traced(runner, args.workload, args.seed)
        else:
            attempted, failed, wrong, messages, metrics, lines = run_timed(
                runner, args.workload, args.seed, args.seconds)
    except (RuntimeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for msg in messages[:50]:
        print(f"  FAILED {msg}")
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    prune(run_dir)
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
