"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/child.py SPEC.json

The spec names the mode (``pass``, ``setup``, ``probe`` or ``dump``), the workload and
its generated inputs, and the pass directory.  The child writes
``result.json`` into that directory: the instant its set-up ended, the
operations it ran with their outputs and times, and the pass metrics.  It
decides nothing about correctness beyond recording exit codes and
exceptions; ``run.py`` checks the outputs against ``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract
    # its own reading taken just before it started this process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Pass:
    """Runs operations, timing each, and keeps their outputs for the checks."""

    def __init__(self, tracer=None):
        self.ops = []
        self.tracer = tracer

    def cli(self, name: str, group: str, argv: list) -> dict:
        from hooklab import cli

        if self.tracer is not None:
            self.tracer.op = name
        out, err = io.StringIO(), io.StringIO()
        rec = {"name": name, "group": group, "argv": argv, "rc": None, "error": None, "out": None}
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rec["rc"] = cli.main(argv)
        except Exception as exc:  # recorded and counted as a failed operation
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - start
        if rec["rc"] is not None:
            try:
                rec["out"] = json.loads(out.getvalue())
            except json.JSONDecodeError:
                rec["error"] = "stdout is not JSON: " + out.getvalue()[:200]
        if err.getvalue():
            rec["stderr"] = err.getvalue()[-2000:]
        self.ops.append(rec)
        return rec

    def lib(self, name: str, group: str, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = name
        rec = {"name": name, "group": group, "rc": None, "error": None, "out": None}
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - start
        self.ops.append(rec)
        return rec, result

    def seconds(self, group: str) -> float:
        return sum(op["seconds"] for op in self.ops if op["group"] == group)


# --------------------------------------------------------------------------
# the three workload passes
# --------------------------------------------------------------------------


def _cache_state(cache: Path) -> dict:
    state = {}
    for path in sorted(cache.glob("census-*.json")):
        st = path.stat()
        state[path.name] = (st.st_mtime_ns, st.st_ino)
    return state


def census_scan(spec: dict, work: Path, p: Pass, result: dict) -> None:
    n, top, w = spec["n"], spec["n"] + spec["delta"], str(spec["workers"])
    t_arg = ",".join(str(t) for t in spec["t"])
    cache, out = work / "cache", work / "out"
    writes = 0
    state = _cache_state(cache)

    def step(name: str, group: str, argv: list) -> dict:
        nonlocal writes, state
        rec = p.cli(name, group, argv)
        if p.tracer is not None:  # counted in the traced pass only
            after = _cache_state(cache)
            writes += sum(1 for k, v in after.items() if state.get(k) != v)
            state = after
        return rec

    start = time.perf_counter()
    step("conjecture-cold", "conjecture",
         ["conjecture", "--t", t_arg, "--n-max", str(n), "--cache", str(cache), "--workers", w, "--json"])
    for c in spec["class_order"]:
        step(f"census-{c}", "census",
             ["census", "--class", c, "--n-max", str(n), "--t-max", str(spec["t_max"]),
              "--cache", str(cache), "--out", str(out / f"{c}.csv"), "--workers", w, "--json"])
    step("conjecture-extend", "extend",
         ["conjecture", "--t", t_arg, "--n-max", str(top), "--cache", str(cache), "--workers", w, "--json"])
    step("conjecture-repeat", "repeat",
         ["conjecture", "--t", t_arg, "--n-max", str(top), "--cache", str(cache), "--workers", w, "--json"])
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mib"] = peak_rss_mib()
    result["metrics"] = {"conjecture_s": p.seconds("conjecture"), "extend_s": p.seconds("extend")}
    result["cache_writes"] = writes

    files = {}
    for c in spec["class_order"]:
        csv = out / f"{c}.csv"
        side = csv.with_suffix(".json")
        files[c] = {
            "csv": csv.read_text() if csv.is_file() else None,
            "sidecar": side.read_text() if side.is_file() else None,
            "cache": (cache / f"census-{c}.json").read_text()
            if (cache / f"census-{c}.json").is_file() else None,
        }
    result["files"] = files


def series_scan(spec: dict, work: Path, p: Pass, result: dict) -> None:
    from hooklab import asym, qseries
    from hooklab.classes import ClassId

    cps = ",".join(str(c) for c in spec["checkpoints"])
    built = {}
    start = time.perf_counter()
    for pair in spec["crossover_pairs"]:
        p.cli(f"crossover-{pair}", "crossover",
              ["crossover", "--pair", pair, "--n-max", str(spec["crossover_n"]), "--json"])
    for pair in spec["ratio_pairs"]:
        p.cli(f"ratios-{pair}", "ratios", ["ratios", "--pair", pair, "--checkpoints", cps, "--json"])
    for which in ("RR1", "LG1"):
        rec, chk = p.lib(f"identity-{which}", "identity",
                         qseries.identity_check_sum_product, which, spec["identity_order"])
        if chk is not None:
            rec["out"] = {"which": chk.which, "order": chk.order, "ok": chk.ok,
                          "first_mismatch": chk.first_mismatch}
    for fam, j, t in spec["bivariate"]:
        builder = qseries.bivariate_R if fam == "R" else qseries.bivariate_G
        rec, b = p.lib(f"bivariate-{fam}{j}{t}", "bivariate", builder, j, t, spec["bivariate_order"])
        built[rec["name"]] = (rec, b)
    for target in spec["asym_targets"]:
        p.cli(f"asym-{target}", "asym",
              ["asym", "--target", target, "--eps", ",".join(repr(e) for e in spec["asym_eps"]), "--json"])
    for eps in spec["eta_eps"]:
        rec, res = p.lib(f"eta-{eps!r}", "asym", asym.eta_asym_residual, asym.ComplexParam(eps))
        if res is not None:
            rec["out"] = {"epsilon": eps, "re": res.real, "im": res.imag}
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mib"] = peak_rss_mib()
    result["metrics"] = {
        "crossover_s": p.seconds("crossover"),
        "ratios_s": p.seconds("ratios"),
        "bivariate_s": p.seconds("bivariate"),
        "asym_s": p.seconds("asym"),
    }

    # untimed: reduce the bivariate tables and fetch the data the checks need
    for rec, b in built.values():
        if b is not None:
            rec["out"] = {"at_x_one": b.at_x_one().coeffs, "x_derivative": b.x_derivative_at_one().coeffs}
    order = spec["bivariate_order"]
    result["counting_series"] = {
        cid.value: qseries.counting_series(cid, order).coeffs for cid in ClassId
    }


def dump_series(spec: dict, result: dict) -> None:
    """The eight series at the crossover order, for the checks of a run."""
    from hooklab import qseries

    n = spec["crossover_n"]
    result["series"] = {
        f"{name}{j}{t}": build(j, t, n).coeffs
        for name, build in (("S", qseries.series_S), ("H", qseries.series_H))
        for j in (1, 2) for t in (1, 2)
    }


def verify_suite(spec: dict, work: Path, p: Pass, result: dict) -> None:
    from hooklab import cli

    start = time.perf_counter()
    p.cli("verify", "verify", ["verify", "--n-max", str(spec["n_max"]), "--workers", "1", "--json"])
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mib"] = peak_rss_mib()
    result["metrics"] = {"verify_s": p.seconds("verify")}

    # untimed: the oracle must still catch a planted error
    key, exponent, delta = spec["corrupt"]
    if p.tracer is not None:
        p.tracer.active = False
    try:
        checks = cli.verify_report(spec["corrupt_n"], workers=1, _corrupt=(key, exponent, delta))
        result["corrupt"] = [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks]
    except Exception as exc:  # reported by the check as an oracle that did not bite
        result["corrupt"] = f"{type(exc).__name__}: {exc}"
    finally:
        if p.tracer is not None:
            p.tracer.active = True


WORKLOADS = {"census-scan": census_scan, "series-scan": series_scan, "verify-suite": verify_suite}


def peak_rss_mib() -> float:
    """Peak resident set of this process or of any pool worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# --------------------------------------------------------------------------
# tracing: which functions are spanned, and what the spans add up to
# --------------------------------------------------------------------------


def install_tracer():
    from tracing import Tracer

    from hooklab import asym, cli, qseries

    tr = Tracer()

    def census_attrs(args, kwargs, rows):
        return {"workers": kwargs.get("workers"), "members": sum(card for _, _, card in rows.values())}

    def series_attrs(args, kwargs, result):
        return {"key": list(args[:3])}

    def cached_attrs(args, kwargs, result):
        cache_dir = args[3] if len(args) > 3 else kwargs.get("cache_dir")
        return {"cached": cache_dir is not None}

    tr.wrap(cli, "cached_census", "cli.cached_census", attrs=cached_attrs)
    tr.wrap(cli, "census_rows", "hooks.census_rows", attrs=census_attrs)
    tr.wrap(cli, "t_hook_count", "hooks.t_hook_count", leaf=True)
    tr.wrap(cli, "conjugate", "hooks.conjugate", leaf=True)
    tr.wrap(cli, "shortcut_stats", "hooks.shortcut_stats", leaf=True)
    tr.wrap(cli, "series_S", "qseries.series_S", attrs=series_attrs)
    tr.wrap(cli, "series_H", "qseries.series_H", attrs=series_attrs)
    tr.wrap(cli, "identity_check_sum_product", "qseries.identity_check_sum_product")
    tr.wrap(qseries, "identity_check_sum_product", "qseries.identity_check_sum_product")
    for name in ("bivariate_R", "bivariate_G"):
        tr.wrap(qseries, name, f"qseries.{name}", attrs=series_attrs)
    for name in ("eta_asym_residual", "saddle_probe", "saddle_functions"):
        tr.wrap(asym, name, f"asym.{name}")
    return tr


def layer_metrics(tr, cache_writes: int) -> dict:
    """Per-layer figures of one traced pass, by layer group; a group whose
    functions the pass never called is absent."""
    spans = tr.spans

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(group):
        return sum(s["end"] - s["start"] for s in group)

    out = {}
    rows = named("hooks.census_rows")
    if rows:
        out["census"] = {"classes.members_enumerated": sum(s["members"] for s in rows)}
    cached = [s for s in named("cli.cached_census") if s["cached"]]
    if cached:
        enumerating = {s["parent"] for s in rows}
        out["cache"] = {
            "cli.cache_hit_s": total(s for s in cached if s["id"] not in enumerating),
            "cli.cache_io_s": sum(s["self"] for s in cached if s["op"] == "conjecture-extend"),
            "cli.cache_writes": cache_writes,
        }
    calls, secs = tr.leaves["hooks.t_hook_count"]
    if calls:
        out["geometry"] = {
            "hooks.t_hook_count_calls": calls,
            "hooks.t_hook_count_s": secs,
            "hooks.geometry_s": sum(tr.leaves[n][1] for n in
                                    ("hooks.conjugate", "hooks.shortcut_stats")),
        }
    builds = named("qseries.series_S", "qseries.series_H")
    identity = named("qseries.identity_check_sum_product")
    if builds or identity:
        out["series"] = {
            "qseries.builds": len(builds),
            "qseries.distinct_builds": len({(s["name"], *s["key"]) for s in builds}),
            "qseries.sum_side_s": total(s for s in builds if s["key"][0] == 1),
            "qseries.product_side_s": total(s for s in builds if s["key"][0] == 2),
            "qseries.identity_s": total(identity),
        }
    biv = named("qseries.bivariate_R", "qseries.bivariate_G")
    if biv:
        out["bivariate"] = {
            "qseries.bivariate_sum_s": total(s for s in biv if s["key"][0] == 1),
            "qseries.bivariate_product_s": total(s for s in biv if s["key"][0] == 2),
        }
    eta = named("asym.eta_asym_residual")
    saddle = named("asym.saddle_probe", "asym.saddle_functions")
    if eta or saddle:
        out["asym"] = {"asym.eta_residual_s": total(eta), "asym.saddle_s": total(saddle)}
    return out


# --------------------------------------------------------------------------
# the probe: direct layer calls for the traced run
# --------------------------------------------------------------------------


def probe(spec: dict, work: Path, result: dict) -> None:
    """Direct calls that every traced run makes, whatever its workload:
    enumeration rates, ``census_rows`` at one worker and at ``workers``, and
    small traced passes of all three workloads, so that a layer the traced
    pass never calls is still measured."""
    from hooklab.classes import ClassId, iter_class
    from hooklab.hooks import census_rows

    sizes = list(range(spec["census_top"] + 1))
    enum = {}
    for cid in ClassId:
        start = time.perf_counter()
        count = 0
        for n in sizes:
            for _ in iter_class(cid, n):
                count += 1
        enum[cid.value] = {"seconds": time.perf_counter() - start, "members": count}
    rows = {}
    for c in spec["pool_classes"]:
        for w in (1, spec["workers"]):
            start = time.perf_counter()
            census_rows(ClassId(c), sizes, spec["t_max"], workers=w)
            rows[f"{c}@{w}"] = time.perf_counter() - start
    result["enum"] = enum
    result["census_rows"] = rows

    tr = install_tracer()
    failures, writes = {}, 0
    for name, sub in spec["mini"].items():
        d = work / name
        (d / "cache").mkdir(parents=True)
        (d / "out").mkdir()
        p, out = Pass(tr), {}
        WORKLOADS[name](sub, d, p, out)
        writes += out.get("cache_writes", 0)
        failures[name] = [op["name"] for op in p.ops if op["error"] or op["rc"] not in (None, 0)]
    result["mini_failures"] = failures
    result["layers"] = layer_metrics(tr, writes)
    tr.write(work / "trace.jsonl")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    work = Path(spec["dir"])
    src = Path(spec["src"]).resolve()

    import hooklab.cli  # noqa: F401  (its import is part of set-up)

    if Path(hooklab.cli.__file__).resolve().parent.parent != src:
        print(f"hooklab imported from {hooklab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for sub in ("cache", "out"):
        path = work / sub
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
    result = {"ready": monotonic()}

    if spec["mode"] == "pass":
        tracer = install_tracer() if spec["trace"] else None
        p = Pass(tracer)
        WORKLOADS[spec["workload"]](spec["inputs"], work, p, result)
        result["ops"] = p.ops
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, result.get("cache_writes", 0))
            tracer.write(work / "trace.jsonl")
    elif spec["mode"] == "probe":
        probe(spec["inputs"], work, result)
    elif spec["mode"] == "dump":
        dump_series(spec["inputs"], result)
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
