"""Command-line orchestration: censuses with caching, the verification
suite, inequality crossovers, the t >= 3 conjecture scan, and asymptotic
ratio tables.  All outputs are CSV/JSON; exit codes are 0 success, 1 check
failure, 2 usage error."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, asym
from .classes import ClassId, all_partitions, iter_class
from .hooks import (
    HookCensus,
    census_rows,
    check_shape,
    conjugate,
    enumerated_census,
    hook_lengths,
    shortcut_stats,
    t_hook_count,
)
from .qseries import (
    TruncatedSeries,
    counting_series,
    identity_check_sum_product,
    series_H,
    series_S,
)

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE = 0, 1, 2

VERIFY_CEILING = 80        # largest n_max cmd_verify will enumerate
ENGINE_CHECK_T = 4         # t_max of verify's engine-vs-enumeration check
HOOK_PROPERTY_BOUND = 30   # unrestricted-partition property sweep bound


class _Series(NamedTuple):
    """One of the eight t = 1, 2 hook series: its exact builder (which looks
    up ``series_S``/``series_H`` in this module when called), the class it
    counts, t, and its growth-model key in :func:`asym.growth_model`."""

    build: Callable[[int], TruncatedSeries]
    class_id: ClassId
    t: int
    model: str


_SERIES = {
    "S11": _Series(lambda order: series_S(1, 1, order), ClassId.R1, 1, "r11"),
    "S12": _Series(lambda order: series_S(1, 2, order), ClassId.R1, 2, "r12"),
    "S21": _Series(lambda order: series_S(2, 1, order), ClassId.R2, 1, "r21"),
    "S22": _Series(lambda order: series_S(2, 2, order), ClassId.R2, 2, "r22"),
    "H11": _Series(lambda order: series_H(1, 1, order), ClassId.G1, 1, "g11"),
    "H12": _Series(lambda order: series_H(1, 2, order), ClassId.G1, 2, "g12"),
    "H21": _Series(lambda order: series_H(2, 1, order), ClassId.G2, 1, "g21"),
    "H22": _Series(lambda order: series_H(2, 2, order), ClassId.G2, 2, "g22"),
}


# --------------------------------------------------------------------------
# census computation, cache, serialization
# --------------------------------------------------------------------------


def _cache_file(cache_dir: str, class_id: ClassId) -> Path:
    return Path(cache_dir) / f"census-{class_id.value}.json"


def _census_row(c: HookCensus, n: int) -> tuple:
    return c.counts[n], c.cardinality[n], c.total_hooks[n]


def _census_payload(c: HookCensus) -> dict:
    return {
        "class": c.class_id.value,
        "n_max": c.n_max,
        "t_max": c.t_max,
        "counts": c.counts,
        "cardinality": c.cardinality,
        "total_hooks": c.total_hooks,
    }


def _slice_census(c: HookCensus, n_max: int, t_max: int) -> HookCensus:
    return HookCensus(
        c.class_id,
        n_max,
        t_max,
        [row[:t_max] for row in c.counts[: n_max + 1]],
        c.cardinality[: n_max + 1],
        c.total_hooks[: n_max + 1],
    )


def _stored_shape(text: str | None) -> tuple | None:
    """The (n_max, t_max) a cache file's text claims, or None when the text
    is missing or unreadable or the shape lies outside the census ceiling."""
    try:
        payload = json.loads(text)
        shape = payload["n_max"], payload["t_max"]
        if all(type(v) is int for v in shape):
            check_shape(*shape)
            return shape
    except (ValueError, KeyError, TypeError):
        pass
    return None


def _prepare_file(path: Path) -> None:
    """Create the parent directories of a file about to be written and
    refuse a path that is a directory, so that an unusable ``--out`` or
    ``--cache`` is reported before the census runs, not after."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "is a directory", str(path))


def _write_cache(path: Path, text: str) -> None:
    """Replace the cache file whole: write a temporary file beside it, then
    ``os.replace`` it into place, so an interrupted write leaves the old
    file intact."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cached_census(
    class_id: ClassId,
    n_max: int,
    t_max: int,
    cache_dir: str | None = None,
) -> HookCensus:
    """Census through a per-class cache file that mirrors the engine.

    Only the stored shape is read from the file.  The table is computed at
    the larger of the stored and the requested shapes, served sliced to the
    request, and written back only when the file's contents differ, so a
    tampered or stale file is repaired and an intact one is left alone.
    Recomputing costs less than checking the stored counts would.
    """
    check_shape(n_max, t_max)
    path = None if cache_dir is None else _cache_file(cache_dir, class_id)
    old = None
    if path is not None:
        _prepare_file(path)
        try:
            old = path.read_text()
        except (OSError, ValueError):  # missing, unreadable, or not text
            pass
    n_full, t_full = n_max, t_max
    stored = _stored_shape(old)
    if stored is not None:
        n_full, t_full = max(n_full, stored[0]), max(t_full, stored[1])
    rows = census_rows(class_id, range(n_full + 1), t_full)
    table = HookCensus.from_rows(class_id, n_full, t_full, rows)
    if path is not None:
        text = json.dumps(_census_payload(table))
        if text != old:
            _write_cache(path, text)
    return _slice_census(table, n_max, t_max)


def census_csv_text(c: HookCensus) -> str:
    """CSV body for a census: header n,t,count then one row per (n, t)."""
    lines = ["n,t,count"]
    for n in range(c.n_max + 1):
        for t in range(1, c.t_max + 1):
            lines.append(f"{n},{t},{c.counts[n][t - 1]}")
    return "\n".join(lines) + "\n"


def run_census(
    class_id: ClassId,
    n_max: int,
    t_max: int,
    out_path: str,
    cache_dir: str | None = None,
) -> dict:
    """Compute a census (through the cache, if any) and write CSV plus a
    JSON sidecar, the CSV path with suffix ``.json``.  Every path is checked
    before the census runs, and a CSV path that is its own sidecar's is
    refused."""
    check_shape(n_max, t_max)
    out = Path(out_path)
    side = out.with_suffix(".json")
    if side == out:
        raise ValueError(f"--out {out_path} ends in .json, the name of its JSON sidecar")
    _prepare_file(out)
    _prepare_file(side)
    c = cached_census(class_id, n_max, t_max, cache_dir)
    with open(out, "w", newline="\n") as fh:
        fh.write(census_csv_text(c))
    sidecar = {
        "class": class_id.value,
        "n_max": n_max,
        "t_max": t_max,
        "cardinality": c.cardinality,
        "total_hooks": c.total_hooks,
        "generated_by": f"hooklab {__version__}",
    }
    with open(side, "w", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return {"csv": str(out), "sidecar": str(side), **sidecar}


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


def _agreement(name: str, n_max: int, left: tuple, right: tuple, lead: str = "") -> CheckResult:
    """Check that two (label, sequence) pairs agree at every n <= n_max; the
    detail names the first n where they differ and both values there."""
    (left_label, a), (right_label, b) = left, right
    bad = next((n for n in range(n_max + 1) if a[n] != b[n]), None)
    if bad is None:
        return CheckResult(name, True)
    return CheckResult(name, False, f"{lead}n={bad}: {left_label} {a[bad]}, {right_label} {b[bad]}")


def verify_report(
    n_max: int = 40,
    *,
    workers: int | None = None,
    _corrupt: tuple | None = None,
) -> list:
    """All oracle-equivalence, identity, and hook-property checks.

    ``workers`` is accepted because the benchmark harness in ``bench/``
    passes it; the census engine is serial, so it selects nothing.
    ``_corrupt`` is a test hook (series key, exponent, delta) that tampers
    with one computed series so harness failure paths stay exercised.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > VERIFY_CEILING:
        raise ValueError(f"n_max must be <= {VERIFY_CEILING} (enumeration ceiling)")
    results: list = []

    series = {key: entry.build(n_max) for key, entry in _SERIES.items()}
    if _corrupt is not None:
        key, exponent, delta = _corrupt
        series[key].coeffs[exponent] += delta
    censuses = {cid: cached_census(cid, n_max, ENGINE_CHECK_T) for cid in ClassId}
    for key, (_, cid, t, _) in sorted(_SERIES.items()):
        results.append(_agreement(
            f"series {key} == census {cid.value} (t={t}, n <= {n_max})", n_max,
            ("series", series[key]), ("census", censuses[cid].series(t)), "first discrepancy at ",
        ))
    for cid in ClassId:
        results.append(_agreement(
            f"census cardinality == counting series for {cid.value}", n_max,
            ("census", censuses[cid].cardinality), ("counting series", counting_series(cid, n_max)),
        ))
    for cid in ClassId:
        c, oracle = censuses[cid], enumerated_census(cid, n_max, ENGINE_CHECK_T)
        results.append(_agreement(
            f"census engine == enumeration for {cid.value} (t <= {ENGINE_CHECK_T}, n <= {n_max})", n_max,
            ("engine", [_census_row(c, n) for n in range(n_max + 1)]),
            ("enumeration", [_census_row(oracle, n) for n in range(n_max + 1)]),
        ))

    for which in ("RR1", "LG1"):
        chk = identity_check_sum_product(which, n_max)
        results.append(CheckResult(f"sum-product identity {which} (n <= {n_max})", chk.ok, str(chk) if not chk.ok else ""))

    bound = min(n_max, HOOK_PROPERTY_BOUND)
    involution = conservation = one_hook = two_hook = True
    witness = {}
    for n in range(bound + 1):
        for p in all_partitions(n):
            if conjugate(conjugate(p)) != p:
                involution = False
                witness.setdefault("involution", p)
            st = shortcut_stats(p)
            ones, twos = t_hook_count(p, 1), t_hook_count(p, 2)
            # every cell has one hook in [1, n]; the table and t_hook_count
            # are independent formulas for the same hooks
            hooks = [h for row in hook_lengths(p) for h in row]
            if (
                len(hooks) != n
                or not all(1 <= h <= n for h in hooks)
                or hooks.count(1) != ones
                or hooks.count(2) != twos
            ):
                conservation = False
                witness.setdefault("conservation", p)
            if ones != st.distinct:
                one_hook = False
                witness.setdefault("one_hook", p)
            if n >= 2 and twos != st.gap_gt1 + st.mult_gt1:
                two_hook = False
                witness.setdefault("two_hook", p)
    results.append(CheckResult(f"conjugation involution (n <= {bound})", involution, str(witness.get("involution", ""))))
    results.append(CheckResult(f"hook-sum conservation per partition (n <= {bound})", conservation, str(witness.get("conservation", ""))))
    results.append(CheckResult(f"1-hooks == distinct parts (n <= {bound})", one_hook, str(witness.get("one_hook", ""))))
    results.append(CheckResult(f"2-hooks == gap_gt1 + mult_gt1 (n <= {bound})", two_hook, str(witness.get("two_hook", ""))))

    gap_ok = cong_ok = True
    gw = {}
    for n in range(bound + 1):
        for cid in (ClassId.R1, ClassId.G1):
            for p in iter_class(cid, n):
                st = shortcut_stats(p)
                if t_hook_count(p, 1) != st.ell or t_hook_count(p, 2) != st.ell_gt1:
                    gap_ok = False
                    gw.setdefault("gap", (cid.value, p))
        for p in iter_class(ClassId.R2, n):
            st = shortcut_stats(p)
            if t_hook_count(p, 2) != st.distinct_gt1 + st.mult_gt1:
                cong_ok = False
                gw.setdefault("cong", ("r2", p))
        for p in iter_class(ClassId.G2, n):
            # adjacent values 8m+5, 8m+6 share a corner when both occur
            st = shortcut_stats(p)
            values = set(p)
            pairs = sum(1 for v in values if v % 8 == 6 and v - 1 in values)
            if t_hook_count(p, 2) != st.distinct_gt1 + st.mult_gt1 - pairs:
                cong_ok = False
                gw.setdefault("cong", ("g2", p))
    results.append(CheckResult(f"gap classes: 1-hooks == parts, 2-hooks == parts > 1 (n <= {bound})", gap_ok, str(gw.get("gap", ""))))
    results.append(CheckResult(f"congruence classes: 2-hooks == distinct_gt1 + mult_gt1 - adjacent pairs (n <= {bound})", cong_ok, str(gw.get("cong", ""))))
    return results


# --------------------------------------------------------------------------
# crossovers and the conjecture scan
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossoverReport:
    """Where a strict coefficient inequality settles in.

    ``first_hold`` is the least N0 such that the inequality holds for every
    n in [N0, n_max] (ties count as violations); None when it fails at n_max
    itself.
    """

    pair: str
    n_max: int
    first_hold: int | None
    violations: list = field(default_factory=list)


_CROSSOVER_PAIRS = {
    # pair -> (lhs key, rhs key, direction): direction "gt" means lhs > rhs required
    "r-t1": ("S11", "S21", "gt"),
    "r-t2": ("S12", "S22", "lt"),
    "g-t1": ("H11", "H21", "gt"),
    "g-t2": ("H12", "H22", "lt"),
}


def _first_hold_and_violations(lhs, rhs, direction: str, n_max: int):
    holds = (lambda a, b: a > b) if direction == "gt" else (lambda a, b: a < b)
    violations = [n for n in range(n_max + 1) if not holds(lhs[n], rhs[n])]
    if violations and violations[-1] == n_max:
        return None, violations
    return (violations[-1] + 1 if violations else 0), violations


def crossover_report(pair: str, n_max: int) -> CrossoverReport:
    """Locate the crossover of one of the four t in {1, 2} inequalities,
    entirely from the exact series (fast; n_max up to 5000)."""
    if pair not in _CROSSOVER_PAIRS:
        raise ValueError(f"unknown pair {pair!r}; expected one of {sorted(_CROSSOVER_PAIRS)}")
    if not 0 <= n_max <= 5000:
        raise ValueError("n_max must be in [0, 5000]")
    lkey, rkey, direction = _CROSSOVER_PAIRS[pair]
    lhs = _SERIES[lkey].build(n_max)
    rhs = _SERIES[rkey].build(n_max)
    first_hold, violations = _first_hold_and_violations(lhs, rhs, direction, n_max)
    return CrossoverReport(pair, n_max, first_hold, violations)


@dataclass(frozen=True)
class ConjectureScan:
    """Scan of the strict inequality 'congruence class has more t-hooks'
    for one t >= 3 and one class pair ('r' or 'g')."""

    t: int
    pair: str
    n_max: int
    holds_from: int | None
    counterexamples_above: list = field(default_factory=list)


def conjecture_scan(t_list: list, n_max: int, cache_dir: str | None = None) -> list:
    """Exact t-hook comparison for every t in t_list (each >= 3).

    One shared census pass per class at t_max = max(t_list); per t the
    strict inequalities gap-class < congruence-class are scanned for both
    family pairs, reporting the least N0 stable through n_max.  The shape
    (n_max, max(t_list)) is bounded by the census ceiling alone.
    """
    t_list = sorted(set(t_list))
    if not t_list:
        raise ValueError("t_list must be nonempty")
    if any(t < 3 for t in t_list):
        raise ValueError("conjecture scan requires every t >= 3")
    t_top = max(t_list)
    check_shape(n_max, t_top)
    tables = {cid: cached_census(cid, n_max, t_top, cache_dir) for cid in ClassId}
    scans = []
    for t in t_list:
        for pair, (gap_cid, cong_cid) in (
            ("r", (ClassId.R1, ClassId.R2)),
            ("g", (ClassId.G1, ClassId.G2)),
        ):
            lhs = tables[gap_cid].series(t)
            rhs = tables[cong_cid].series(t)
            holds_from, _ = _first_hold_and_violations(lhs, rhs, "lt", n_max)
            counterexamples = (
                []
                if holds_from is None
                else [n for n in range(holds_from, n_max + 1) if not lhs[n] < rhs[n]]
            )
            scans.append(ConjectureScan(t, pair, n_max, holds_from, counterexamples))
    return scans


# --------------------------------------------------------------------------
# ratio and saddle tables
# --------------------------------------------------------------------------

_CROSS_RATIOS = {
    # pair -> (numerator, denominator, limit)
    "r1-cross": ("S11", "S21", 2.5 * asym.LOG_PHI),
    "r2-cross": ("S22", "S21", 1.5),
    "g1-cross": ("H11", "H21", 4.0 / 3.0 * asym.LOG_SILVER),
    "g2-cross": ("H21", "H22", 0.75),
}


def ratio_table(pair: str, checkpoints: list) -> dict:
    """Coefficient/model ratios (``*-model``) or coefficient cross-ratios
    with constant limits (``*-cross``) at the given checkpoints."""
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if any(not 1 <= n <= 5000 for n in checkpoints):
        raise ValueError("checkpoints must lie in [1, 5000]")
    order = max(checkpoints)
    model_pairs = {f"{entry.model}-model": entry for entry in _SERIES.values()}
    if pair in model_pairs:
        entry = model_pairs[pair]
        coeffs = entry.build(order)
        model = asym.growth_model(entry.model)
        rows = [
            {"n": n, "coefficient": float(coeffs[n]), "model": model.value(n),
             "ratio": coeffs[n] / model.value(n)}
            for n in sorted(checkpoints)
        ]
        return {"pair": pair, "kind": "model", "limit": None, "rows": rows}
    if pair in _CROSS_RATIOS:
        num_key, den_key, limit = _CROSS_RATIOS[pair]
        num = _SERIES[num_key].build(order)
        den = _SERIES[den_key].build(order)
        zero = next((n for n in sorted(checkpoints) if den[n] == 0), None)
        if zero is not None:
            raise ValueError(
                f"{pair} is undefined at checkpoint n={zero}: {den_key} has coefficient 0 there"
            )
        rows = [
            {"n": n, "ratio": num[n] / den[n], "limit": limit,
             "abs_error": abs(num[n] / den[n] - limit)}
            for n in sorted(checkpoints)
        ]
        return {"pair": pair, "kind": "cross", "limit": limit, "rows": rows}
    raise ValueError(
        f"unknown pair {pair!r}; expected one of "
        f"{sorted(model_pairs) + sorted(_CROSS_RATIOS)}"
    )


def asym_table(target: str, eps_list: list) -> dict:
    """Saddle-probe rows over a decreasing epsilon grid; flags the sequence
    when |ratio - 1| fails to decrease strictly."""
    if not eps_list:
        raise ValueError("eps list must be nonempty")
    eps_sorted = sorted(set(eps_list), reverse=True)
    rows = []
    for eps in eps_sorted:
        probe = asym.saddle_probe(target, eps)
        rows.append(
            {
                "epsilon": eps,
                "direct_value": probe.direct_value,
                "main_term": probe.main_term,
                "ratio": probe.ratio,
                "deviation": abs(probe.ratio - 1.0),
            }
        )
    deviations = [r["deviation"] for r in rows]
    monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
    return {"target": target, "rows": rows, "monotone": monotone}


# --------------------------------------------------------------------------
# argument parsing and entry point
# --------------------------------------------------------------------------


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


WORKERS_HELP = "kept for scripts that pass it (must be >= 1); the census engine is serial, so it selects nothing"


def _worker_count(text: str) -> int:
    """--workers, refused below 1 while parsing, before any file or series is made."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return workers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooklab",
        description="t-hook censuses, generating-function verification and "
        "asymptotic probes for the Rogers-Ramanujan and little "
        "Gollnitz partition classes",
    )
    parser.add_argument("--version", action="version", version=f"hooklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="exact t-hook census of one class")
    p.add_argument("--class", dest="class_id", required=True, choices=[c.value for c in ClassId])
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV output path (JSON sidecar alongside)")
    p.add_argument("--cache", default=None, help="cache directory (or $HOOKLAB_CACHE)")
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="oracle-equivalence and property checks")
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("crossover", help="locate a t in {1,2} inequality crossover")
    p.add_argument("--pair", required=True, choices=sorted(_CROSSOVER_PAIRS))
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("conjecture", help="t >= 3 hook-count inequality scan")
    p.add_argument("--t", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--workers", type=_worker_count, default=None, help=WORKERS_HELP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ratios", help="coefficient/model and cross-ratio tables")
    p.add_argument("--pair", required=True)
    p.add_argument("--checkpoints", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("asym", help="saddle-point probe table")
    p.add_argument("--target", required=True, choices=["S11", "H11"])
    p.add_argument("--eps", type=_float_list, required=True, metavar="LIST")
    p.add_argument("--json", action="store_true")
    return parser


def _emit(payload: dict, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)

    cache_default = os.environ.get("HOOKLAB_CACHE")
    try:
        if args.command == "census":
            payload = run_census(
                ClassId(args.class_id),
                args.n_max,
                args.t_max,
                args.out,
                args.cache or cache_default,
            )
            _emit(
                payload,
                args.json,
                [f"wrote {payload['csv']} and {payload['sidecar']}"],
            )
            return EXIT_OK

        if args.command == "verify":
            results = verify_report(args.n_max)
            ok = all(r.ok for r in results)
            payload = {"n_max": args.n_max, "ok": ok, "checks": [asdict(r) for r in results]}
            _emit(payload, args.json, [r.line() for r in results] + [f"verify: {'PASS' if ok else 'FAIL'}"])
            return EXIT_OK if ok else EXIT_CHECK_FAILED

        if args.command == "crossover":
            report = crossover_report(args.pair, args.n_max)
            payload = asdict(report)
            lines = [
                f"pair {report.pair}: first_hold="
                f"{'absent' if report.first_hold is None else report.first_hold} "
                f"(n_max={report.n_max}, {len(report.violations)} violations below)"
            ]
            _emit(payload, args.json, lines)
            return EXIT_OK

        if args.command == "conjecture":
            scans = conjecture_scan(args.t, args.n_max, args.cache or cache_default)
            payload = {"scans": [asdict(s) for s in scans]}
            lines = [
                f"t={s.t} pair={s.pair}: holds_from="
                f"{'absent' if s.holds_from is None else s.holds_from} "
                f"counterexamples_above={s.counterexamples_above}"
                for s in scans
            ]
            _emit(payload, args.json, lines)
            return EXIT_OK

        if args.command == "ratios":
            table = ratio_table(args.pair, args.checkpoints)
            lines = []
            for row in table["rows"]:
                if table["kind"] == "model":
                    lines.append(f"n={row['n']}: coefficient/model = {row['ratio']:.6f}")
                else:
                    lines.append(
                        f"n={row['n']}: ratio = {row['ratio']:.6f} "
                        f"(limit {row['limit']:.6f}, off by {row['abs_error']:.6f})"
                    )
            _emit(table, args.json, lines)
            return EXIT_OK

        if args.command == "asym":
            table = asym_table(args.target, args.eps)
            lines = [
                f"eps={row['epsilon']}: ratio = {row['ratio']:.10f} "
                f"(|ratio-1| = {row['deviation']:.3e})"
                for row in table["rows"]
            ] + [f"monotone approach to 1: {'yes' if table['monotone'] else 'NO'}"]
            _emit(table, args.json, lines)
            return EXIT_OK if table["monotone"] else EXIT_CHECK_FAILED

    except (ValueError, OSError) as exc:  # bad arguments, or an unusable --out/--cache path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
