"""Command-line orchestration: censuses (each also written, on request, to
a per-class cache file that is never read back), the verification suite,
inequality crossovers, the t >= 3 conjecture scan, and asymptotic ratio
tables.

Each subcommand has one handler, registered on its subparser as the
default of ``run``.  A handler takes the parsed arguments and returns the
JSON payload, the human-readable lines and the exit code; :func:`main`
prints the payload under ``--json`` and the lines otherwise, and maps a
``ValueError`` or ``OSError`` to a usage error.  Exit codes are 0 success,
1 check failure, 2 usage error.  :func:`main` may be called repeatedly in
one process: it builds its parser on the first call, not at import, and
reuses it, and each call gives the same output as a fresh process.

The t = 1, 2 subcommands (verify's series checks, crossovers and ratios)
name the eight hook series S11 ... H22 as ``qseries._HOOK_SERIES`` does and
read each one's class and t there; a ``*-model`` ratio pair is named by its
class and t, as r11-model for S11.  Each series is built by this module's
``series_S``/``series_H``, called with (j, t, order)."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import cache
from operator import eq, itemgetter
from pathlib import Path

from . import __version__, asym
from .classes import GAP_RULES, RESIDUE_CLASSES, ClassId, iter_class, walk
from .hooks import (
    HookCensus,
    _hook_cells,
    boundary_words,
    census_rows,
    check_shape,
    conjugate,
    enumerated_census,
    shortcut_stats,
    t_hook_count,
    t_hooks,
)
from .qseries import (
    _HOOK_SERIES,
    _IDENTITIES,
    SERIES_CEILING,
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


def _series(name: str, order: int) -> TruncatedSeries:
    """The hook series named S11 ... H22 in ``qseries._HOOK_SERIES``, built
    by this module's ``series_S``/``series_H``, looked up when called."""
    build = series_S if name[0] == "S" else series_H
    return build(int(name[1]), int(name[2]), order)


# --------------------------------------------------------------------------
# census computation, cache, serialization
# --------------------------------------------------------------------------


def _cache_file(cache_dir: str | Path, class_id: ClassId) -> Path:
    return Path(cache_dir) / f"census-{class_id.value}.json"


def _census_payload(c: HookCensus) -> dict:
    return {
        "class": c.class_id.value,
        "n_max": c.n_max,
        "t_max": c.t_max,
        "counts": c.counts,
        "cardinality": c.cardinality,
        "total_hooks": c.total_hooks,
    }


def _prepare_file(path: Path) -> None:
    """Create the parent directories of a file about to be written and
    refuse a path that is a directory, so that an unusable ``--out`` or
    ``--cache`` is reported before the census runs, not after."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "is a directory", str(path))


def _replace_file(path: Path, text: str) -> None:
    """Replace a file whole: write a temporary file beside it, then
    ``os.replace`` it into place, so an interrupted write leaves the old
    file intact.  Every file hooklab writes goes through here."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cached_census(
    class_id: ClassId,
    n_max: int,
    t_max: int,
    cache_dir: str | None = None,
) -> HookCensus:
    """Census of ``class_id`` at exactly (n_max, t_max).

    With a cache directory, the table also replaces the class's cache file
    there.  The file is written through and never read back: computing the
    exact census costs less than reading and checking a stored one would.
    """
    check_shape(n_max, t_max)
    path = None if cache_dir is None else _cache_file(cache_dir, class_id)
    if path is not None:
        _prepare_file(path)
    rows = census_rows(class_id, range(n_max + 1), t_max)
    table = HookCensus.from_rows(class_id, n_max, t_max, rows)
    if path is not None:
        _replace_file(path, json.dumps(_census_payload(table)))
    return table


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
    """Compute a census (writing the cache file, if any) and write CSV plus a
    JSON sidecar, the CSV path with suffix ``.json``.  Every path is checked
    before the census runs: a CSV path that is its own sidecar's is
    refused, and so is a sidecar that is any class's cache file (the CSV
    cannot be, as it does not end in ``.json``).  Each file is replaced
    whole, not rewritten in place: a symlink at the path is replaced, and
    the new file's mode comes from the umask."""
    check_shape(n_max, t_max)
    out = Path(out_path)
    side = out.with_suffix(".json")
    if side == out:
        raise ValueError(f"--out {out_path} ends in .json, the name of its JSON sidecar")
    if cache_dir is not None:
        # both files are replaced, not written through, so they collide
        # when their real directories and names match
        real_dir = Path(cache_dir).resolve()
        if side.parent.resolve() / side.name in {_cache_file(real_dir, c) for c in ClassId}:
            raise ValueError(f"the sidecar of --out {out_path} is a --cache file")
    _prepare_file(out)
    _prepare_file(side)
    c = cached_census(class_id, n_max, t_max, cache_dir)
    _replace_file(out, census_csv_text(c))
    sidecar = _census_payload(c)
    del sidecar["counts"]
    sidecar["generated_by"] = f"hooklab {__version__}"
    _replace_file(side, json.dumps(sidecar, indent=2) + "\n")
    return {"csv": str(out), "sidecar": str(side), **sidecar}


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


class CheckResult(namedtuple("CheckResult", "name ok detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


def _agreement(n_max: int, left: tuple, right: tuple, lead: str = "") -> str:
    """The empty string when two (label, sequence) pairs agree at every
    n <= n_max, else the first n where they differ and both values there."""
    (left_label, a), (right_label, b) = left, right
    bad = next((n for n in range(n_max + 1) if a[n] != b[n]), None)
    return "" if bad is None else f"{lead}n={bad}: {left_label} {a[bad]}, {right_label} {b[bad]}"


def _unrestricted_sweep(n: int) -> Iterator[tuple]:
    """``(p, oks)`` for every partition p of n, in walk order, with ``oks``
    whether p keeps each unrestricted t = 1, 2 hook property.

    It takes one conjugate per partition.  Its involution check looks each
    conjugate up in the map of all partitions of n to theirs once the walk
    is done, so a conjugate that is not a partition of n breaks it.  Its
    popcounts read the words the walk carries, and its hook table is the
    cell formula, so each property compares two constructions."""
    pairs = list(walk(None, n))
    members = list(map(itemgetter(0), pairs))
    norths, easts = boundary_words(pairs)
    conjs = list(map(conjugate, members))
    back = dict(zip(members, conjs))
    involution = map(eq, map(back.get, conjs), members)
    ones, twos = t_hooks(norths, easts, 1), t_hooks(norths, easts, 2)
    for p, conj, inv, one, two in zip(members, conjs, involution, ones, twos):
        st = shortcut_stats(p)
        # every cell has one hook in [1, n]
        hooks = _hook_cells(p, conj)
        yield p, (
            inv,
            len(hooks) == n
            and (not n or min(hooks) >= 1 and max(hooks) <= n)
            and hooks.count(1) == one
            and hooks.count(2) == two,
            one == st.distinct,
            n < 2 or two == st.gap_gt1 + st.mult_gt1,
        )


def _gap_sweep(n: int) -> Iterator[tuple]:
    """``((class, p), oks)`` for every member p of size n of each gap class:
    its 1-hooks are its parts and its 2-hooks its parts > 1."""
    for cid in GAP_RULES:
        name = cid.value
        for p in iter_class(cid, n):
            st = shortcut_stats(p)
            yield (name, p), (t_hook_count(p, 1) == st.ell and t_hook_count(p, 2) == st.ell_gt1,)


def _congruence_sweep(n: int) -> Iterator[tuple]:
    """``((class, p), oks)`` for every member p of size n of each congruence
    class: the unrestricted 2-hook count, less one per pair of adjacent part
    values (8m+5, 8m+6 in g2; none in r2), which share a corner."""
    for cid in RESIDUE_CLASSES:
        name = cid.value
        for p in iter_class(cid, n):
            st = shortcut_stats(p)
            values = set(p)
            pairs = sum(1 for v in values if v - 1 in values)
            yield (name, p), (t_hook_count(p, 2) == st.distinct_gt1 + st.mult_gt1 - pairs,)


#: verify's hook-property sweeps, in report order: each row's check titles,
#: and its sweep, which yields (witness, oks) for every member of size n,
#: with oks whether the member keeps each property, in title order
_PROPERTY_SWEEPS = (
    (("conjugation involution", "hook-sum conservation per partition", "1-hooks == distinct parts",
      "2-hooks == gap_gt1 + mult_gt1"), _unrestricted_sweep),
    (("gap classes: 1-hooks == parts, 2-hooks == parts > 1",), _gap_sweep),
    (("congruence classes: 2-hooks == distinct_gt1 + mult_gt1 - adjacent pairs",), _congruence_sweep),
)


def _checks(n_max: int, series: dict) -> Iterator[tuple]:
    """``(title, detail)`` of every verify check, in report order, with
    ``detail`` empty exactly when the check holds.  ``series`` maps S11 ...
    H22 to their series at order n_max; the census of each class is shared
    by its checks."""
    censuses = {cid: cached_census(cid, n_max, ENGINE_CHECK_T) for cid in ClassId}
    for name, (cid, t, _, _) in sorted(_HOOK_SERIES.items()):
        yield f"series {name} == census {cid.value} (t={t}, n <= {n_max})", _agreement(
            n_max, ("series", series[name]), ("census", censuses[cid].series(t)), "first discrepancy at ",
        )
    for cid in ClassId:
        yield f"census cardinality == counting series for {cid.value}", _agreement(
            n_max, ("census", censuses[cid].cardinality), ("counting series", counting_series(cid, n_max)),
        )
    for cid in ClassId:
        c, oracle = censuses[cid], enumerated_census(cid, n_max, ENGINE_CHECK_T)
        yield f"census engine == enumeration for {cid.value} (t <= {ENGINE_CHECK_T}, n <= {n_max})", _agreement(
            n_max, ("engine", list(zip(c.counts, c.cardinality))),
            ("enumeration", list(zip(oracle.counts, oracle.cardinality))),
        )
    for which in _IDENTITIES:
        chk = identity_check_sum_product(which, n_max)
        yield f"sum-product identity {which} (n <= {n_max})", "" if chk.ok else str(chk)

    bound = min(n_max, HOOK_PROPERTY_BOUND)
    for titles, sweep in _PROPERTY_SWEEPS:
        # per title, the first member breaking it, or None
        witness = [None] * len(titles)
        for n in range(bound + 1):
            for w, oks in sweep(n):
                if False in oks:
                    witness = [w if old is None and not ok else old for old, ok in zip(witness, oks)]
        for title, w in zip(titles, witness):
            yield f"{title} (n <= {bound})", "" if w is None else str(w)


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
    series = {name: _series(name, n_max) for name in _HOOK_SERIES}
    if _corrupt is not None:
        key, exponent, delta = _corrupt
        series[key].coeffs[exponent] += delta
    return [CheckResult(title, not detail, detail) for title, detail in _checks(n_max, series)]


# --------------------------------------------------------------------------
# crossovers and the conjecture scan
# --------------------------------------------------------------------------


class CrossoverReport(namedtuple("CrossoverReport", "pair n_max first_hold violations")):
    """Where a strict coefficient inequality settles in.

    ``first_hold`` is the least N0 such that the inequality holds for every
    n in [N0, n_max] (ties count as violations); None when it fails at n_max
    itself.
    """

    __slots__ = ()


_CROSSOVER_PAIRS = {
    # pair -> (smaller series, larger series) of its strict inequality
    "r-t1": ("S21", "S11"),
    "r-t2": ("S12", "S22"),
    "g-t1": ("H21", "H11"),
    "g-t2": ("H12", "H22"),
}


def _first_hold_and_violations(lhs, rhs, n_max: int):
    """(first hold, violations) of lhs[n] < rhs[n] over n <= n_max, as
    :class:`CrossoverReport` holds them."""
    violations = [n for n in range(n_max + 1) if not lhs[n] < rhs[n]]
    if violations and violations[-1] == n_max:
        return None, violations
    return (violations[-1] + 1 if violations else 0), violations


def crossover_report(pair: str, n_max: int) -> CrossoverReport:
    """Locate the crossover of one of the four t in {1, 2} inequalities,
    entirely from the exact series (fast; n_max up to
    :data:`SERIES_CEILING`)."""
    if pair not in _CROSSOVER_PAIRS:
        raise ValueError(f"unknown pair {pair!r}; expected one of {sorted(_CROSSOVER_PAIRS)}")
    if not 0 <= n_max <= SERIES_CEILING:
        raise ValueError(f"n_max must be in [0, {SERIES_CEILING}]")
    lkey, rkey = _CROSSOVER_PAIRS[pair]
    lhs = _series(lkey, n_max).coeffs
    rhs = _series(rkey, n_max).coeffs
    first_hold, violations = _first_hold_and_violations(lhs, rhs, n_max)
    return CrossoverReport(pair, n_max, first_hold, violations)


class ConjectureScan(namedtuple("ConjectureScan", "t pair n_max holds_from counterexamples_above")):
    """Scan of the strict inequality 'congruence class has more t-hooks'
    for one t >= 3 and one class pair ('r' or 'g').

    ``holds_from`` is one past the last violation, so there is none above
    it: ``counterexamples_above`` is always empty, kept for readers of the
    payload."""

    __slots__ = ()


def conjecture_scan(t_list: list, n_max: int, cache_dir: str | None = None) -> list:
    """Exact t-hook comparison for every t in t_list (each >= 3).

    One shared census pass per class at t_max = max(t_list); per t the
    strict inequalities gap-class < congruence-class are scanned for both
    family pairs, reporting the least N0 stable through n_max.  The shape
    (n_max, max(t_list)) is bounded by the census ceiling alone, checked by
    the first census before any work.
    """
    t_list = sorted(set(t_list))
    if not t_list:
        raise ValueError("t_list must be nonempty")
    if any(t < 3 for t in t_list):
        raise ValueError("conjecture scan requires every t >= 3")
    t_top = max(t_list)
    tables = {cid: cached_census(cid, n_max, t_top, cache_dir) for cid in ClassId}
    scans = []
    for t in t_list:
        for _, gap_cid, cong_cid in _IDENTITIES.values():
            lhs = tables[gap_cid].series(t)
            rhs = tables[cong_cid].series(t)
            holds_from, _ = _first_hold_and_violations(lhs, rhs, n_max)
            # the pair is named by its class family, r or g
            scans.append(ConjectureScan(t, gap_cid.value[0], n_max, holds_from, []))
    return scans


# --------------------------------------------------------------------------
# ratio and saddle tables
# --------------------------------------------------------------------------

_CROSS_RATIOS = {
    # pair -> (numerator series, denominator series), two series of one
    # identity; the limit is the ratio of their weights, asym.cross_limit
    "r1-cross": ("S11", "S21"),
    "r2-cross": ("S22", "S21"),
    "g1-cross": ("H11", "H21"),
    "g2-cross": ("H21", "H22"),
}


def ratio_table(pair: str, checkpoints: list) -> dict:
    """Coefficient/model ratios (``*-model``) or coefficient cross-ratios
    with constant limits (``*-cross``) at the given checkpoints, one row
    for each distinct checkpoint, in increasing order."""
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if any(not 1 <= n <= SERIES_CEILING for n in checkpoints):
        raise ValueError(f"checkpoints must lie in [1, {SERIES_CEILING}]")
    checkpoints = sorted(set(checkpoints))
    order = checkpoints[-1]
    # a series' growth model is keyed by its class and t, as r11 for S11
    model_pairs = {f"{cid.value}{t}-model": name for name, (cid, t, _, _) in _HOOK_SERIES.items()}
    if pair in model_pairs:
        coeffs = _series(model_pairs[pair], order)
        model = asym.growth_model(pair.removesuffix("-model"))
        rows = [
            {"n": n, "coefficient": float(coeffs[n]), "model": model.value(n),
             "ratio": coeffs[n] / model.value(n)}
            for n in checkpoints
        ]
        return {"pair": pair, "kind": "model", "limit": None, "rows": rows}
    if pair in _CROSS_RATIOS:
        num_key, den_key = _CROSS_RATIOS[pair]
        limit = asym.cross_limit(num_key, den_key)
        num, den = _series(num_key, order), _series(den_key, order)
        zero = next((n for n in checkpoints if den[n] == 0), None)
        if zero is not None:
            raise ValueError(f"{pair} is undefined at checkpoint n={zero}: {den_key} has coefficient 0 there")
        rows = [
            {"n": n, "ratio": num[n] / den[n], "limit": limit,
             "abs_error": abs(num[n] / den[n] - limit)}
            for n in checkpoints
        ]
        return {"pair": pair, "kind": "cross", "limit": limit, "rows": rows}
    raise ValueError(f"unknown pair {pair!r}; expected one of {sorted(model_pairs) + sorted(_CROSS_RATIOS)}")


def asym_table(target: str, eps_list: list) -> dict:
    """Saddle-probe rows over a decreasing epsilon grid; flags the sequence
    when |ratio - 1| fails to decrease strictly."""
    if not eps_list:
        raise ValueError("eps list must be nonempty")
    probes = [asym.saddle_probe(target, eps) for eps in sorted(set(eps_list), reverse=True)]
    rows = [{"epsilon": p.epsilon, "direct_value": p.direct_value, "main_term": p.main_term,
             "ratio": p.ratio, "deviation": abs(p.ratio - 1.0)} for p in probes]
    deviations = [r["deviation"] for r in rows]
    monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
    return {"target": target, "rows": rows, "monotone": monotone}


# --------------------------------------------------------------------------
# argument parsing and entry point
# --------------------------------------------------------------------------


def _number_list(kind: type, noun: str) -> Callable[[str], list]:
    """An argparse type for a comma-separated list of ``kind`` values,
    named ``noun`` in its error message."""

    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}")

    return parse


def _worker_count(text: str) -> int:
    """--workers, refused below 1 while parsing, before any file or series is made."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return workers


def _census_command(args) -> tuple:
    payload = run_census(ClassId(args.class_id), args.n_max, args.t_max, args.out, args.cache)
    return payload, [f"wrote {payload['csv']} and {payload['sidecar']}"], EXIT_OK


def _verify_command(args) -> tuple:
    results = verify_report(args.n_max)
    ok = all(r.ok for r in results)
    payload = {"n_max": args.n_max, "ok": ok, "checks": [r._asdict() for r in results]}
    lines = [r.line() for r in results] + [f"verify: {'PASS' if ok else 'FAIL'}"]
    return payload, lines, EXIT_OK if ok else EXIT_CHECK_FAILED


def _crossover_command(args) -> tuple:
    report = crossover_report(args.pair, args.n_max)
    first = "absent" if report.first_hold is None else report.first_hold
    line = f"pair {report.pair}: first_hold={first} (n_max={report.n_max}, {len(report.violations)} violations below)"
    return report._asdict(), [line], EXIT_OK


def _conjecture_command(args) -> tuple:
    scans = conjecture_scan(args.t, args.n_max, args.cache)
    lines = [
        f"t={s.t} pair={s.pair}: holds_from={'absent' if s.holds_from is None else s.holds_from} "
        f"counterexamples_above={s.counterexamples_above}"
        for s in scans
    ]
    return {"scans": [s._asdict() for s in scans]}, lines, EXIT_OK


def _ratios_command(args) -> tuple:
    table = ratio_table(args.pair, args.checkpoints)
    if table["kind"] == "model":
        lines = [f"n={row['n']}: coefficient/model = {row['ratio']:.6f}" for row in table["rows"]]
    else:
        lines = [
            f"n={row['n']}: ratio = {row['ratio']:.6f} (limit {row['limit']:.6f}, off by {row['abs_error']:.6f})"
            for row in table["rows"]
        ]
    return table, lines, EXIT_OK


def _asym_command(args) -> tuple:
    table = asym_table(args.target, args.eps)
    lines = [
        f"eps={row['epsilon']}: ratio = {row['ratio']:.10f} (|ratio-1| = {row['deviation']:.3e})"
        for row in table["rows"]
    ] + [f"monotone approach to 1: {'yes' if table['monotone'] else 'NO'}"]
    return table, lines, EXIT_OK if table["monotone"] else EXIT_CHECK_FAILED


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``hooklab`` parser: each subparser names its handler as the
    default of ``run``, and each shared option is declared once.

    Built once per process, on the first :func:`main` call, and never
    changed after: parsing makes a new namespace each call.  The handlers
    are bound here, but every name they call (``census_rows``,
    ``cached_census``, ``conjugate``, ``_hook_cells``, ``series_S``, ...) is
    looked up in this module's globals when they run, so patching one
    takes effect on the next call."""
    parser = argparse.ArgumentParser(
        prog="hooklab",
        description="t-hook censuses, generating-function verification and "
        "asymptotic probes for the Rogers-Ramanujan and little "
        "Gollnitz partition classes",
    )
    parser.add_argument("--version", action="version", version=f"hooklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    census = command("census", _census_command, "exact t-hook census of one class")
    census.add_argument("--class", dest="class_id", required=True, choices=[c.value for c in ClassId])
    census.add_argument("--n-max", type=int, required=True)
    census.add_argument("--t-max", type=int, required=True)
    census.add_argument("--out", required=True, help="CSV output path (JSON sidecar alongside)")

    verify = command("verify", _verify_command, "oracle-equivalence and property checks")
    verify.add_argument("--n-max", type=int, default=40)

    p = command("crossover", _crossover_command, "locate a t in {1,2} inequality crossover")
    p.add_argument("--pair", required=True, choices=sorted(_CROSSOVER_PAIRS))
    p.add_argument("--n-max", type=int, required=True)

    conjecture = command("conjecture", _conjecture_command, "t >= 3 hook-count inequality scan")
    conjecture.add_argument("--t", type=_number_list(int, "integer"), required=True, metavar="LIST")
    conjecture.add_argument("--n-max", type=int, required=True)

    p = command("ratios", _ratios_command, "coefficient/model and cross-ratio tables")
    p.add_argument("--pair", required=True)
    p.add_argument("--checkpoints", type=_number_list(int, "integer"), required=True, metavar="LIST")

    p = command("asym", _asym_command, "saddle-point probe table")
    p.add_argument("--target", required=True, choices=asym.SADDLE_TARGETS)
    p.add_argument("--eps", type=_number_list(float, "float"), required=True, metavar="LIST")

    for p in (census, conjecture):
        p.add_argument("--cache", default=None, help="directory to write each computed "
                       "census to as census-CLASS.json (never read back)")
    for p in (census, verify, conjecture):
        p.add_argument("--workers", type=_worker_count, default=None, help="kept for scripts that "
                       "pass it (must be >= 1); the census engine is serial, so it selects nothing")
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list | None = None) -> int:
    """Parse ``argv``, run the subcommand's handler, and print its JSON
    payload (``--json``) or its lines; returns the exit code.  The parser
    is built on the first call and shared by every later one
    (:func:`_build_parser`)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        payload, lines, code = args.run(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
    except (ValueError, OSError) as exc:  # bad arguments, or an unusable --out/--cache path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
