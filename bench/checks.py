"""Independent references and the output checks run on every pass.

Nothing here imports hooklab.  The references are computed from first
principles, by code written separately from the program's:

* brute force: this module's own partition generator and class predicates,
  and the hook formula h(i, j) = lambda_i + lambda'_j - i - j + 1 over every
  cell, give exact t-hook tables (t <= 4) for small sizes;
* a DP over the boundary path of the Young diagram (see ``boundary_tables``)
  gives the same tables exactly at every size of the census, and the eight
  hook series (t = 1, 2) up to BOUNDARY_ORDER;
* a coin-change DP counts partitions into parts = +-1 (mod 5) and
  1, 5, 6 (mod 8) exactly (class cardinalities, by the two sum-product
  identities);
* the same DP modulo a prime, vectorised with numpy, gives six of the eight
  hook series at every size up to 5000 from the combinatorics of the parts
  (see ``series_mod``), not from the program's closed forms.

Each check returns a list of (operation name, message) pairs; an operation
named there counts as failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

CLASSES = ("r1", "r2", "g1", "g2")
RESIDUES = {"r2": ((1, 4), 5), "g2": ((1, 5, 6), 8)}
PRODUCT_CLASS = {"r1": "r2", "r2": "r2", "g1": "g2", "g2": "g2"}
SERIES_CLASS = {
    "S11": ("r1", 1), "S12": ("r1", 2), "S21": ("r2", 1), "S22": ("r2", 2),
    "H11": ("g1", 1), "H12": ("g1", 2), "H21": ("g2", 1), "H22": ("g2", 2),
}
# The paper's t = 1, 2 inequalities: (lhs, rhs, lhs must be greater?)
CROSSOVER_PAIRS = {
    "r-t1": ("S11", "S21", True), "r-t2": ("S12", "S22", False),
    "g-t1": ("H11", "H21", True), "g-t2": ("H12", "H22", False),
}
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
LOG_SILVER = math.log(1 + math.sqrt(2))
CROSS_RATIOS = {  # pair -> numerator, denominator, closed-form limit
    "r1-cross": ("S11", "S21", 2.5 * LOG_PHI),
    "r2-cross": ("S22", "S21", 1.5),
    "g1-cross": ("H11", "H21", 4 / 3 * LOG_SILVER),
    "g2-cross": ("H21", "H22", 0.75),
}
MODEL_TOLERANCE = 0.03  # |coefficient/model - 1| at the largest checkpoint
BRUTE_LIMIT = 40        # sizes covered by the brute-force hook tables
BOUNDARY_ORDER = 300    # coefficients of the eight series the boundary DP covers
PRIME = 2**31 - 1       # keeps k * value inside int64 in series_mod


# --------------------------------------------------------------------------
# brute force
# --------------------------------------------------------------------------


def in_class(c: str, parts: tuple) -> bool:
    pairs = list(zip(parts, parts[1:]))
    if c == "r1":
        return all(a - b >= 2 for a, b in pairs)
    if c == "g1":
        return all(a - b >= 3 or (a - b == 2 and a % 2 == 0) for a, b in pairs)
    residues, m = RESIDUES[c]
    return all(p % m in residues for p in parts)


def partitions(n: int, allowed: list, distinct: bool) -> list:
    """Partitions of n into parts from ``allowed`` (descending order)."""
    out, prefix = [], []

    def rec(rem: int, i: int) -> None:
        if rem == 0:
            out.append(tuple(prefix))
            return
        for j in range(i, len(allowed)):
            v = allowed[j]
            if v > rem:
                continue
            if distinct and v * (v + 1) // 2 < rem:
                break
            prefix.append(v)
            rec(rem - v, j + 1 if distinct else j)
            prefix.pop()

    rec(n, 0)
    return out


def members(c: str, n: int) -> list:
    if c in RESIDUES:
        residues, m = RESIDUES[c]
        allowed = [v for v in range(n, 0, -1) if v % m in residues]
        cands = partitions(n, allowed, distinct=False)
    else:
        cands = partitions(n, list(range(n, 0, -1)), distinct=True)
    return [p for p in cands if in_class(c, p)]


def hook_bins(parts: tuple, t_max: int) -> list:
    bins = [0] * t_max
    if not parts:
        return bins
    conj = [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            h = row + conj[j - 1] - i - j + 1
            if h <= t_max:
                bins[h - 1] += 1
    return bins


def brute_bins(c: str, n: int, t_max: int = 4) -> list:
    """Total t-hooks, t = 1..t_max, over the members of class c of size n."""
    acc = [0] * t_max
    for p in members(c, n):
        for t, v in enumerate(hook_bins(p, t_max)):
            acc[t] += v
    return acc


def brute_tables(limit: int = BRUTE_LIMIT) -> dict:
    """{class: [t-hook bins of size n for n = 0..limit]}."""
    return {c: [brute_bins(c, n) for n in range(limit + 1)] for c in CLASSES}


# --------------------------------------------------------------------------
# boundary-path DP
# --------------------------------------------------------------------------


def _may_close_row(c: str, width: int, last: int, started: bool) -> bool:
    """May the next part, of size ``width``, follow the parts so far?"""
    if c in RESIDUES:
        residues, m = RESIDUES[c]
        return width % m in residues
    if not started:
        return True
    gap = 0  # east steps since the previous north step, exact below 3
    while gap < 3 and last >> gap & 1:
        gap += 1
    if c == "r1":
        return gap >= 2
    return gap >= 3 or (gap == 2 and width % 2 == 0)


def boundary_tables(c: str, top: int, t_max: int = 4) -> tuple:
    """(cardinality, t-hook bins) of class c at every size n <= top.

    The boundary of a Young diagram, walked from its bottom-left corner, is
    a word of east (E) and north (N) steps: the parts in increasing order,
    each as the E steps that widen the row to it and one N step.  Cells
    correspond to pairs (E at position a, N at position b > a), with hook
    length b - a, so the t-hooks of a partition are the N steps whose t-th
    letter back is an E.  The DP walks the words letter by letter, keeping
    per (size, width, last letters, seen an N yet) the number of
    words and their t-hook totals; an N step adds the current width to the
    size and closes a part, which the class must allow; the gap rules of
    r1 and g1 need the last three letters.
    """
    mask = (1 << max(t_max, 3)) - 1
    card = [1] + [0] * top
    bins = [[0] * t_max for _ in range(top + 1)]
    layer = {(0, 0, False): [1] + [0] * t_max}  # width's states -> [words, t-hook totals]

    def add(states: dict, key: tuple, acc: list) -> None:
        old = states.get(key)
        if old is None:
            states[key] = acc
        else:
            for i, v in enumerate(acc):
                old[i] += v

    for width in range(top + 1):
        wider = {}
        for size in range(top + 1):  # an N step only raises the size
            for last in range(mask + 1):
                for started in (False, True):
                    acc = layer.get((size, last, started))
                    if acc is None:
                        continue
                    if (width >= 1 and size + width <= top
                            and _may_close_row(c, width, last, started)):
                        new = acc[:]
                        for t in range(t_max):
                            if last >> t & 1:
                                new[t + 1] += acc[0]
                        add(layer, (size + width, (last << 1) & mask, True), new)
                    if size + width + 1 <= top:  # room for a part one wider
                        add(wider, (size, (last << 1 | 1) & mask, started), acc[:])
        for (size, last, started), acc in layer.items():
            if started and not last & 1:  # the word ends with its largest part
                card[size] += acc[0]
                for t in range(t_max):
                    bins[size][t] += acc[t + 1]
        layer = wider
    return card, bins


# --------------------------------------------------------------------------
# coin-change DP, exact and modular
# --------------------------------------------------------------------------


def allowed_parts(c: str, order: int) -> list:
    residues, m = RESIDUES[PRODUCT_CLASS[c]]
    return [v for v in range(1, order + 1) if v % m in residues]


def counting(c: str, order: int) -> list:
    """Exact number of partitions into the class's product-side parts."""
    counts = [1] + [0] * order
    for v in allowed_parts(c, order):
        for k in range(v, order + 1):
            counts[k] += counts[k - v]
    return counts


def _coin_mod(order: int, parts) -> np.ndarray:
    a = np.zeros(order + 1, dtype=np.int64)
    a[0] = 1
    for v in parts:
        for s in range(v, order + 1, v):
            e = min(s + v, order + 1)
            a[s:e] = (a[s:e] + a[s - v:e - v]) % PRIME
    return a


def _shift_sum(base: np.ndarray, shifts, weight: int = 1) -> np.ndarray:
    order = len(base) - 1
    acc = np.zeros(order + 1, dtype=np.int64)
    for s in shifts:
        if s <= order:
            acc[s:] = (acc[s:] + weight * base[: order + 1 - s]) % PRIME
    return acc


def series_mod(order: int) -> dict:
    """Six hook series modulo PRIME up to ``order``, from part statistics.

    Congruence classes: the 1-hooks of a partition are its distinct parts
    and its 2-hooks number distinct parts > 1 without a part one below, plus
    part values used twice or more.  A partition containing v (twice) is a
    partition of n - v (n - 2v), so each count is a sum of shifted counting
    series.  Among the mod-8 parts only 8m+5, 8m+6 are adjacent.

    R1: the members with k parts are lambda_i = mu_i + 2(k - i) + 1 for mu
    a partition of n - k^2 into at most k parts, so the 1-hook series is
    sum_k k p_k(n - k^2) and the 2-hook series (parts > 1) subtracts the
    members whose last part is 1, i.e. mu with at most k - 1 parts.
    """
    out = {}
    for c, one, two in (("r2", "S21", "S22"), ("g2", "H21", "H22")):
        parts = allowed_parts(c, order)
        base = _coin_mod(order, parts)
        out[one] = _shift_sum(base, parts)
        two_hooks = (_shift_sum(base, [v for v in parts if v > 1])
                     + _shift_sum(base, [2 * v for v in parts])) % PRIME
        if c == "g2":
            adjacent = [v + (v + 1) for v in parts if v % 8 == 5 and v + 1 <= order]
            two_hooks = (two_hooks - _shift_sum(base, adjacent)) % PRIME
        out[two] = two_hooks
    s11 = np.zeros(order + 1, dtype=np.int64)
    s12 = np.zeros(order + 1, dtype=np.int64)
    at_most = np.zeros(order + 1, dtype=np.int64)  # p_(k-1), starting at p_0
    at_most[0] = 1
    k = 1
    while k * k <= order:
        prev = at_most
        at_most = prev.copy()
        for s in range(k, order + 1, k):
            e = min(s + k, order + 1)
            at_most[s:e] = (at_most[s:e] + at_most[s - k:e - k]) % PRIME
        s11 = (s11 + _shift_sum(at_most, [k * k], k)) % PRIME
        s12 = (s12 + _shift_sum(at_most, [k * k], k) - _shift_sum(prev, [k * k])) % PRIME
        k += 1
    out["S11"], out["S12"] = s11, s12
    return out


def mod_equal(values: list, ref: np.ndarray) -> int | None:
    """First index where exact ``values`` differ from ``ref`` mod PRIME."""
    if len(values) != len(ref):
        return min(len(values), len(ref))
    for n, (v, r) in enumerate(zip(values, ref.tolist())):
        if v % PRIME != r:
            return n
    return None


class References:
    """The references a workload needs, built once per run."""

    def __init__(self, workload: str, inputs: dict):
        if workload in ("census-scan", "series-scan"):
            self.brute = brute_tables()
        if workload == "census-scan":
            top = inputs["n"] + inputs["delta"]
            self.counting = {c: counting(c, top) for c in CLASSES}
            self.series = series_mod(top)
            self.boundary = {c: boundary_tables(c, top) for c in CLASSES}
        elif workload == "series-scan":
            order = inputs["bivariate_order"]
            self.counting = {c: counting(c, order) for c in CLASSES}
            self.series = series_mod(inputs["crossover_n"])
            self.boundary = {c: boundary_tables(c, BOUNDARY_ORDER, 2) for c in CLASSES}


# --------------------------------------------------------------------------
# census-scan
# --------------------------------------------------------------------------


def expected_scans(tables: dict, t_list: list, n_max: int) -> list:
    scans = []
    for t in sorted(set(t_list)):
        for pair, gap, cong in (("r", "r1", "r2"), ("g", "g1", "g2")):
            lhs = [row[t - 1] for row in tables[gap][: n_max + 1]]
            rhs = [row[t - 1] for row in tables[cong][: n_max + 1]]
            bad = [k for k in range(n_max + 1) if not lhs[k] < rhs[k]]
            holds = None if bad and bad[-1] == n_max else (bad[-1] + 1 if bad else 0)
            above = [] if holds is None else [k for k in range(holds, n_max + 1) if not lhs[k] < rhs[k]]
            scans.append({"t": t, "pair": pair, "n_max": n_max, "holds_from": holds,
                          "counterexamples_above": above})
    return scans


def table_problems(c: str, counts: list, card: list, total: list, n_max: int, refs) -> list:
    """Everything a census table of one class must satisfy, sizes 0..n_max."""
    if not (len(counts) == len(card) == len(total) == n_max + 1):
        return [f"{c}: table has {len(counts)}/{len(card)}/{len(total)} rows, want {n_max + 1}"]
    out = []
    for name, ref in (("brute force", refs.brute[c]), ("boundary DP", refs.boundary[c][1])):
        bad = next((n for n in range(min(n_max + 1, len(ref))) if list(counts[n][:4]) != ref[n]), None)
        if bad is not None:
            out.append(f"{c}: t-hooks at n={bad} are {counts[bad][:4]}, {name} {ref[bad]}")
    bad = next((n for n in range(n_max + 1) if card[n] != refs.boundary[c][0][n]), None)
    if bad is not None:
        out.append(f"{c}: cardinality at n={bad} is {card[bad]}, boundary DP {refs.boundary[c][0][bad]}")
    bad = next((n for n in range(n_max + 1) if card[n] != refs.counting[c][n]), None)
    if bad is not None:
        out.append(f"{c}: cardinality at n={bad} is {card[bad]}, DP {refs.counting[c][bad]}")
    bad = next((n for n in range(n_max + 1) if total[n] != n * card[n]), None)
    if bad is not None:
        out.append(f"{c}: total_hooks[{bad}] = {total[bad]} != n * cardinality")
    for key, (cls, t) in SERIES_CLASS.items():
        if cls == c and key in refs.series:
            bad = mod_equal([row[t - 1] for row in counts], refs.series[key][: n_max + 1])
            if bad is not None:
                out.append(f"{c}: {t}-hooks at n={bad} disagree with the part-statistics DP")
    return out


def parse_csv(text: str, n_max: int, t_max: int) -> list:
    lines = text.split("\n")
    if lines[0] != "n,t,count" or lines[-1] != "":
        raise ValueError("bad CSV header or ending")
    rows = [[0] * t_max for _ in range(n_max + 1)]
    body = lines[1:-1]
    if len(body) != (n_max + 1) * t_max:
        raise ValueError(f"CSV has {len(body)} rows, want {(n_max + 1) * t_max}")
    for i, line in enumerate(body):
        n, t, count = (int(x) for x in line.split(","))
        if (n, t) != (i // t_max, i % t_max + 1):
            raise ValueError(f"CSV row {i + 1} is ({n}, {t}), out of order")
        rows[n][t - 1] = count
    return rows


def check_census(inputs: dict, res: dict, refs: References) -> list:
    fails = []
    n, top, t_max = inputs["n"], inputs["n"] + inputs["delta"], inputs["t_max"]
    ops = {op["name"]: op for op in res["ops"]}
    cold, final = {}, {}
    for c in inputs["class_order"]:
        name = f"census-{c}"
        f = res["files"][c]
        try:
            table = parse_csv(f["csv"], n, t_max)
            side = json.loads(f["sidecar"])
            payload = ops[name]["out"]
            for key in ("class", "n_max", "t_max", "cardinality", "total_hooks"):
                if side[key] != payload[key]:
                    fails.append((name, f"sidecar {key} differs from the printed payload"))
            if (side["class"], side["n_max"], side["t_max"]) != (c, n, t_max):
                fails.append((name, "sidecar shape is wrong"))
            fails += [(name, m) for m in
                      table_problems(c, table, side["cardinality"], side["total_hooks"], n, refs)]
            cold[c] = table
        except (TypeError, KeyError, ValueError, AttributeError) as exc:
            fails.append((name, f"unreadable output: {exc!r}"))
        try:
            cache = json.loads(f["cache"])
            if (cache["class"], cache["n_max"], cache["t_max"]) != (c, top, t_max):
                raise ValueError(f"cache shape {cache['n_max']}/{cache['t_max']}")
            fails += [("conjecture-extend", m) for m in
                      table_problems(c, cache["counts"], cache["cardinality"], cache["total_hooks"], top, refs)]
            final[c] = cache["counts"]
            if c in cold and [row[:t_max] for row in cache["counts"][: n + 1]] != cold[c]:
                fails.append(("conjecture-extend", f"{c}: extension changed rows of the cold table"))
            if c in cold and (cache["cardinality"][: n + 1] != side["cardinality"]
                              or cache["total_hooks"][: n + 1] != side["total_hooks"]):
                fails.append(("conjecture-extend", f"{c}: extension changed cold cardinalities"))
        except (TypeError, KeyError, ValueError, AttributeError) as exc:
            fails.append(("conjecture-extend", f"{c}: unreadable cache: {exc!r}"))
    for name, tables, n_max in (("conjecture-cold", cold, n), ("conjecture-extend", final, top),
                                ("conjecture-repeat", final, top)):
        if len(tables) < len(CLASSES):
            fails.append((name, "no verified tables to check the scan against"))
            continue
        want = {"scans": expected_scans(tables, inputs["t"], n_max)}
        if ops[name]["out"] != want:
            fails.append((name, f"scan {ops[name]['out']} does not follow from the tables"))
    return fails


# --------------------------------------------------------------------------
# series-scan
# --------------------------------------------------------------------------


def series_problems(series: dict, order: int, refs: References) -> dict:
    """{series key: message} for every dumped series that fails a reference."""
    bad = {}
    for key, (c, t) in SERIES_CLASS.items():
        s = series.get(key)
        if not isinstance(s, list) or len(s) != order + 1:
            bad[key] = "missing or wrong length"
            continue
        for name, table in (("brute force", refs.brute[c]), ("boundary DP", refs.boundary[c][1])):
            low = [row[t - 1] for row in table]
            if s[: len(low)] != low:
                n = next(i for i, (a, b) in enumerate(zip(s, low)) if a != b)
                bad[key] = f"coefficient {n} is {s[n]}, {name} {low[n]}"
                break
        if key not in bad and key in refs.series:
            n = mod_equal(s, refs.series[key])
            if n is not None:
                bad[key] = f"coefficient {n} disagrees with the part-statistics DP"
    return bad


def check_series(inputs: dict, res: dict, refs: References, series: dict, bad: dict) -> list:
    fails = []
    order = inputs["crossover_n"]
    cps = sorted(inputs["checkpoints"])
    for op in res["ops"]:
        name, out = op["name"], op["out"]
        try:
            if op["group"] == "crossover":
                pair = name.removeprefix("crossover-")
                lkey, rkey, greater = CROSSOVER_PAIRS[pair]
                used = {lkey, rkey} & set(bad)
                if used:
                    fails.append((name, f"series {sorted(used)} failed their references"))
                    continue
                lhs, rhs = series[lkey], series[rkey]
                viol = [k for k in range(order + 1)
                        if not (lhs[k] > rhs[k] if greater else lhs[k] < rhs[k])]
                first = None if viol and viol[-1] == order else (viol[-1] + 1 if viol else 0)
                want = {"pair": pair, "n_max": order, "first_hold": first, "violations": viol}
                if out != want:
                    fails.append((name, f"report {out} does not follow from the series"))
                elif first is None:
                    fails.append((name, "inequality fails at n_max"))
            elif op["group"] == "ratios":
                pair = name.removeprefix("ratios-")
                rows = out["rows"]
                if [r["n"] for r in rows] != cps:
                    fails.append((name, "rows do not match the checkpoints"))
                    continue
                if pair.endswith("-model"):
                    key = ("S" if pair[0] == "r" else "H") + pair[1:3]
                    if key in bad:
                        fails.append((name, f"series {key} failed its references"))
                        continue
                    for r in rows:
                        if r["coefficient"] != float(series[key][r["n"]]) or not math.isclose(
                                r["ratio"], series[key][r["n"]] / r["model"], rel_tol=1e-12):
                            fails.append((name, f"row n={r['n']} does not follow from the series"))
                            break
                    if abs(rows[-1]["ratio"] - 1) > MODEL_TOLERANCE:
                        fails.append((name, f"ratio {rows[-1]['ratio']} at n={cps[-1]} is not near 1"))
                else:
                    num, den, limit = CROSS_RATIOS[pair]
                    if {num, den} & set(bad):
                        fails.append((name, "a series failed its references"))
                        continue
                    for r in rows:
                        if (r["ratio"] != series[num][r["n"]] / series[den][r["n"]]
                                or not math.isclose(r["limit"], limit, rel_tol=1e-12)):
                            fails.append((name, f"row n={r['n']} does not follow from the series"))
                            break
                    if not rows[-1]["abs_error"] < rows[0]["abs_error"]:
                        fails.append((name, "does not approach its limit"))
            elif op["group"] == "identity":
                which = name.removeprefix("identity-")
                if out != {"which": which, "order": inputs["identity_order"], "ok": True,
                           "first_mismatch": None}:
                    fails.append((name, f"identity check reported {out}"))
                fam = ("r1", "r2") if which == "RR1" else ("g1", "g2")
                for c in fam:
                    if res["counting_series"][c] != refs.counting[c]:
                        fails.append((name, f"counting_series({c}) differs from the DP"))
            elif op["group"] == "bivariate":
                fam, j, t = name[-3], int(name[-2]), int(name[-1])
                key = ("S" if fam == "R" else "H") + f"{j}{t}"
                c = SERIES_CLASS[key][0]
                cut = inputs["bivariate_order"] + 1
                if out["at_x_one"] != refs.counting[c]:
                    fails.append((name, "x = 1 marginal differs from the DP count"))
                if key in bad or out["x_derivative"] != series[key][:cut]:
                    fails.append((name, f"d/dx at x = 1 differs from the verified {key}"))
            elif op["group"] == "asym" and name.startswith("asym-"):
                rows = out["rows"]
                eps = sorted(set(inputs["asym_eps"]), reverse=True)
                devs = [abs(r["direct_value"] / r["main_term"] - 1) for r in rows]
                if (out["target"] != name.removeprefix("asym-") or [r["epsilon"] for r in rows] != eps
                        or not out["monotone"]):
                    fails.append((name, "table shape or monotone flag is wrong"))
                elif not all(a > b for a, b in zip(devs, devs[1:])) or devs[-1] > 1e-3:
                    fails.append((name, f"no monotone approach to 1: {devs}"))
            elif op["group"] == "asym":
                bound = 2 * math.exp(-4 * math.pi**2 / out["epsilon"]) + 1e-300
                if not abs(complex(out["re"], out["im"])) <= bound:
                    fails.append((name, f"residual {out} above e^(-4 pi^2/eps)"))
        except (TypeError, KeyError, ValueError, AttributeError, IndexError) as exc:
            fails.append((name, f"unreadable output: {exc!r}"))
    return fails


# --------------------------------------------------------------------------
# verify-suite
# --------------------------------------------------------------------------

VERIFY_MIN_CHECKS = 20  # 8 series, 4 conservation, 2 identities, 4 + 2 hook properties


def check_verify(inputs: dict, res: dict) -> list:
    fails = []
    out = res["ops"][0]["out"]
    try:
        checks = out["checks"]
        if out["n_max"] != inputs["n_max"] or not out["ok"] or not all(c["ok"] for c in checks):
            fails.append(("verify", "verify reported a failing check"))
        if len(checks) < VERIFY_MIN_CHECKS:
            fails.append(("verify", f"only {len(checks)} checks ran"))
    except (TypeError, KeyError) as exc:
        fails.append(("verify", f"unreadable output: {exc!r}"))
    key, exponent, _ = inputs["corrupt"]
    corrupt = res.get("corrupt")
    failing = [c for c in corrupt if not c["ok"]] if isinstance(corrupt, list) else None
    if (failing is None or len(failing) != 1 or not failing[0]["name"].startswith(f"series {key} ")
            or f"n={exponent}:" not in failing[0]["detail"]):
        fails.append(("verify", f"planted error in {key} at n={exponent} was not reported: {corrupt}"))
    return fails
