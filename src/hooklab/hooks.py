"""Young-diagram geometry and t-hook censuses.

The hook length of the cell (i, j) of a partition is
``h(i, j) = parts[i] + conj[j] - i - j + 1`` (1-based indices, ``conj`` the
conjugate partition): the cells to its right, the cells below it, and the
cell itself.  A census aggregates, class by class and size by size, the
number of cells of each hook length up to a bound.  It is computed by an
exact scan over boundary words (:func:`census_rows`); exhaustive enumeration
(:func:`enumerated_census`) is kept as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .classes import RESIDUE_CLASSES, ClassId, Partition, iter_class

#: largest n_max and t_max a census accepts
CENSUS_CEILING = 200


def conjugate(parts: Partition) -> Partition:
    """The partition whose rows are the columns of the Young diagram."""
    if not parts:
        return ()
    out = []
    k = len(parts)
    for j in range(1, parts[0] + 1):
        while parts[k - 1] < j:
            k -= 1
        out.append(k)
    return tuple(out)


def hook_lengths(parts: Partition) -> list:
    """Table of hook lengths, one list per row of the Young diagram."""
    conj = conjugate(parts)
    return [
        [parts[i - 1] + conj[j - 1] - i - j + 1 for j in range(1, parts[i - 1] + 1)]
        for i in range(1, len(parts) + 1)
    ]


def t_hook_count(parts: Partition, t: int) -> int:
    """Number of cells whose hook length is exactly ``t`` (t >= 1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    bins = [0] * t
    _bin_hooks(parts, t, bins)
    return bins[t - 1]


@dataclass(frozen=True)
class ShortcutStats:
    """Part-statistics that shortcut small-hook counts.

    For any partition the 1-hooks are the corner cells, so their number is
    ``distinct``; the 2-hooks number ``gap_gt1 + mult_gt1``.
    """

    ell: int           # number of parts
    distinct: int      # number of different parts
    ell_gt1: int       # parts greater than 1
    distinct_gt1: int  # different parts greater than 1
    mult_gt1: int      # part values occurring more than once
    gap_gt1: int       # indices i with parts[i] - parts[i+1] > 1, last part vs 0


def shortcut_stats(parts: Partition) -> ShortcutStats:
    """Compute all shortcut statistics of a partition."""
    ell = len(parts)
    ell_gt1 = sum(1 for p in parts if p > 1)
    distinct = distinct_gt1 = mult_gt1 = gap_gt1 = 0
    i = 0
    while i < ell:  # run-length over equal part values
        j = i
        while j < ell and parts[j] == parts[i]:
            j += 1
        distinct += 1
        if parts[i] > 1:
            distinct_gt1 += 1
        if j - i > 1:
            mult_gt1 += 1
        i = j
    for i in range(ell):
        nxt = parts[i + 1] if i + 1 < ell else 0
        if parts[i] - nxt > 1:
            gap_gt1 += 1
    return ShortcutStats(ell, distinct, ell_gt1, distinct_gt1, mult_gt1, gap_gt1)


def _bin_hooks(parts: Partition, t_max: int, bins: list) -> None:
    """Accumulate into ``bins[t-1]`` the cells of hook length t <= t_max.

    Within a row the hook lengths strictly decrease left to right, so only a
    suffix of each row can hold hooks <= t_max; the walk stops at the first
    larger one, which skips exactly the cells that would land in the tail.
    """
    if not parts:
        return
    ell = len(parts)
    lam1 = parts[0]
    conj = [0] * (lam1 + 1)
    k = ell
    for j in range(1, lam1 + 1):
        while parts[k - 1] < j:
            k -= 1
        conj[j] = k
    for i in range(1, ell + 1):
        base = parts[i - 1] - i + 1
        j = parts[i - 1]
        while j >= 1:
            h = base + conj[j] - j
            if h > t_max:
                break
            bins[h - 1] += 1
            j -= 1


@dataclass
class HookCensus:
    """Exact t-hook counts over one class for all sizes up to ``n_max``.

    ``counts[n][t-1]`` is the total number of t-hooks over the class members
    of size n, for 1 <= t <= t_max.  ``total_hooks[n]`` sums hooks of every
    length (each cell carries one hook, so it must equal
    ``n * cardinality[n]``), and ``cardinality[n]`` is the class count.
    """

    class_id: ClassId
    n_max: int
    t_max: int
    counts: list = field(default_factory=list)
    cardinality: list = field(default_factory=list)
    total_hooks: list = field(default_factory=list)

    def count(self, n: int, t: int) -> int:
        if not (0 <= n <= self.n_max and 1 <= t <= self.t_max):
            raise IndexError(f"(n={n}, t={t}) outside census table")
        return self.counts[n][t - 1]

    def series(self, t: int) -> list:
        """Coefficient list [count(0,t), ..., count(n_max,t)]."""
        return [row[t - 1] for row in self.counts]

    @classmethod
    def from_rows(cls, class_id: ClassId, n_max: int, t_max: int, rows: dict) -> "HookCensus":
        """The table for sizes 0..n_max from ``{n: (bins, total_hooks, cardinality)}``."""
        table = cls(class_id, n_max, t_max)
        for n in range(n_max + 1):
            bins, total, card = rows[n]
            table.counts.append(bins)
            table.total_hooks.append(total)
            table.cardinality.append(card)
        return table


def check_shape(n_max: int, t_max: int) -> None:
    """Reject a census shape outside 0 <= n_max and 1 <= t_max, both at most
    :data:`CENSUS_CEILING`, before any work is done."""
    if not (0 <= n_max <= CENSUS_CEILING and 1 <= t_max <= CENSUS_CEILING):
        raise ValueError(
            f"need 0 <= n_max <= {CENSUS_CEILING} and 1 <= t_max <= {CENSUS_CEILING} "
            f"(census ceiling); got n_max={n_max}, t_max={t_max}"
        )


def _closing_rule(class_id: ClassId):
    """``(cap, closes)`` for the class's boundary words: ``closes(g, w)`` says
    whether an N step may close a part of value w when g E steps (counted up
    to ``cap``) have passed since the last N step.  A word starts at g = cap,
    since the smallest part has no gap rule; g = 0 means the word ends in N."""
    if class_id is ClassId.R1:
        return 3, lambda g, w: g >= 2
    if class_id is ClassId.G1:
        return 3, lambda g, w: g >= 3 or (g == 2 and w % 2 == 0)
    residues, modulus = RESIDUE_CLASSES[class_id]
    return 1, lambda g, w: w % modulus in residues


def _merge(states: dict, key: tuple, vec: list) -> None:
    old = states.get(key)
    states[key] = vec if old is None else list(map(add, old, vec))


def _boundary_census(class_id: ClassId, n_max: int, t_max: int) -> list:
    """``[cardinality, H_1, ..., H_t_max]`` for every size 0..n_max, where H_t
    is the number of t-hooks summed over the class members of that size.

    Read from its smallest part up, a partition is the boundary word
    E^(l_k) N E^(l_(k-1) - l_k) N ... E^(l_1 - l_2) N of its Young diagram:
    each N step closes a part whose value is the width, the number of E steps
    before it.  The cell in the column of an E step and the row of a later N
    step has hook length equal to their distance in the word, so H_t counts
    the (word, marked E step) pairs whose letter t places after the mark is N.

    The scan runs over the width w.  A state (g, s) holds the words of size s
    with g E steps since their last N, and carries the vector
    ``[count, H_1..H_T, M_0..M_(T-1)]``: the number of words, the hooks
    completed within them, and M_a the (word, marked E) pairs with a letters
    after the mark.  An E step starts a mark on itself (M_0 = count) and ages
    the others; an N step turns each mark of age a into an (a+1)-hook
    (H += M) and ages them.  A mark older than T can complete no hook that is
    counted and drops out, so the state space is linear in T, not 2^T as for
    a window of the last T letters.  Hook lengths never exceed the size, so
    T = min(t_max, n_max).
    """
    span = min(t_max, n_max)
    cap, closes = _closing_rule(class_id)
    totals = [[0] * (1 + span) for _ in range(n_max + 1)]
    totals[0][0] = 1  # the empty partition
    states = {(cap, 0): [1] + [0] * (2 * span)}
    for w in range(1, n_max + 1):
        grown: dict = {}
        for (g, s), vec in states.items():
            if s + w <= n_max:  # a part of value >= w still fits
                _merge(grown, (min(g + 1, cap), s), vec[: 1 + span] + [vec[0]] + vec[1 + span : -1])
        # sizes ascending, so a congruence class can close several parts of value w
        for s in range(n_max - w + 1):
            for g in range(cap, -1, -1):
                vec = grown.get((g, s))
                if vec is not None and closes(g, w):
                    marks = vec[1 + span :]
                    hooks = list(map(add, vec[1 : 1 + span], marks))
                    _merge(grown, (0, s + w), [vec[0]] + hooks + [0] + marks[:-1])
        for (g, s), vec in grown.items():
            if g == 0:  # the word ends in N: a whole partition, whose largest part is w
                totals[s] = list(map(add, totals[s], vec[: 1 + span]))
        states = grown
    return [row + [0] * (t_max - span) for row in totals]


def census_rows(class_id: ClassId, ns, t_max: int, *, workers: int | None = None) -> dict:
    """Hook-census rows ``{n: (bins, total_hooks, cardinality)}`` for the sizes
    ``ns``, where ``bins[t-1]`` is the number of t-hooks over the class members
    of size n and ``total_hooks`` is ``n * cardinality`` (one hook per cell).

    Computed exactly by the boundary-word scan of :func:`_boundary_census`,
    with no enumeration.  ``workers`` is accepted, and must be at least 1,
    because the benchmark harness in ``bench/`` passes it; the scan is
    serial, so it selects nothing.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    ns = list(ns)
    check_shape(max(ns, default=0), t_max)
    if any(n < 0 for n in ns):
        raise ValueError("sizes must be >= 0")
    if not ns:
        return {}
    totals = _boundary_census(class_id, max(ns), t_max)
    return {n: (totals[n][1:], n * totals[n][0], totals[n][0]) for n in ns}


def census(class_id: ClassId, n_max: int, t_max: int) -> HookCensus:
    """Full hook census of one class for 0 <= n <= n_max, 1 <= t <= t_max."""
    check_shape(n_max, t_max)
    rows = census_rows(class_id, range(n_max + 1), t_max)
    return HookCensus.from_rows(class_id, n_max, t_max, rows)


def enumerated_census(class_id: ClassId, n_max: int, t_max: int) -> HookCensus:
    """The same census by exhaustive enumeration: every class member from
    :func:`iter_class`, its hooks binned one partition at a time and its
    parts summed for ``total_hooks``.  Serial and slow; it is the independent
    oracle that the boundary-word scan is checked against."""
    if n_max < 0 or t_max < 1:
        raise ValueError("need n_max >= 0 and t_max >= 1")
    rows = {}
    for n in range(n_max + 1):
        bins = [0] * t_max
        card = total = 0
        for p in iter_class(class_id, n):
            card += 1
            total += sum(p)
            _bin_hooks(p, t_max, bins)
        rows[n] = (bins, total, card)
    return HookCensus.from_rows(class_id, n_max, t_max, rows)


