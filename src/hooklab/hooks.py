"""Young-diagram geometry and t-hook censuses.

The hook length of the cell (i, j) of a partition is
``h(i, j) = parts[i] + conj[j] - i - j + 1`` (1-based indices, ``conj`` the
conjugate partition): the cells to its right, the cells below it, and the
cell itself.  A census aggregates, class by class and size by size, the
number of cells of each hook length up to a bound.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .classes import ClassId, Partition, iter_class

#: enumeration ceiling for a single census call (total partitions touched)
DEFAULT_MAX_PARTITIONS = 10**8

#: below this projected size a worker pool is pure overhead
_PARALLEL_THRESHOLD = 200_000


class BudgetExceededError(RuntimeError):
    """Raised when a census would enumerate more partitions than allowed."""

    def __init__(self, projected: int, ceiling: int):
        super().__init__(
            f"census would enumerate {projected} partitions, over the ceiling {ceiling}; "
            "lower n_max or raise max_partitions"
        )
        self.projected = projected
        self.ceiling = ceiling


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


def _census_rows(class_value: str, ns: list, t_max: int) -> list:
    """Census rows for the given sizes: (n, bins, total_hooks, cardinality)."""
    class_id = ClassId(class_value)
    out = []
    for n in ns:
        bins = [0] * t_max
        card = 0
        total = 0
        for p in iter_class(class_id, n):
            card += 1
            total += sum(p)
            _bin_hooks(p, t_max, bins)
        out.append((n, bins, total, card))
    return out


def projected_enumeration(class_id: ClassId, ns) -> int:
    """Exact number of partitions a census over sizes ``ns`` will touch."""
    from .qseries import counting_series  # deferred: qseries imports classes only

    ns = list(ns)
    if not ns:
        return 0
    series = counting_series(class_id, max(ns))
    return sum(series[n] for n in ns)


def _usable_cpus() -> int:
    """CPUs this process may run on (every CPU where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _pool_size(workers: int | None, n_sizes: int, cpus: int) -> int:
    """Processes for a census over ``n_sizes`` sizes: ``workers`` (default
    ``cpus``), capped at the sizes and at ``cpus``; workers < 1 is an error."""
    if workers is None:
        workers = cpus
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return min(workers, n_sizes, cpus)


def census_rows(
    class_id: ClassId,
    ns: list,
    t_max: int,
    *,
    max_partitions: int = DEFAULT_MAX_PARTITIONS,
    workers: int | None = None,
) -> dict:
    """Hook-census rows for an arbitrary set of sizes, budget-checked.

    Returns ``{n: (bins, total_hooks, cardinality)}``.  Sizes are split
    across a process pool when the projected enumeration is large; the merge
    is deterministic because rows are keyed by n.  The pool has at most
    ``workers`` processes (default: the CPUs this process may run on), and
    never more than there are sizes or such CPUs.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    ns = list(ns)
    size = _pool_size(workers, len(ns), _usable_cpus())
    projected = projected_enumeration(class_id, ns)
    if projected > max_partitions:
        raise BudgetExceededError(projected, max_partitions)
    rows: dict = {}
    if size > 1 and projected >= _PARALLEL_THRESHOLD:
        # interleave sizes so each chunk gets a share of the expensive large n
        chunks = [ns[i::size] for i in range(size)]
        with ProcessPoolExecutor(max_workers=size) as pool:
            futures = [
                pool.submit(_census_rows, class_id.value, chunk, t_max) for chunk in chunks
            ]
            for fut in futures:
                for n, bins, total, card in fut.result():
                    rows[n] = (bins, total, card)
    else:
        for n, bins, total, card in _census_rows(class_id.value, ns, t_max):
            rows[n] = (bins, total, card)
    return rows


def census(
    class_id: ClassId,
    n_max: int,
    t_max: int,
    *,
    max_partitions: int = DEFAULT_MAX_PARTITIONS,
    workers: int | None = None,
) -> HookCensus:
    """Full hook census of one class for 0 <= n <= n_max, 1 <= t <= t_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = census_rows(
        class_id,
        list(range(n_max + 1)),
        t_max,
        max_partitions=max_partitions,
        workers=workers,
    )
    result = HookCensus(class_id, n_max, t_max)
    for n in range(n_max + 1):
        bins, total, card = rows[n]
        result.counts.append(bins)
        result.total_hooks.append(total)
        result.cardinality.append(card)
    return result
