"""Young-diagram geometry and t-hook censuses.

Hooks are counted on the boundary word of ``classes``, read from the
largest part down.  The cell in the row of an N step and the column of a
later E step has hook length equal to their distance in the word, so a
t-hook is an N step whose letter t places later is E: the t-hooks number
``(north & east >> t).bit_count()``, for one partition in
:func:`t_hook_count` and for the words the class walk carries in
:func:`t_hooks`.  A census scans all the words of a class at once
(:func:`census_rows`).  The cell formula
``h(i, j) = parts[i] + conj[j] - i - j + 1`` (1-based, ``conj`` the
conjugate) of :func:`_hook_cells`, whose flat list of cells
:func:`hook_lengths` cuts into rows, is the independent oracle for all of
them.

The census scan (:func:`_boundary_census`) is exact and size-major: each
of its components is one list over sizes, moved by whole-list slice
operations, so the per-size loop runs in C, and where parts of value w may
repeat it takes 1/(1 - q^w) by the stride-w running sums of
``qseries._running_sums``.  Each class enters it as its least-gap rule,
``classes.least_gap``.  Exhaustive enumeration (:func:`enumerated_census`)
is kept as the scan's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, and_, rshift, sub
from typing import Iterator, NamedTuple

from .classes import ClassId, Partition, _boundary_masks, _east, least_gap, walk
from .qseries import _running_sums

#: largest n_max and t_max a census accepts
CENSUS_CEILING = 200


def conjugate(parts: Partition) -> Partition:
    """The partition whose rows are the columns of the Young diagram.

    Built from the runs of equal parts, smallest first: the columns past the
    next smaller part value and up to a value v are each as long as the
    number of parts >= v, so each distinct part adds one run of the result.
    """
    out: list = []
    prev = 0
    for k in range(len(parts), 0, -1):
        v = parts[k - 1]
        if v > prev:  # parts[k - 1] is the last part of value v
            out += [k] * (v - prev)
            prev = v
    return tuple(out)


def _hook_cells(parts: Partition, conj: Partition) -> list:
    """The hook length of every cell, row by row, as one flat list.

    ``conj`` is the conjugate of ``parts``.  With 0-based row i and column
    j, h = parts[i] + conj[j] - i - j - 1: conj[j] less j - parts[i] + i + 1,
    so row i is conj[:parts[i]] less range(i + 1 - parts[i], i + 1), one
    subtraction per cell, every pass in C."""
    rows = map(
        map,
        repeat(sub),
        map(islice, repeat(conj), parts),
        map(range, map(sub, count(1), parts), count(1)),
    )
    return list(chain.from_iterable(rows))


def hook_lengths(parts: Partition, conj: Partition | None = None) -> list:
    """Table of hook lengths, one list per row of the Young diagram: the
    cells of :func:`_hook_cells`, cut at the ends of the rows.

    ``conj`` is the conjugate of ``parts``, computed here when not given.
    """
    if conj is None:
        conj = conjugate(parts)
    cells = _hook_cells(parts, conj)
    ends = list(accumulate(parts))
    return [cells[a:b] for a, b in zip([0] + ends, ends)]


def t_hook_count(parts: Partition, t: int) -> int:
    """Number of cells whose hook length is exactly ``t`` (t >= 1)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    north, east = _boundary_masks(parts)
    return (north & east >> t).bit_count()


def boundary_words(pairs) -> tuple:
    """``(norths, easts)``: the N and E masks of the words in the
    ``(parts, north)`` pairs of ``classes.walk``, in walk order.  The
    members themselves are not kept."""
    norths, easts = [], []
    for parts, north in pairs:
        norths.append(north)
        easts.append(_east(parts, north))
    return norths, easts


def t_hooks(norths: list, easts: list, t: int) -> Iterator[int]:
    """The t-hooks of each word given by its masks, as :func:`boundary_words`
    gives them, each step one C pass over the words."""
    return map(int.bit_count, map(and_, norths, map(rshift, easts, repeat(t))))


class ShortcutStats(NamedTuple):
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
    """Compute all shortcut statistics of a partition, from the steps
    ``parts[i] - parts[i+1]`` (the last part against 0): a zero step joins
    two equal parts, a step of 1 two values with no gap."""
    ell = len(parts)
    steps = list(map(sub, parts, [*parts[1:], 0]))
    distinct = ell - steps.count(0)
    ones = parts.count(1)
    # a run of equal parts starts after a nonzero step (or at the first
    # part), and holds more than one part when its own step is zero
    mult_gt1 = list(compress(steps, chain((1,), steps))).count(0)
    return ShortcutStats(
        ell, distinct, ell - ones, distinct - (ones > 0), mult_gt1, distinct - steps.count(1)
    )


@dataclass
class HookCensus:
    """Exact t-hook counts over one class for all sizes up to ``n_max``.

    ``counts[n][t-1]`` is the total number of t-hooks over the class members
    of size n, for 1 <= t <= t_max, and ``cardinality[n]`` is the class
    count.
    """

    class_id: ClassId
    n_max: int
    t_max: int
    counts: list = field(default_factory=list)
    cardinality: list = field(default_factory=list)

    @property
    def total_hooks(self) -> list:
        """Hooks of every length per size: each cell carries one hook, so
        ``total_hooks[n]`` is ``n * cardinality[n]``."""
        return [n * card for n, card in enumerate(self.cardinality)]

    def series(self, t: int) -> list:
        """Coefficient list of the t-hook counts over sizes 0..n_max."""
        if not 1 <= t <= self.t_max:
            raise ValueError(f"t must be in 1..{self.t_max}; got t={t}")
        return [row[t - 1] for row in self.counts]

    @classmethod
    def from_rows(cls, class_id: ClassId, n_max: int, t_max: int, rows: dict) -> "HookCensus":
        """The table for sizes 0..n_max from ``{n: (bins, total_hooks, cardinality)}``."""
        table = cls(class_id, n_max, t_max)
        for n in range(n_max + 1):
            bins, _, card = rows[n]
            table.counts.append(bins)
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


def _plus(a, b):
    """The sum of two components, each a list over sizes or None for zero."""
    if a is None:
        return b
    if b is None:
        return a
    return list(map(add, a, b))


def _plus_shifted(a, b, w: int):
    """The component a + q^w b, over the sizes of a."""
    if b is None or len(b) <= w:
        return a
    if a is None:
        return [0] * w + b[:-w]
    out = list(a)
    out[w:] = map(add, out[w:], b)
    return out


def _geometric(a, w: int):
    """The component a / (1 - q^w), as a fresh list."""
    if a is None:
        return None
    out = list(a)
    _running_sums(out, w)
    return out


def _close(src: list, w: int, loop: bool, span: int) -> list:
    """The layer y of words that end in an N step closing a part of value w,
    indexed by their size before that step: y = N(src), or, when ``loop``
    lets several parts of value w close in a row, y = N(src + q^w y).

    N keeps the count, turns each mark of age a into an (a+1)-hook and ages
    the marks.  The loop is solved one component at a time: the aged marks
    m_(a+1) = M_a + q^w m_a by recursion over their age, then the count and
    each H_(a+1) + m_(a+1) by one stride-w running sum."""
    count, hooks, marks = src[0], src[1 : 1 + span], src[1 + span :]
    if loop:
        count, aged, m = _geometric(count, w), [], None
        for mark in marks:
            m = _plus_shifted(mark, m, w)
            aged.append(m)
        hooks = [_geometric(_plus(h, m), w) for h, m in zip(hooks, aged)]
        marks = aged
    else:
        hooks = list(map(_plus, hooks, marks))
    return [count] + hooks + [None] + marks[:-1]


def _boundary_census(class_id: ClassId, n_max: int, t_max: int) -> list:
    """``[cardinality, H_1, ..., H_t_max]`` for every size 0..n_max, where H_t
    is the number of t-hooks summed over the class members of that size.

    The scan builds each word from its smallest part up, the reverse of the
    order in ``classes``, so H_t counts the (word, marked E step) pairs
    whose letter t places after the mark is N.

    The scan runs over the width w, size-major.  Layer g holds the words
    with at least g E steps since their last N step (counted up to ``cap``)
    as 1 + 2T components, each a list over sizes: the number of words, the
    hooks H_1..H_T completed within them, and M_a the (word, marked E) pairs
    with a letters after the mark.  A component that is zero at every size
    is None.  An E step starts a mark on itself and ages the others, so it
    only renames components: layer g - 1 becomes layer g, its count becomes
    M_0 and each M_a becomes M_(a+1).  A mark older than T can complete no
    hook that is counted and drops out, so a layer holds 2T + 1 lists, not
    2^T as for a window of the last T letters.  Hook lengths never exceed
    the size, so T = min(t_max, n_max).

    Every rule is a least gap, need(w) = :func:`~hooklab.classes.least_gap`,
    the fewest E steps between the N step that closes a part of value w and
    the previous N step, or None when no part of value w is allowed; ``cap``
    is the largest need, and at least 1.  The layers are cumulative, so the
    words that may close a part of value w are one layer: g = need(w), or
    g = 1 when need(w) = 0 and the N step may also follow one that closed
    another part of value w.  Their N step
    (:func:`_close`) gives the words that end in N, whose largest part is w:
    they are added to the totals, and, shifted by w, to layer 0.  At width w
    only the sizes up to n_max - w, which can still take a part, are kept.
    """
    span = min(t_max, n_max)
    needs = [None] + [least_gap(class_id, w) for w in range(1, n_max + 1)]
    cap = max(filter(None, needs), default=1)
    totals = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(span)]
    # the empty word, at g = cap since the smallest part has no gap rule
    layers = [[[1] + [0] * n_max] + [None] * (2 * span)] * (cap + 1)
    for w in range(1, n_max + 1):
        # the E step: a new mark M_0 on every word, the others one letter older
        layers[1:] = [v[: 1 + span] + v[:1] + v[1 + span : -1] for v in layers[:cap]]
        gap = needs[w]
        layers[0] = layers[1]
        if gap is not None:
            ended = _close(layers[max(gap, 1)], w, gap == 0, span)
            for total, comp in zip(totals, ended):
                if comp is not None:
                    total[w:] = map(add, total[w:], comp)
            if 2 * w < n_max:  # some of them can still take a part w + 1
                shifted = [c and [0] * w + c[: n_max - 2 * w] for c in ended]
                layers[0] = list(map(_plus, layers[1], shifted))
        # keep the sizes 0..n_max - w - 1, which can still take a part w + 1;
        # once in a layer a list is written only here, so the lists that
        # layers share are cut alike
        for comp in layers[0]:
            if comp is not None:
                del comp[n_max - w :]
    return [list(row) + [0] * (t_max - span) for row in zip(*totals)]


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
    """The same census by exhaustive enumeration: the word the walk carries
    for every class member (:func:`boundary_words`), its t-hooks one
    popcount of that word for each t, taken over all members of a size at
    once (:func:`t_hooks`).  Serial and slow; it is the oracle that the
    scan over all the class's words is checked against."""
    if n_max < 0 or t_max < 1:
        raise ValueError("need n_max >= 0 and t_max >= 1")
    table = HookCensus(class_id, n_max, t_max)
    for n in range(n_max + 1):
        norths, easts = boundary_words(walk(class_id, n))
        table.counts.append([sum(t_hooks(norths, easts, t)) for t in range(1, t_max + 1)])
        table.cardinality.append(len(norths))
    return table
