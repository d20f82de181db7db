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
of its components is one int that packs a count per size in fixed-width
digits, wide enough for any count of words up to n_max
(:func:`_size_digit_width`), so a sum over all sizes is one int sum, a
part of value w one shift, and where parts of value w may repeat
1/(1 - q^w) a few shifted sums by doubling.  Each class enters it as its
least-gap rule, ``classes.least_gap``.  Exhaustive enumeration
(:func:`enumerated_census`) is kept as the scan's oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, rshift, sub

from .classes import ClassId, Partition, _boundary_masks, _east, _partition_bits, least_gap, walk

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
    j, h = parts[i] + conj[j] - i - j - 1 = (parts[i] - i - 1) + cols[j],
    where cols[j] = conj[j] - j is taken once per partition, so row i is
    cols[:parts[i]] shifted by parts[i] - i - 1, one addition per cell."""
    cols = [c - j for j, c in enumerate(conj)]
    return [r - i - 1 + c for i, r in enumerate(parts) for c in cols[:r]]


def hook_lengths(parts: Partition) -> list:
    """Table of hook lengths, one list per row of the Young diagram: the
    cells of :func:`_hook_cells`, cut at the ends of the rows."""
    cells = _hook_cells(parts, conjugate(parts))
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


class ShortcutStats(namedtuple("ShortcutStats", "ell distinct ell_gt1 distinct_gt1 mult_gt1 gap_gt1")):
    """Part-statistics that shortcut small-hook counts:

    - ``ell``: number of parts;
    - ``distinct``: number of different parts;
    - ``ell_gt1``: parts greater than 1;
    - ``distinct_gt1``: different parts greater than 1;
    - ``mult_gt1``: part values occurring more than once;
    - ``gap_gt1``: indices i with parts[i] - parts[i+1] > 1, last part vs 0.

    For any partition the 1-hooks are the corner cells, so their number is
    ``distinct``; the 2-hooks number ``gap_gt1 + mult_gt1``.
    """

    __slots__ = ()


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


class HookCensus(namedtuple("HookCensus", "class_id n_max t_max counts cardinality")):
    """Exact t-hook counts over one class for all sizes up to ``n_max``.

    ``counts[n][t-1]`` is the total number of t-hooks over the class members
    of size n, for 1 <= t <= t_max, and ``cardinality[n]`` is the class
    count.
    """

    __slots__ = ()

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
        counts, cardinality = [], []
        for n in range(n_max + 1):
            bins, _, card = rows[n]
            counts.append(bins)
            cardinality.append(card)
        return cls(class_id, n_max, t_max, counts, cardinality)


def check_shape(n_max: int, t_max: int) -> None:
    """Reject a census shape outside 0 <= n_max and 1 <= t_max, both at most
    :data:`CENSUS_CEILING`, before any work is done."""
    if not (0 <= n_max <= CENSUS_CEILING and 1 <= t_max <= CENSUS_CEILING):
        raise ValueError(
            f"need 0 <= n_max <= {CENSUS_CEILING} and 1 <= t_max <= {CENSUS_CEILING} "
            f"(census ceiling); got n_max={n_max}, t_max={t_max}"
        )


def _size_digit_width(n_max: int) -> int:
    """The bits per size of the census scan's packed components: a multiple
    of 8 above log2(2·(n_max + 1)·p(n_max)), where p(n) is the number of
    all partitions of n, taken from ``classes._partition_bits``.  Why every
    digit fits is argued in :func:`_boundary_census`."""
    bits = math.log2(2 * (n_max + 1)) + _partition_bits(n_max)
    return 8 * (int(bits) // 8 + 1)


def _close(src: list, shift: int, loop: bool, span: int, mask: int) -> list:
    """The layer y of words that end in an N step closing a part of value w,
    indexed by their size before that step: y = N(src), or, when ``loop``
    lets several parts of value w close in a row, y = N(src + q^w y).
    ``shift`` is w times the digit width, and ``mask`` keeps the sizes
    that can still take the part, cutting ``src`` first: a layer deeper
    than 1 was last cut at an earlier width.

    N keeps the count, turns each mark of age a into an (a+1)-hook and ages
    the marks.  The loop is solved one component at a time: the aged marks
    m_(a+1) = M_a + q^w m_a by recursion over their age, then the count and
    each H_(a+1) + m_(a+1) by one stride-w running sum, taken by doubling:
    adding a copy shifted by w, 2w, 4w, ... sizes sums 1, 2, 4, 8, ...
    terms of 1/(1 - q^w)."""
    src = [c & mask for c in src]
    count, hooks, marks = src[0], src[1 : 1 + span], src[1 + span :]
    if loop:
        aged, m = [], 0
        for mark in marks:
            m = (mark + (m << shift)) & mask
            aged.append(m)
        sums = [count] + list(map(add, hooks, aged))
        top = mask.bit_length()
        while shift < top:
            sums = [(a + (a << shift)) & mask for a in sums]
            shift <<= 1
        count, hooks, marks = sums[0], sums[1:], aged
    else:
        hooks = list(map(add, hooks, marks))
    return [count] + hooks + [0] + marks[:-1]


def _boundary_census(need, n_max: int, t_max: int) -> list:
    """``[cardinality, H_1, ..., H_t_max]`` for every size 0..n_max, where H_t
    is the number of t-hooks summed over the words of size n that the rule
    ``need`` admits (a least gap per part value, as in ``classes.walk``).

    The scan builds each word from its smallest part up, the reverse of the
    order in ``classes``, so H_t counts the (word, marked E step) pairs
    whose letter t places after the mark is N.

    The scan runs over the width w, size-major.  Layer g holds the words
    with at least g E steps since their last N step (counted up to ``cap``)
    as 1 + 2T components: the number of words, the hooks H_1..H_T
    completed within them, and M_a the (word, marked E) pairs with a
    letters after the mark.  Each component is one int that packs a count
    per size: size s in bits [s·B, (s+1)·B), B = :func:`_size_digit_width`,
    so a sum of components is one int sum, q^w times a component is a shift
    by w·B, and ``& mask`` keeps the sizes 0..L - 1.  A component that is
    zero at every size is 0.  An E step starts a mark on itself and ages
    the others, so it only renames components: layer g - 1 becomes layer
    g, its count becomes M_0 and each M_a becomes M_(a+1).  A mark older
    than T can complete no hook that is counted and drops out, so a layer
    holds 2T + 1 ints, not 2^T as for a window of the last T letters.
    Hook lengths never exceed the size, so T = min(t_max, n_max).

    A rule gives need(w), the fewest E steps between the N step that
    closes a part of value w and the previous N step, or None when no part
    of value w is allowed; ``cap`` is the largest need, and at least 1.
    The layers are cumulative, so the words that may close a part of value
    w are one layer: g = need(w), or g = 1 when need(w) = 0 and the N step
    may also follow one that closed another part of value w.  Their N step
    (:func:`_close`) gives the words that end in N, whose largest part is
    w: they are added to the totals, and, shifted by w, to layer 0.  At
    width w only the sizes up to n_max - w, which can still take a part,
    are kept: layer 0 is cut to them at the width before, and the layer
    that closes a part at that width.

    The width B holds every digit.  A digit at a size s <= n_max counts
    words of size s, at most p(s) <= p(n_max) of them, p(n) the number of
    all partitions of n; or (word, marked E step) pairs of that size, at
    most one per word for a mark M_a and at most one per N step, so at
    most s per word, for a hook H_t; or, before a running sum, the sum of
    two such counts, and each step of the doubling sums a subset of the
    terms of the running sum it ends at.  So every digit is below
    2·(n_max + 1)·p(n_max), whatever the rule, and no digit carries into
    the next.  The totals are unpacked by ``int.to_bytes``, B being a
    multiple of 8; it raises rather than drop a set bit past size n_max.
    """
    span = min(t_max, n_max)
    needs = [None] + [need(w) for w in range(1, n_max + 1)]
    cap = max(filter(None, needs), default=1)
    width = _size_digit_width(n_max)
    masks = [(1 << size * width) - 1 for size in range(n_max + 1)]
    totals = [1] + [0] * span
    # the empty word, at g = cap since the smallest part has no gap rule
    layers = [[1] + [0] * (2 * span)] * (cap + 1)
    for w in range(1, n_max + 1):
        # the E step: a new mark M_0 on every word, the others one letter older
        layers[1:] = [v[: 1 + span] + v[:1] + v[1 + span : -1] for v in layers[:cap]]
        gap = needs[w]
        layers[0] = layers[1]
        if gap is not None:
            shift = w * width
            ended = _close(layers[max(gap, 1)], shift, gap == 0, span, masks[n_max - w + 1])
            totals = [total + (comp << shift) for total, comp in zip(totals, ended)]
            if 2 * w < n_max:  # some of them can still take a part w + 1
                layers[0] = [a + (c << shift) for a, c in zip(layers[1], ended)]
        # keep the sizes 0..n_max - w - 1, which can still take a part w + 1
        layers[0] = [comp & masks[n_max - w] for comp in layers[0]]
    step = width // 8
    columns = []
    for total in totals:
        data = total.to_bytes((n_max + 1) * step, "little")
        columns.append([int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step)])
    pad = [0] * (t_max - span)
    return [list(row) + pad for row in zip(*columns)]


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
    totals = _boundary_census(lambda v: least_gap(class_id, v), max(ns), t_max)
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
    counts, cardinality = [], []
    for n in range(n_max + 1):
        norths, easts = boundary_words(walk(class_id, n))
        counts.append([sum(t_hooks(norths, easts, t)) for t in range(1, t_max + 1)])
        cardinality.append(len(norths))
    return HookCensus(class_id, n_max, t_max, counts, cardinality)
