"""The four restricted partition classes and their exhaustive enumerators.

A partition is a weakly decreasing tuple of positive integers.  The classes:

* ``R1`` -- consecutive parts differ by at least 2,
* ``R2`` -- every part is congruent to 1 or 4 mod 5,
* ``G1`` -- consecutive parts differ by at least 2, and by more than 2
  whenever the larger part is odd,
* ``G2`` -- every part is congruent to 1, 5 or 6 mod 8.

``R1``/``R2`` are equinumerous at every size by the first Rogers-Ramanujan
identity, ``G1``/``G2`` by the first little Gollnitz identity; those facts
are verified elsewhere (``qseries``), never assumed here.

Gap conditions constrain adjacent actual parts only: a final part of any
size is legal (so e.g. (4, 1) belongs to G1).  The empty partition belongs
to every class.

Two tables define the classes: :data:`GAP_RULES` gives a gap class's
least difference below a part, by the part's parity (R1 (2, 2), G1 (2, 3)),
and :data:`RESIDUE_CLASSES` a congruence class's allowed residues and
modulus.  Both kinds are one rule, read by :func:`least_gap` alone: each
part value has a least gap to the next smaller part, or is not allowed; a
congruence class has gap 0 on its allowed values, so their parts repeat.
:func:`contains`, the enumerator (:func:`walk`, which yields each member
with its boundary word, and :func:`iter_class` and :func:`all_partitions`,
gap 0 everywhere, which yield its parts) and the census scan in ``hooks``
all take membership from it; the product sides in ``qseries`` read
:data:`RESIDUE_CLASSES` directly.

A partition l_1 >= ... >= l_k is also its boundary word, read from the
largest part down: N E^(l_1 - l_2) N ... N E^(l_k), an N step per part
and then the E steps down to the next.  It is kept as two int bitmasks,
bit j set when letter j (from 0) is N or is E, built from the parts by
:func:`_boundary_masks` and carried step by step by the walk.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from itertools import zip_longest
from operator import itemgetter

Partition = tuple  # weakly decreasing tuple of positive ints


class ClassId(enum.Enum):
    """Identifier for one of the four restriction classes."""

    R1 = "r1"
    R2 = "r2"
    G1 = "g1"
    G2 = "g2"


#: least difference between a part p and the next smaller part, for p even
#: and for p odd, in the gap-type classes; the smallest part has no rule
GAP_RULES: dict[ClassId, tuple[int, int]] = {
    ClassId.R1: (2, 2),
    ClassId.G1: (2, 3),
}

#: residue classes (set of residues, modulus) for the congruence-type classes
RESIDUE_CLASSES: dict[ClassId, tuple[frozenset, int]] = {
    ClassId.R2: (frozenset({1, 4}), 5),
    ClassId.G2: (frozenset({1, 5, 6}), 8),
}


def _partition_bits(n: int) -> float:
    """log2 of e^(π·sqrt(2n/3)), n >= 0, which bounds p(n), the number of
    all partitions of n: p(n) <= e^(π·sqrt(2n/3)), equal only at n = 0, and
    p(n) ~ e^(π·sqrt(2n/3))/(4n·sqrt(3)).  p does not decrease, so the
    bound at n holds every p(m), m <= n, and the size of every class at m.
    The packed digit widths of ``hooks`` and ``qseries`` are read from it."""
    return math.pi * math.sqrt(2 * n / 3) / math.log(2)


def least_gap(class_id: ClassId, v: int) -> int | None:
    """The fewest units by which a part of value ``v`` must exceed the next
    smaller part, or None when no part of value ``v`` is allowed: the
    :data:`GAP_RULES` entry for the parity of v in a gap class, and in a
    congruence class 0 where v is allowed, so parts of value v may repeat."""
    if class_id in GAP_RULES:
        return GAP_RULES[class_id][v % 2]
    residues, modulus = RESIDUE_CLASSES[class_id]
    return 0 if v % modulus in residues else None


def contains(class_id: ClassId, parts: Partition) -> bool:
    """Membership test for a valid partition; vacuous for the empty one."""
    return all(
        (gap := least_gap(class_id, p)) is not None and (r is None or p - r >= gap)
        for p, r in zip_longest(parts, parts[1:])
    )


def _east(parts: Partition, north: int) -> int:
    """The E mask of the boundary word of ``parts`` whose N mask is
    ``north``: every letter below ``parts[0] + len(parts)`` that is not N."""
    return ((1 << (parts[0] if parts else 0) + len(parts)) - 1) ^ north


def _boundary_masks(parts: Partition) -> tuple:
    """``(north, east)``: the boundary word of ``parts``, where part i (from
    0) puts its N step at bit ``parts[0] - parts[i] + i``."""
    north = 0
    for i, part in enumerate(parts):
        north |= 1 << parts[0] - part + i
    return north, _east(parts, north)


def _walk(n: int, need) -> Iterator[tuple]:
    """The partitions of ``n`` under the rule ``need`` (a least gap per part
    value, as :func:`least_gap`), descending lexicographic, by greedy fill
    and backtrack, each as ``(parts, north)`` with its boundary word.

    Three tables: ``top[c]`` the largest allowed value <= c, ``below[v]``
    the largest part that may follow a part v, and ``room[c]`` the largest
    size reachable with parts <= c, that of the greedy chain from top[c]
    (all of n once a part may repeat).  The fill completes the parts so far
    with the largest part that fits, top[min(rem, cap)], all its copies at
    once where it may repeat; that is the largest completion, which comes
    next in the order.  The backtrack drops the trailing 1s as one slice,
    then pops parts until the last one popped, v, can step down: room[v - 1]
    covers what is left to fill.  No part left of the step changes, so the
    order is kept, and the walk ends when nothing can step down.

    ``north``, the N mask of the word (:func:`_boundary_masks`), changes
    only where ``parts`` does: a fill of k copies sets one block of k bits,
    and a backtrack cuts the word below the N step of the last part popped,
    which also cuts any 1s it dropped, as a pop always follows the drop.

    The walk is exact only when part 1 is allowed and ``room`` does not
    decrease; every class here meets both.  Otherwise it silently drops
    partitions: gaps (2, 4) by parity lose some from n = 22, and (5, 1)
    from n = 10.
    """
    top, below, room = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for c in range(1, n + 1):
        gap = need(c)
        top[c] = top[c - 1] if gap is None else c
        if gap is not None:
            below[c] = top[max(c - gap, 0)]
        v = top[c]
        room[c] = n if below[v] == v else v + room[below[v]]
    parts: list = []
    rem = cap = n
    head = top[n]  # the largest part, parts[0] once there is one
    north = 0
    while True:
        while rem:
            v = top[rem if rem < cap else cap]
            k = rem // v if below[v] == v else 1
            north |= ((1 << k) - 1) << head - v + len(parts)
            parts += [v] * k
            rem -= k * v
            cap = below[v]
        yield tuple(parts), north
        if parts and parts[-1] == 1:
            first = parts.index(1)
            rem = len(parts) - first
            del parts[first:]
        while parts:
            v = parts.pop()
            rem += v
            if room[v - 1] >= rem:
                break
        else:
            return
        north &= (1 << head - v + len(parts)) - 1
        cap = v - 1
        if not parts:
            head = top[cap]


def walk(class_id: ClassId | None, n: int) -> Iterator[tuple]:
    """``(parts, north)`` for every partition of ``n`` in the class, or every
    partition when ``class_id`` is None, in descending lexicographic order:
    each member with its boundary word, as :func:`_walk` carries it."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if class_id is None:
        return _walk(n, lambda v: 0)
    return _walk(n, lambda v: least_gap(class_id, v))


def iter_class(class_id: ClassId, n: int) -> Iterator[Partition]:
    """Generate every partition of ``n`` in the class exactly once,
    in descending lexicographic order of part tuples."""
    return map(itemgetter(0), walk(class_id, n))


def all_partitions(n: int) -> Iterator[Partition]:
    """All unrestricted partitions of ``n``, descending lexicographic: the
    walk with gap 0 at every value."""
    return map(itemgetter(0), walk(None, n))
