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

Two tables define the classes, and every other layer reads them rather
than restating a rule: :data:`GAP_RULES` gives a gap class's least
difference below a part, by the part's parity (R1 (2, 2), G1 (2, 3)), and
:data:`RESIDUE_CLASSES` a congruence class's allowed residues and modulus.
:func:`contains` and :func:`iter_class` here, the census scan in ``hooks``
and the series builders in ``qseries`` all take their rules from them.
"""

from __future__ import annotations

import enum
from typing import Iterator

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


def contains(class_id: ClassId, parts: Partition) -> bool:
    """Membership test for a valid partition; vacuous for the empty one."""
    if class_id in GAP_RULES:
        gaps = GAP_RULES[class_id]
        return all(p - r >= gaps[p % 2] for p, r in zip(parts, parts[1:]))
    residues, modulus = RESIDUE_CLASSES[class_id]
    return all(p % modulus in residues for p in parts)


def _iter_gap_class(n: int, gaps: tuple) -> Iterator[Partition]:
    # recursive descent, largest part first -> descending lexicographic order;
    # below a part p the next is at most lower[p], and parts at most c under
    # the rule sum to at most room[c]
    lower = [max(p - gaps[p % 2], 0) for p in range(n + 1)]
    room = [0] * (n + 1)
    for c in range(1, n + 1):
        room[c] = c + room[lower[c]]
    prefix: list = []

    def rec(rem: int, cap: int) -> Iterator[Partition]:
        if rem == 0:
            yield tuple(prefix)
            return
        for p in range(min(rem, cap), 0, -1):
            if rem - p <= room[lower[p]]:
                prefix.append(p)
                yield from rec(rem - p, lower[p])
                prefix.pop()

    return rec(n, n)


def _iter_residue_class(n: int, residues: frozenset, modulus: int) -> Iterator[Partition]:
    """The partitions of ``n`` into allowed values, descending lexicographic,
    by greedy fill and backtrack.

    The fill completes the parts so far with as many copies as fit of the
    largest allowed value, then of the largest that fits what is left, and
    so on; the value 1 is allowed in both congruence classes and mod 1, so
    every fill ends at 0.  That gives the largest completion, which comes
    next in the order.  The backtrack then drops the trailing 1s and steps
    the last remaining part down to the next smaller allowed value, and the
    fill completes that.  No part left of the step changes, so the order is
    kept, and the enumeration ends when only 1s are left to drop.
    """
    allowed = [v for v in range(n, 0, -1) if v % modulus in residues]
    # fit[r]: the index in ``allowed`` of the largest allowed value <= r
    fit, j = [0] * (n + 1), len(allowed)
    for r in range(1, n + 1):
        if r % modulus in residues:
            j -= 1
        fit[r] = j
    parts: list = []
    rem, j = n, 0
    while True:
        while rem:
            v = allowed[j]
            k = rem // v
            parts += [v] * k
            rem -= k * v
            j = fit[rem]
        yield tuple(parts)
        if parts and parts[-1] == 1:
            first = parts.index(1)
            rem = len(parts) - first
            del parts[first:]
        if not parts:
            return
        v = parts.pop()
        rem += v
        j = fit[v] + 1


def iter_class(class_id: ClassId, n: int) -> Iterator[Partition]:
    """Generate every partition of ``n`` in the class exactly once,
    in descending lexicographic order of part tuples."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if class_id in GAP_RULES:
        return _iter_gap_class(n, GAP_RULES[class_id])
    residues, modulus = RESIDUE_CLASSES[class_id]
    return _iter_residue_class(n, residues, modulus)


def all_partitions(n: int) -> Iterator[Partition]:
    """All unrestricted partitions of ``n``, descending lexicographic: the
    congruence enumerator with every residue mod 1 allowed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _iter_residue_class(n, frozenset({0}), 1)
