"""Membership, enumeration, and counting of the four partition classes."""

import pytest

from hooklab.classes import ClassId, all_partitions, contains, iter_class
from hooklab.qseries import counting_series


def is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing sequence of positive ints."""
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def test_is_partition():
    assert is_partition(())
    assert is_partition((5, 5, 2, 1))
    assert not is_partition((2, 3))
    assert not is_partition((3, 0))
    assert not is_partition((3, -1))


@pytest.mark.parametrize(
    "class_id,parts,expected",
    [
        (ClassId.R1, (4, 2), True),
        (ClassId.R1, (2, 1), False),      # gap 1
        (ClassId.R1, (1,), True),
        (ClassId.G1, (3, 1), False),      # 3 is odd, gap exactly 2
        (ClassId.G1, (4, 2), True),       # 4 is even, gap 2 allowed
        (ClassId.G1, (5, 2), True),       # odd upper part, gap 3
        (ClassId.G1, (5, 3), False),      # odd upper part, gap 2
        (ClassId.G1, (4, 1), True),       # final part unconstrained
        (ClassId.G1, (5,), True),
        (ClassId.R2, (6, 4, 1, 1), True),
        (ClassId.R2, (5,), False),
        (ClassId.G2, (6, 5, 1), True),
        (ClassId.G2, (8,), False),
    ],
)
def test_contains(class_id, parts, expected):
    assert contains(class_id, parts) is expected


def test_empty_partition_in_every_class():
    for cid in ClassId:
        assert contains(cid, ())
        assert list(iter_class(cid, 0)) == [()]


def test_enumerate_examples():
    assert list(iter_class(ClassId.R1, 4)) == [(4,), (3, 1)]
    assert list(iter_class(ClassId.R2, 4)) == [(4,), (1, 1, 1, 1)]
    assert list(iter_class(ClassId.G1, 4)) == [(4,)]
    assert list(iter_class(ClassId.G2, 5)) == [(5,), (1, 1, 1, 1, 1)]


def test_count_examples():
    assert len(list(iter_class(ClassId.R1, 4))) == 2 == len(list(iter_class(ClassId.R2, 4)))
    assert len(list(iter_class(ClassId.G1, 4))) == 1 == len(list(iter_class(ClassId.G2, 4)))
    assert len(list(iter_class(ClassId.R1, 0))) == 1


@pytest.mark.parametrize("class_id", list(ClassId))
def test_enumerate_against_filtered_generator(class_id):
    # exhaustive realization == membership filter over all partitions
    for n in range(0, 41):
        fast = list(iter_class(class_id, n))
        brute = [p for p in all_partitions(n) if contains(class_id, p)]
        assert sorted(fast) == sorted(brute)
        assert len(set(fast)) == len(fast)
        assert fast == sorted(fast, reverse=True)  # descending lexicographic
        assert all(contains(class_id, p) and sum(p) == n for p in fast)


def test_all_partitions_against_the_pentagonal_recurrence():
    # all_partitions is the congruence enumerator's greedy fill and backtrack
    # with every value allowed, so the filtered-generator test above rests on
    # it; its completeness is checked against Euler's recurrence for p(n)
    p = [1]
    for n in range(1, 41):
        terms = ((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2, (-1) ** (k + 1)) for k in range(1, n + 1))
        p.append(sum(sign * (p[n - a] + (p[n - b] if b <= n else 0)) for a, b, sign in terms if a <= n))
    for n in range(41):
        parts = list(all_partitions(n))
        assert len(parts) == len(set(parts)) == p[n]
        assert parts == sorted(parts, reverse=True)
        assert all(is_partition(q) and sum(q) == n for q in parts)


def test_equinumerous_pairs_to_60():
    # first Rogers-Ramanujan / first little Gollnitz identities, counting form
    for n in range(61):
        assert len(list(iter_class(ClassId.R1, n))) == len(list(iter_class(ClassId.R2, n)))
        assert len(list(iter_class(ClassId.G1, n))) == len(list(iter_class(ClassId.G2, n)))


@pytest.mark.parametrize("class_id", list(ClassId))
def test_count_matches_product_series(class_id):
    series = counting_series(class_id, 60)
    for n in range(61):
        assert len(list(iter_class(class_id, n))) == series[n]


def test_iter_class_rejects_negative():
    with pytest.raises(ValueError):
        list(iter_class(ClassId.R1, -1))
    with pytest.raises(ValueError):
        list(all_partitions(-2))
