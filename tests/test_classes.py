"""Membership, enumeration, and counting of the four partition classes."""

import math

import pytest

from hooklab import classes
from hooklab.classes import (
    ClassId,
    _boundary_masks,
    all_partitions,
    contains,
    iter_class,
    least_gap,
    walk,
)
from hooklab.hooks import CENSUS_CEILING, boundary_words, t_hook_count, t_hooks
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


def test_least_gap_is_each_class_rule_as_written():
    # r1: gap 2; g1: gap 2 below an even part and 3 below an odd one; r2 and
    # g2: gap 0 on their allowed residues, so parts repeat, and no part of
    # any other value
    rules = {
        ClassId.R1: lambda v: 2,
        ClassId.G1: lambda v: 2 if v % 2 == 0 else 3,
        ClassId.R2: lambda v: 0 if v % 5 in (1, 4) else None,
        ClassId.G2: lambda v: 0 if v % 8 in (1, 5, 6) else None,
    }
    for cid, rule in rules.items():
        for v in range(1, CENSUS_CEILING + 1):
            assert least_gap(cid, v) == rule(v), (cid, v)


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


@pytest.fixture(scope="module")
def partitions_to_40():
    """The partitions of each n <= 40 as all_partitions yields them, walked
    once for the module: the filtered-generator cases and the pentagonal
    check read the same 215k tuples."""
    return [list(all_partitions(n)) for n in range(41)]


@pytest.mark.parametrize("class_id", list(ClassId))
def test_enumerate_against_filtered_generator(class_id, partitions_to_40):
    # exhaustive realization == membership filter over all partitions
    for n in range(0, 41):
        fast = list(iter_class(class_id, n))
        brute = [p for p in partitions_to_40[n] if contains(class_id, p)]
        assert sorted(fast) == sorted(brute)
        assert len(set(fast)) == len(fast)
        assert fast == sorted(fast, reverse=True)  # descending lexicographic
        assert all(contains(class_id, p) and sum(p) == n for p in fast)


def test_all_partitions_against_the_pentagonal_recurrence(partitions_to_40):
    # all_partitions is the class walk's greedy fill and backtrack with gap 0
    # at every value, so the filtered-generator test above rests on it; its
    # completeness is checked against Euler's recurrence for p(n)
    p = [1]
    for n in range(1, 41):
        terms = ((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2, (-1) ** (k + 1)) for k in range(1, n + 1))
        p.append(sum(sign * (p[n - a] + (p[n - b] if b <= n else 0)) for a, b, sign in terms if a <= n))
    for n in range(41):
        parts = partitions_to_40[n]
        assert len(parts) == len(set(parts)) == p[n]
        assert parts == sorted(parts, reverse=True)
        assert all(is_partition(q) and sum(q) == n for q in parts)


def _gap_rule(gaps):
    """A gap rule written out here: the least gap below a part of value v,
    by the parity of v."""
    return lambda v: gaps[v % 2]


def _residue_rule(residues, modulus):
    """A congruence rule written out here: gap 0 where v is allowed, so
    parts of value v may repeat, and None where it is not."""
    return lambda v: 0 if v % modulus in residues else None


def _meets_walk_condition(need, n: int) -> bool:
    """Part 1 is allowed and room[c], the size of the greedy chain from the
    largest allowed value <= c, does not decrease for c <= n; a repeat makes
    room unbounded."""
    if need(1) is None:
        return False
    top, room = [0], [0]
    for c in range(1, n + 1):
        top.append(c if need(c) is not None else top[-1])
        v = top[c]
        room.append(math.inf if need(v) == 0 else v + room[top[max(v - need(v), 0)]])
    return all(a <= b for a, b in zip(room, room[1:]))


# rules beyond the shipped four that meet the walk's condition, each as
# (table, class it replaces, rule, the rule written out here)
_WALK_RULES = [
    (classes.GAP_RULES, ClassId.R1, gaps, _gap_rule(gaps))
    for gaps in ((1, 1), (3, 2), (3, 4), (4, 4), (1, 3))
] + [
    (classes.RESIDUE_CLASSES, ClassId.R2, residues, _residue_rule(*residues))
    for residues in ((frozenset({1, 3}), 4), (frozenset({1}), 3), (frozenset({1, 2}), 5), (frozenset({1, 4, 6}), 7))
]


def test_enumeration_is_exact_for_rules_that_meet_its_condition(monkeypatch):
    # the enumerator is exact only when part 1 is allowed and room does not
    # decrease: (2, 4) and (5, 1) break that, every shipped rule keeps it,
    # and for rules that keep it the members are all_partitions filtered by
    # the rule as written here, in the same order
    assert not _meets_walk_condition(_gap_rule((2, 4)), 30)
    assert not _meets_walk_condition(_gap_rule((5, 1)), 30)
    for cid, gaps in classes.GAP_RULES.items():
        assert _meets_walk_condition(_gap_rule(gaps), CENSUS_CEILING), cid
    for cid, residues in classes.RESIDUE_CLASSES.items():
        assert _meets_walk_condition(_residue_rule(*residues), CENSUS_CEILING), cid
    for table, cid, rule, need in _WALK_RULES:
        assert _meets_walk_condition(need, 30), rule
        monkeypatch.setitem(table, cid, rule)
        for n in range(31):
            brute = [
                p for p in all_partitions(n)
                if all(need(v) is not None for v in p) and all(a - b >= need(a) for a, b in zip(p, p[1:]))
            ]
            assert list(iter_class(cid, n)) == brute, (rule, n)


def _assert_words_count_hooks(cid, n):
    """The words the walk carries for the members of size n are the words
    _boundary_masks builds from their parts, and give each member's
    t_hook_count for every t <= n + 1."""
    pairs = list(walk(cid, n))
    norths, easts = boundary_words(pairs)
    assert list(zip(norths, easts)) == [_boundary_masks(p) for p, _ in pairs], (cid, n)
    for t in range(1, n + 2):
        assert list(t_hooks(norths, easts, t)) == [t_hook_count(p, t) for p, _ in pairs], (cid, n, t)


def test_walk_carries_each_members_word(monkeypatch):
    for n in range(31):
        _assert_words_count_hooks(None, n)
    for cid in ClassId:
        for n in range(41):
            _assert_words_count_hooks(cid, n)
    for table, cid, rule, _ in _WALK_RULES:
        monkeypatch.setitem(table, cid, rule)
        for n in range(31):
            _assert_words_count_hooks(cid, n)
    assert boundary_words(walk(None, 0)) == ([0], [0])
    # (3, 1) read from its largest part down is N E E N E
    assert [p for p, _ in walk(None, 4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert boundary_words(walk(None, 4)) == (
        [0b1, 0b1001, 0b11, 0b1101, 0b1111],
        [0b11110, 0b10110, 0b1100, 0b10010, 0b10000],
    )


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
