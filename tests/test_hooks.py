"""Young-diagram geometry: conjugation, hook lengths, shortcut statistics,
and the class censuses."""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab import classes
from hooklab.classes import ClassId, _boundary_masks, all_partitions, iter_class
from hooklab.hooks import (
    CENSUS_CEILING,
    _boundary_census,
    _size_digit_width,
    census,
    census_rows,
    conjugate,
    enumerated_census,
    hook_lengths,
    shortcut_stats,
    t_hook_count,
)
from hooklab.qseries import counting_series, series_H, series_S

FIG_PARTITION = (7, 4, 2, 2, 1)

partitions = st.lists(st.integers(1, 12), min_size=0, max_size=12).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_conjugate_examples():
    assert conjugate(FIG_PARTITION) == (5, 4, 2, 2, 1, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((3,)) == (1, 1, 1)


def _conjugate_by_definition(p):
    # column j (0-based) is as long as the number of parts longer than j
    return tuple(sum(1 for part in p if part > j) for j in range(p[0] if p else 0))


def test_conjugate_against_its_definition():
    assert conjugate(()) == _conjugate_by_definition(()) == ()
    for n in range(26):
        for p in all_partitions(n):
            assert conjugate(p) == _conjugate_by_definition(p)
    # class members have long parts and few rows
    for cid in ClassId:
        for p in iter_class(cid, 60):
            assert conjugate(p) == _conjugate_by_definition(p)


def test_hook_length_table():
    # the classic example diagram, row by row
    assert hook_lengths(FIG_PARTITION) == [
        [11, 9, 6, 5, 3, 2, 1],
        [7, 5, 2, 1],
        [4, 2],
        [3, 1],
        [1],
    ]
    assert hook_lengths((1,)) == [[1]]
    assert hook_lengths(()) == []


def test_t_hook_count_examples():
    assert t_hook_count(FIG_PARTITION, 1) == 4
    assert t_hook_count(FIG_PARTITION, 2) == 3
    assert t_hook_count((), 5) == 0
    with pytest.raises(ValueError):
        t_hook_count((2, 1), 0)
    # the corner cell's hook, parts[0] + len(parts) - 1, is the largest; above
    # it a shift by t leaves no N step of the word, so the count is 0
    assert t_hook_count(FIG_PARTITION, 11) == 1
    assert t_hook_count(FIG_PARTITION, 12) == 0
    assert t_hook_count((1,), 2) == 0
    assert t_hook_count((3, 1), 10**8) == 0
    assert t_hook_count((3, 1), 10**12) == 0
    assert t_hook_count((), 10**12) == 0


def test_shortcut_stats_examples():
    st1 = shortcut_stats(FIG_PARTITION)
    assert (st1.ell, st1.distinct, st1.ell_gt1, st1.distinct_gt1, st1.mult_gt1, st1.gap_gt1) == (
        5, 4, 4, 3, 1, 2,
    )
    st0 = shortcut_stats(())
    assert (st0.ell, st0.distinct, st0.ell_gt1, st0.distinct_gt1, st0.mult_gt1, st0.gap_gt1) == (
        0, 0, 0, 0, 0, 0,
    )
    st2 = shortcut_stats((2, 2, 2))
    assert (st2.ell, st2.distinct, st2.ell_gt1, st2.distinct_gt1, st2.mult_gt1, st2.gap_gt1) == (
        3, 1, 3, 1, 1, 1,
    )
    assert t_hook_count((2, 2, 2), 2) == st2.gap_gt1 + st2.mult_gt1 == 2


def _stats_by_definition(p):
    """The six shortcut statistics of ``p``, read off a Counter of its parts."""
    mult = Counter(p)
    values = sorted(mult, reverse=True)
    return (
        sum(mult.values()),
        len(mult),
        sum(m for v, m in mult.items() if v > 1),
        sum(1 for v in mult if v > 1),
        sum(1 for m in mult.values() if m > 1),
        # a gap is taken between different part values, the last against 0
        sum(1 for a, b in zip(values, values[1:] + [0]) if a - b > 1),
    )


def test_shortcut_stats_against_its_definitions():
    members = [p for n in range(26) for p in all_partitions(n)]
    members += [p for cid in ClassId for n in range(41) for p in iter_class(cid, n)]
    for p in members:
        st = shortcut_stats(p)
        assert (st.ell, st.distinct, st.ell_gt1, st.distinct_gt1, st.mult_gt1, st.gap_gt1) == (
            _stats_by_definition(p)
        ), p
    with pytest.raises(AttributeError):  # frozen
        st.ell = 0


def test_hook_properties_exhaustive():
    # involution, conservation, and the 1-/2-hook shortcuts over all shapes
    for n in range(0, 26):
        for p in all_partitions(n):
            assert conjugate(conjugate(p)) == p
            assert sum(conjugate(p)) == n
            hooks = Counter(h for row in hook_lengths(p) for h in row)
            assert sum(hooks.values()) == n
            stats = shortcut_stats(p)
            assert t_hook_count(p, 1) == hooks[1] == stats.distinct
            assert t_hook_count(p, 2) == hooks[2] == stats.gap_gt1 + stats.mult_gt1


def test_class_specializations():
    # gap classes have all parts distinct: 1-hooks count parts, 2-hooks parts > 1
    for n in range(0, 26):
        for cid in (ClassId.R1, ClassId.G1):
            for p in iter_class(cid, n):
                stats = shortcut_stats(p)
                assert t_hook_count(p, 1) == stats.ell
                assert t_hook_count(p, 2) == stats.ell_gt1
        # mod-5 values are never adjacent: 2-hooks == distinct_gt1 + mult_gt1
        for p in iter_class(ClassId.R2, n):
            stats = shortcut_stats(p)
            assert t_hook_count(p, 2) == stats.distinct_gt1 + stats.mult_gt1
        # mod-8 values 8m+5 and 8m+6 are adjacent; when both occur they share
        # one corner, so each co-occurring pair removes one 2-hook
        for p in iter_class(ClassId.G2, n):
            stats = shortcut_stats(p)
            values = set(p)
            pairs = sum(1 for v in values if v % 8 == 6 and v - 1 in values)
            assert t_hook_count(p, 2) == stats.distinct_gt1 + stats.mult_gt1 - pairs


def test_g2_adjacent_pair_counterexample():
    # (6, 5) shows the congruence shortcut needs its adjacency correction
    assert t_hook_count((6, 5), 2) == 1
    stats = shortcut_stats((6, 5))
    assert stats.distinct_gt1 + stats.mult_gt1 == 2


def test_t_hook_count_matches_hook_table_in_every_class():
    # every t up to one past the largest hook, so the count past the word is
    # checked to be 0 too
    for cid in ClassId:
        for n in range(0, 41):
            for p in iter_class(cid, n):
                hooks = Counter(h for row in hook_lengths(p) for h in row)
                for t in range(1, max(hooks, default=0) + 2):
                    assert t_hook_count(p, t) == hooks[t], (cid, p, t)


def _mask_counts(p, t_max):
    """The t-hooks of ``p`` for t = 1..t_max, as popcounts of its boundary word."""
    north, east = _boundary_masks(p)
    return [(north & east >> t).bit_count() for t in range(1, t_max + 1)]


def test_boundary_masks_match_hook_table():
    assert _boundary_masks(()) == (0, 0)
    assert _boundary_masks((3, 1)) == (0b01001, 0b10110)  # N E E N E
    for n in range(0, 19):
        for p in all_partitions(n):
            hooks = Counter(h for row in hook_lengths(p) for h in row)
            assert _mask_counts(p, n + 1) == [hooks[t] for t in range(1, n + 2)], p


@given(partitions)
@settings(max_examples=300, deadline=None)
def test_conjugate_involution_random(p):
    assert conjugate(conjugate(p)) == p
    n = sum(p)
    hooks = Counter(h for row in hook_lengths(p) for h in row)
    assert _mask_counts(p, n + 1) == [hooks[t] for t in range(1, n + 2)]


def test_census_examples():
    assert census(ClassId.R1, 4, 1).counts[4][0] == 3
    assert census(ClassId.R2, 4, 1).counts[4][0] == 2
    assert census(ClassId.G1, 5, 1).counts[5][0] == 3


def test_census_structure():
    c = census(ClassId.R1, 12, 3)
    assert c.cardinality[0] == 1
    assert c.counts[0] == [0, 0, 0]
    assert c.total_hooks == [n * c.cardinality[n] for n in range(13)]
    assert c.series(1) == [row[0] for row in c.counts]


def test_census_series_rejects_t_outside_its_columns():
    # t <= 0 must not read another column from the end, nor t > t_max fail
    # with a bare IndexError
    c = census(ClassId.R1, 10, 3)
    assert c.series(3) == [row[2] for row in c.counts]
    for t in (0, -1, 4):
        with pytest.raises(ValueError, match=r"1\.\.3"):
            c.series(t)


def test_census_total_symmetry():
    # equinumerous classes carry identical hook totals at every size
    r1 = census(ClassId.R1, 45, 1)
    r2 = census(ClassId.R2, 45, 1)
    g1 = census(ClassId.G1, 45, 1)
    g2 = census(ClassId.G2, 45, 1)
    assert r1.total_hooks == r2.total_hooks
    assert g1.total_hooks == g2.total_hooks
    assert r1.cardinality == r2.cardinality
    assert g1.cardinality == g2.cardinality


# (0, 3) packs nothing and (2, 5) has t > n; (1, 1) and (2, 5) have no
# width that updates layer 0, and (7, 2) runs a few widths that do
@pytest.mark.parametrize("n_max,t_max", [(40, 6), (20, 25), (0, 3), (1, 1), (2, 5), (7, 2)])
@pytest.mark.parametrize("cid", list(ClassId))
def test_engine_matches_enumeration(cid, n_max, t_max):
    engine = census(cid, n_max, t_max)
    oracle = enumerated_census(cid, n_max, t_max)
    assert engine.counts == oracle.counts
    assert engine.cardinality == oracle.cardinality
    assert engine.total_hooks == oracle.total_hooks


@pytest.mark.parametrize(
    "table,cid,rule",
    [
        ("GAP_RULES", ClassId.R1, (4, 4)),
        ("GAP_RULES", ClassId.G1, (1, 3)),
        ("RESIDUE_CLASSES", ClassId.R2, (frozenset({1, 3}), 4)),
    ],
)
def test_engine_counts_gaps_up_to_every_need(monkeypatch, table, cid, rule):
    # the scan counts gaps up to the largest need of the class's rule, so a
    # rule with needs the shipped classes do not have (4, or 1 below an even
    # part, or repeats of 3) is still counted exactly; enumeration is exact
    # for these rules (tests/test_classes.py)
    monkeypatch.setitem(getattr(classes, table), cid, rule)
    assert census(cid, 30, 8) == enumerated_census(cid, 30, 8)


# the t = 1, 2 hook series of each class
CLASS_SERIES = {
    ClassId.R1: lambda t, order: series_S(1, t, order),
    ClassId.R2: lambda t, order: series_S(2, t, order),
    ClassId.G1: lambda t, order: series_H(1, t, order),
    ClassId.G2: lambda t, order: series_H(2, t, order),
}


@given(st.sampled_from(list(ClassId)), st.integers(0, 30), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_engine_enumeration_and_series_agree(cid, n_max, t_max):
    engine = census(cid, n_max, t_max)
    assert engine == enumerated_census(cid, n_max, t_max)
    for t in (1, 2):
        if t <= t_max:
            assert engine.series(t) == CLASS_SERIES[cid](t, n_max).coeffs


def test_census_rows_picks_sizes_and_checks_its_inputs():
    rows = census_rows(ClassId.G2, [7, 3], 2, workers=2)
    full = census(ClassId.G2, 7, 2)
    assert rows == {n: (full.counts[n], full.total_hooks[n], full.cardinality[n]) for n in (3, 7)}
    assert census_rows(ClassId.G2, [], 2) == {}
    for bad in (
        dict(ns=[3], t_max=0),
        dict(ns=[-1, 3], t_max=2),
        dict(ns=[CENSUS_CEILING + 1], t_max=2),
        dict(ns=[3], t_max=CENSUS_CEILING + 1),
        dict(ns=[3], t_max=2, workers=0),
    ):
        with pytest.raises(ValueError):
            census_rows(ClassId.R1, **bad)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


# sha256 of json.dumps([counts, cardinality, total_hooks]) of census(cid, 200, 8),
# first 16 hex digits, recorded from the dict-keyed scan this one replaced
CEILING_DIGESTS = {
    ClassId.R1: "5898e64d56af21a4",
    ClassId.R2: "6906aa9348e04b26",
    ClassId.G1: "868a2749953d8710",
    ClassId.G2: "44fdc70b6df18ed5",
}


@pytest.mark.parametrize("cid", list(ClassId))
def test_engine_oracles_at_the_ceiling(cid):
    n_max = CENSUS_CEILING
    c = census(cid, n_max, 8)
    for t in (1, 2):
        assert c.series(t) == CLASS_SERIES[cid](t, n_max).coeffs
    assert c.cardinality == counting_series(cid, n_max).coeffs
    assert c.total_hooks == [n * c.cardinality[n] for n in range(n_max + 1)]
    assert _digest([c.counts, c.cardinality, c.total_hooks]) == CEILING_DIGESTS[cid]


def test_engine_at_t_equal_to_the_ceiling():
    c = census(ClassId.R1, CENSUS_CEILING, CENSUS_CEILING)
    assert _digest(c.counts) == "6d74ea914c516687"


def _partition_counts(n_max):
    """p(0..n_max), the number of all partitions, by Euler's pentagonal
    recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for a in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if a <= n:
                    total += sign * p[n - a]
            k += 1
        p.append(total)
    return p


def test_scan_with_every_part_allowed_at_the_ceiling():
    # over all partitions of n the t-hooks number t * sum_k p(n - k t); this
    # rule has the largest digits of any, so the width is tested where it
    # is tightest
    n_max = CENSUS_CEILING
    p = _partition_counts(n_max)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[200] == 3972999029388
    rows = _boundary_census(lambda v: 0, n_max, n_max)
    assert [row[0] for row in rows] == p
    for n, row in enumerate(rows):
        assert row[1:] == [t * sum(p[n - k * t] for k in range(1, n // t + 1)) for t in range(1, n_max + 1)], n


def test_digit_width_holds_every_digit():
    # every digit of the scan is below 2 (n + 1) p(n) (the _boundary_census
    # docstring), with room to spare; a multiple of 8 for int.to_bytes
    p = _partition_counts(CENSUS_CEILING)
    for n in range(CENSUS_CEILING + 1):
        width = _size_digit_width(n)
        assert width > (2 * (n + 1) * p[n]).bit_length() and width % 8 == 0, n
