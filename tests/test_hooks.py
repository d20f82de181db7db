"""Young-diagram geometry: conjugation, hook lengths, shortcut statistics,
and the class censuses."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab.classes import ClassId, all_partitions, iter_class
from hooklab.hooks import (
    CENSUS_CEILING,
    _bin_hooks,
    census,
    census_rows,
    conjugate,
    enumerated_census,
    hook_lengths,
    shortcut_stats,
    t_hook_count,
)
from hooklab.qseries import series_H, series_S

FIG_PARTITION = (7, 4, 2, 2, 1)

partitions = st.lists(st.integers(1, 12), min_size=0, max_size=12).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_conjugate_examples():
    assert conjugate(FIG_PARTITION) == (5, 4, 2, 2, 1, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((3,)) == (1, 1, 1)


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


def test_bin_kernel_matches_hook_table():
    for n in range(0, 19):
        for p in all_partitions(n):
            hooks = Counter(h for row in hook_lengths(p) for h in row)
            bins = [0] * 6
            _bin_hooks(p, 6, bins)
            assert bins == [hooks[t] for t in range(1, 7)]


@given(partitions)
@settings(max_examples=300, deadline=None)
def test_conjugate_involution_random(p):
    assert conjugate(conjugate(p)) == p
    bins = [0] * 4
    _bin_hooks(p, 4, bins)
    hooks = Counter(h for row in hook_lengths(p) for h in row)
    assert bins == [hooks[t] for t in range(1, 5)]


def test_census_examples():
    assert census(ClassId.R1, 4, 1).count(4, 1) == 3
    assert census(ClassId.R2, 4, 1).count(4, 1) == 2
    assert census(ClassId.G1, 5, 1).count(5, 1) == 3


def test_census_structure():
    c = census(ClassId.R1, 12, 3)
    assert c.cardinality[0] == 1
    assert c.counts[0] == [0, 0, 0]
    assert c.total_hooks == [n * c.cardinality[n] for n in range(13)]
    assert c.series(1) == [row[0] for row in c.counts]
    with pytest.raises(IndexError):
        c.count(13, 1)
    with pytest.raises(IndexError):
        c.count(5, 4)


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


@pytest.mark.parametrize("n_max,t_max", [(40, 6), (20, 25)])  # the second has t > n
@pytest.mark.parametrize("cid", list(ClassId))
def test_engine_matches_enumeration(cid, n_max, t_max):
    engine = census(cid, n_max, t_max)
    oracle = enumerated_census(cid, n_max, t_max)
    assert engine.counts == oracle.counts
    assert engine.cardinality == oracle.cardinality
    assert engine.total_hooks == oracle.total_hooks


# the t = 1, 2 hook series of each class
CLASS_SERIES = {
    ClassId.R1: lambda t, order: series_S(1, t, order),
    ClassId.R2: lambda t, order: series_S(2, t, order),
    ClassId.G1: lambda t, order: series_H(1, t, order),
    ClassId.G2: lambda t, order: series_H(2, t, order),
}


@given(st.sampled_from(list(ClassId)), st.integers(0, 30), st.integers(1, 10))
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
