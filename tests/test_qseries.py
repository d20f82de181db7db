"""Exact series engine: in-place primitives, products, the eight hook
generating functions against brute-force censuses, bivariate refinements,
identities."""

import pytest

from hooklab import qseries
from hooklab.classes import ClassId, iter_class
from hooklab.hooks import census, t_hook_count
from hooklab.qseries import (
    NegativeExponentError,
    OrderMismatchError,
    TruncatedSeries,
    apply_rational,
    bivariate_G,
    bivariate_R,
    counting_series,
    identity_check_sum_product,
    inv_pochhammer_product,
    series_H,
    series_S,
)


# --------------------------------------------------------------------------
# in-place primitives
# --------------------------------------------------------------------------


def test_strict_order_policy():
    a = TruncatedSeries.one(4)
    b = TruncatedSeries.one(5)
    with pytest.raises(OrderMismatchError):
        a.iadd_scaled(b)
    with pytest.raises(OrderMismatchError):
        b.iadd_scaled(a)
    assert a == TruncatedSeries.one(4) and b == TruncatedSeries.one(5)


def test_series_constructors():
    with pytest.raises(ValueError):
        TruncatedSeries(3, [1, 2])
    with pytest.raises(ValueError):
        TruncatedSeries.from_terms(3, {5: 1})
    assert TruncatedSeries.from_terms(3, {5: 1}, clip=True).is_zero()
    with pytest.raises(NegativeExponentError):
        TruncatedSeries.from_terms(3, {-1: 1})
    s = TruncatedSeries.from_terms(4, {1: 3, 2: -1})
    assert s[1] == 3 and s[2] == -1
    with pytest.raises(IndexError):
        s[5]


def test_scale_and_shift():
    s = TruncatedSeries(3, [1, 2, 0, 4])
    assert TruncatedSeries.zero(3).iadd_scaled(s, -2).coeffs == [-2, -4, 0, -8]
    assert s.shifted(2).coeffs == [0, 0, 1, 2]
    assert s.shifted(0) == s
    # a shift past the order leaves nothing, and never lengthens the list
    assert s.shifted(4) == TruncatedSeries.zero(3)
    assert TruncatedSeries(3, [1, 2, 3, 4]).shifted(6) == TruncatedSeries.zero(3)


# --------------------------------------------------------------------------
# products and rational factors
# --------------------------------------------------------------------------


def _restricted_partition_counts(values, order):
    # independent coin-change DP oracle
    c = [0] * (order + 1)
    c[0] = 1
    for v in values:
        for k in range(v, order + 1):
            c[k] += c[k - v]
    return c


@pytest.mark.parametrize(
    "residues,modulus",
    [({1, 4}, 5), ({2, 3}, 5), ({1, 5, 6}, 8), ({1}, 1), ({1, 2}, 4)],
)
def test_inv_pochhammer_vs_dp(residues, modulus):
    order = 80
    series = inv_pochhammer_product(residues, modulus, order)
    keys = {r % modulus for r in residues}
    values = [v for v in range(1, order + 1) if v % modulus in keys]
    assert series.coeffs == _restricted_partition_counts(values, order)


def test_inv_pochhammer_examples():
    assert inv_pochhammer_product({1, 4}, 5, 5).coeffs == [1, 1, 1, 1, 2, 2]
    assert inv_pochhammer_product({1, 5, 6}, 8, 4).coeffs == [1, 1, 1, 1, 1]
    assert inv_pochhammer_product({2, 3}, 5, 0).coeffs == [1]
    with pytest.raises(ValueError):
        inv_pochhammer_product(set(), 5, 10)
    with pytest.raises(ValueError):
        inv_pochhammer_product({0, 6}, 5, 10)


def test_rational_factor():
    # apply_rational to 1 expands (sum sign q^exp) / (1 - q^period)
    rf = apply_rational(TruncatedSeries.one(9), [(1, 1), (4, 1)], 5)
    assert [n for n, c in enumerate(rf.coeffs) if c] == [1, 4, 6, 9]
    assert all(c in (0, 1) for c in rf.coeffs)
    rf2 = apply_rational(TruncatedSeries.one(12), [(2, 1), (10, 1), (11, -1), (12, 1)], 16)
    assert rf2.coeffs[2] == rf2.coeffs[10] == rf2.coeffs[12] == 1
    assert rf2.coeffs[11] == -1
    assert apply_rational(TruncatedSeries.one(6), [], 7).is_zero()
    # on a general series: (1 + q)(q + q^4)/(1 - q^5) to q^9
    s = TruncatedSeries(9, [1, 1] + [0] * 8)
    assert apply_rational(s, [(1, 1), (4, 1)], 5).coeffs == [0, 1, 1, 0, 1, 1, 1, 1, 0, 1]
    with pytest.raises(ValueError):
        apply_rational(s, [(-1, 1)], 5)


# --------------------------------------------------------------------------
# the eight series vs the hook censuses (oracle equivalence)
# --------------------------------------------------------------------------

SMALL_SERIES = {
    # frozen from the brute-force hook census
    ("S", 1, 1): [0, 1, 1, 1, 3, 3, 5],
    ("S", 2, 1): [0, 1, 1, 1, 2, 3],
    ("S", 1, 2): [0, 0, 1, 1, 2],
    ("S", 2, 2): [0, 0, 1, 1, 2, 2],
    ("H", 1, 1): [0, 1, 1, 1, 1, 3],
    ("H", 1, 2): [0, 0, 1, 1, 1, 2, 4],
    ("H", 2, 1): [0, 1, 1, 1, 1, 2, 4],
    ("H", 2, 2): [0, 0, 1, 1, 1, 2, 3],
}


@pytest.mark.parametrize("family,j,t", sorted(SMALL_SERIES))
def test_series_small_values(family, j, t):
    build = series_S if family == "S" else series_H
    frozen = SMALL_SERIES[(family, j, t)]
    assert build(j, t, len(frozen) - 1).coeffs == frozen
    # regenerate the oracle: total t-hooks over the class members of each size
    cid = {("S", 1): ClassId.R1, ("S", 2): ClassId.R2,
           ("H", 1): ClassId.G1, ("H", 2): ClassId.G2}[(family, j)]
    oracle = [
        sum(t_hook_count(p, t) for p in iter_class(cid, n)) for n in range(len(frozen))
    ]
    assert oracle == frozen


@pytest.mark.parametrize(
    "family,j,t,class_id",
    [
        ("S", 1, 1, ClassId.R1), ("S", 1, 2, ClassId.R1),
        ("S", 2, 1, ClassId.R2), ("S", 2, 2, ClassId.R2),
        ("H", 1, 1, ClassId.G1), ("H", 1, 2, ClassId.G1),
        ("H", 2, 1, ClassId.G2), ("H", 2, 2, ClassId.G2),
    ],
)
def test_series_match_census_to_40(family, j, t, class_id):
    build = series_S if family == "S" else series_H
    series = build(j, t, 40)
    table = census(class_id, 40, 2, workers=1)
    assert series.coeffs == table.series(t)


def test_series_rejects_unknown_indices():
    with pytest.raises(ValueError):
        series_S(3, 1, 10)
    with pytest.raises(ValueError):
        series_H(1, 3, 10)


def test_s12_cross_form():
    # S(1,2) == S(1,1) - 1/(q,q^4;q^5)_inf + 1/(q^2,q^3;q^5)_inf
    order = 500
    lhs = series_S(1, 2, order)
    rhs = series_S(1, 1, order)
    rhs.iadd_scaled(inv_pochhammer_product({1, 4}, 5, order), -1)
    rhs.iadd_scaled(inv_pochhammer_product({2, 3}, 5, order))
    assert lhs == rhs


@pytest.mark.parametrize(
    "family,j,t",
    [("S", 1, 1), ("S", 1, 2), ("S", 2, 1), ("S", 2, 2),
     ("H", 1, 1), ("H", 1, 2), ("H", 2, 1), ("H", 2, 2)],
)
def test_coefficients_weakly_increasing_to_500(family, j, t):
    # (1 - q) times each series has non-negative coefficients
    build = series_S if family == "S" else series_H
    s = build(j, t, 500)
    assert all(s[n] >= s[n - 1] for n in range(1, 501))
    assert all(c >= 0 for c in s.coeffs)


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty series memo for the test, the process's own restored after."""
    monkeypatch.setattr(qseries, "_MEMO", {})


@pytest.mark.parametrize("family,j,t", sorted(SMALL_SERIES))
def test_truncation_stability(family, j, t, empty_memo):
    # with an empty memo both orders are built, not served from one build
    build = series_S if family == "S" else series_H
    low, high = build(j, t, 30), build(j, t, 75)
    assert low.coeffs == high.coeffs[:31]


# --------------------------------------------------------------------------
# the per-process memo
# --------------------------------------------------------------------------

MEMO_KEYS = {("S", j, t) for j in (1, 2) for t in (1, 2)} | {
    ("H", j, t) for j in (1, 2) for t in (1, 2)} | {((1, 4), 5), ((1, 5, 6), 8)}

MEMOIZED = [
    *((f"S{j}{t}", lambda n, j=j, t=t: series_S(j, t, n)) for j in (1, 2) for t in (1, 2)),
    *((f"H{j}{t}", lambda n, j=j, t=t: series_H(j, t, n)) for j in (1, 2) for t in (1, 2)),
    ("count-r", lambda n: counting_series(ClassId.R1, n)),
    ("count-g", lambda n: counting_series(ClassId.G2, n)),
]


def _unmemoized(build, order):
    # a build into a memo of its own, so nothing is served from an earlier one
    saved = qseries._MEMO
    qseries._MEMO = {}
    try:
        return build(order)
    finally:
        qseries._MEMO = saved


def test_memo_serves_lower_orders_by_truncation(empty_memo):
    for _, build in MEMOIZED:
        build(2000)
    assert set(qseries._MEMO) == MEMO_KEYS
    assert all(s.order == 2000 for s in qseries._MEMO.values())
    for name, build in MEMOIZED:
        for order in (0, 1, 57, 400):
            assert build(order) == _unmemoized(build, order), (name, order)
    assert all(s.order == 2000 for s in qseries._MEMO.values())


def test_memo_rebuilds_at_a_higher_order(empty_memo):
    for name, build in MEMOIZED:
        assert build(40).order == 40
        assert build(300) == _unmemoized(build, 300), name
        assert build(120) == _unmemoized(build, 120), name
    assert counting_series(ClassId.G1, 300) == inv_pochhammer_product({1, 5, 6}, 8, 300)
    assert all(s.order == 300 for s in qseries._MEMO.values())


def test_memo_returns_copies(empty_memo):
    from hooklab.cli import verify_report

    for name, build in MEMOIZED:
        first = build(60)
        first.coeffs[7] += 1
        first.coeffs.append(0)
        assert build(60) == _unmemoized(build, 60), name
        assert build(60) is not build(60)
    # verify's planted fault mutates the series it was handed, not the memo
    assert not all(r.ok for r in verify_report(16, _corrupt=("S21", 5, 1)))
    assert all(r.ok for r in verify_report(16))


def test_memo_key_bound(empty_memo):
    for order in (0, 3, 80, 10, 150):
        for _, build in MEMOIZED:
            build(order)
        for cid in ClassId:
            counting_series(cid, order)
        identity_check_sum_product("RR1", order)
        identity_check_sum_product("LG1", order)
        with pytest.raises(ValueError):
            series_S(3, 1, order)
        assert set(qseries._MEMO) <= MEMO_KEYS
    assert len(qseries._MEMO) == 10


def test_identity_checks():
    for which in ("RR1", "LG1"):
        chk = identity_check_sum_product(which, 200)
        assert chk.ok and chk.first_mismatch is None
        assert "agree" in str(chk)
    assert identity_check_sum_product("RR1", 0).ok
    assert identity_check_sum_product("LG1", 0).ok
    with pytest.raises(ValueError):
        identity_check_sum_product("RR2", 10)


def test_identity_report_on_mismatch():
    chk = identity_check_sum_product("RR1", 40)
    bad = type(chk)(chk.which, chk.order, False, 7, 5, 6)
    msg = str(bad)
    assert "q^7" in msg and "5" in msg and "6" in msg


# --------------------------------------------------------------------------
# bivariate refinements
# --------------------------------------------------------------------------

BIVARIATE_BUILDERS = [
    (bivariate_R, 1, 1, ClassId.R1), (bivariate_R, 1, 2, ClassId.R1),
    (bivariate_R, 2, 1, ClassId.R2), (bivariate_R, 2, 2, ClassId.R2),
    (bivariate_G, 1, 1, ClassId.G1), (bivariate_G, 1, 2, ClassId.G1),
    (bivariate_G, 2, 1, ClassId.G2), (bivariate_G, 2, 2, ClassId.G2),
]


@pytest.mark.parametrize("build,j,t,class_id", BIVARIATE_BUILDERS)
def test_bivariate_table_vs_enumeration(build, j, t, class_id):
    # full (n, k) table == distribution of the t-hook statistic over members;
    # the table ends at its top nonzero column, so a statistic value above
    # order_x means a column was lost
    bound = 16
    dists = []
    for n in range(bound + 1):
        dist = {}
        for p in iter_class(class_id, n):
            k = t_hook_count(p, t)
            dist[k] = dist.get(k, 0) + 1
        dists.append(dist)
    for order in (0, 1, 2, bound):
        table = build(j, t, order)
        for n in range(order + 1):
            assert max(dists[n]) <= table.order_x, (order, n)
            for k in range(table.order_x + 1):
                assert table.coefficient(n, k) == dists[n].get(k, 0), (order, n, k)


@pytest.mark.parametrize("build,j,t,class_id", BIVARIATE_BUILDERS)
def test_bivariate_marginal_and_derivative(build, j, t, class_id):
    for order in (40, 150):
        table = build(j, t, order)
        assert table.at_x_one() == counting_series(class_id, order)
        expected = (series_S if build is bivariate_R else series_H)(j, t, order)
        assert table.x_derivative_at_one() == expected
        assert all(c >= 0 for col in table.cols for c in col.coeffs)


def test_bivariate_examples():
    table = bivariate_R(1, 1, 10)
    assert table.coefficient(4, 1) == 1   # (4)
    assert table.coefficient(4, 2) == 1   # (3, 1)
    assert table.coefficient(4, 0) == 0
    gtable = bivariate_G(1, 1, 10)
    assert gtable.coefficient(4, 1) == 1  # only (4)
    assert sum(gtable.coefficient(4, k) for k in range(gtable.order_x + 1)) == 1


def test_bivariate_rejects_unknown_indices():
    with pytest.raises(ValueError):
        bivariate_R(0, 1, 5)
    with pytest.raises(ValueError):
        bivariate_G(2, 3, 5)
