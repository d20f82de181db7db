"""Exact series engine: in-place primitives, products, the eight hook
generating functions against brute-force censuses, bivariate refinements,
identities."""

import hashlib
import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab import classes, qseries
from hooklab.classes import ClassId, count, iter_class
from hooklab.hooks import census, t_hook_count
from hooklab.qseries import (
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
    s = TruncatedSeries(4, [0, 3, -1, 0, 0])
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


# The slice kernels against the per-coefficient loops they replaced.


def _coeffs(seed: int, size: int) -> list:
    """Coefficients mixing small values with ones beyond 64 bits of either
    sign; drawn from a seeded generator, since hypothesis draws hundreds of
    list elements slowly."""
    rng = random.Random(seed)
    return [
        rng.choice((rng.randint(-3, 3), rng.randint(2**64, 2**70), -rng.randint(2**64, 2**70)))
        for _ in range(size)
    ]


@st.composite
def _series_and_exponent(draw):
    """A series of order 0..300 and an exponent in 1..order+2, drawn from
    either side of sqrt(order + 1), where imul_geometric changes method."""
    order = draw(st.integers(0, 300))
    root = isqrt(order + 1)
    exp = draw(st.one_of(st.integers(1, root), st.integers(root + 1, order + 2)))
    return TruncatedSeries(order, _coeffs(draw(st.integers(0, 2**32)), order + 1)), exp


@given(_series_and_exponent())
@settings(max_examples=200, deadline=None)
def test_imul_geometric_matches_the_loop(case):
    s, period = case
    c = list(s.coeffs)
    for k in range(period, s.order + 1):
        c[k] += c[k - period]
    assert s.imul_geometric(period).coeffs == c


@given(_series_and_exponent())
@settings(max_examples=200, deadline=None)
def test_imul_one_plus_matches_the_loop(case):
    s, exp = case
    c = list(s.coeffs)
    for k in range(s.order, exp - 1, -1):
        c[k] += c[k - exp]
    assert s.imul_one_plus(exp).coeffs == c


@given(
    _series_and_exponent(),
    st.integers(0, 2**32),
    st.lists(st.tuples(st.integers(0, 302), st.sampled_from([1, -1, -2])), max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_mul_sparse_matches_the_loop(case, seed, terms):
    src, _ = case
    terms = [(min(e, src.order + 2), sign) for e, sign in terms]
    out = TruncatedSeries(src.order, _coeffs(seed, src.order + 1))
    c = list(out.coeffs)
    for exp, sign in terms:
        for k in range(exp, src.order + 1):
            c[k] += sign * src.coeffs[k - exp]
    assert qseries._mul_sparse(src, terms, out) is out
    assert out.coeffs == c


@given(_series_and_exponent(), st.integers(0, 2**32), st.sampled_from([0, 1, -1, 7]))
@settings(max_examples=200, deadline=None)
def test_iadd_scaled_matches_the_loop(case, seed, k):
    s, _ = case
    other = TruncatedSeries(s.order, _coeffs(seed, s.order + 1))
    expected = [a + k * b for a, b in zip(s.coeffs, other.coeffs)]
    assert s.copy().iadd_scaled(other, k).coeffs == expected
    # adding a series to itself reads every old coefficient before writing
    assert s.copy().iadd_scaled(s, k).coeffs == [(1 + k) * a for a in s.coeffs]


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


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty series memo for the test, the process's own restored after."""
    monkeypatch.setattr(qseries, "_MEMO", {})


@pytest.mark.parametrize(
    "family,j,t,class_id",
    [
        ("S", 1, 1, ClassId.R1), ("S", 1, 2, ClassId.R1),
        ("S", 2, 1, ClassId.R2), ("S", 2, 2, ClassId.R2),
        ("H", 1, 1, ClassId.G1), ("H", 1, 2, ClassId.G1),
        ("H", 2, 1, ClassId.G2), ("H", 2, 2, ClassId.G2),
    ],
)
def test_series_match_census_to_40(family, j, t, class_id, empty_memo):
    # each order of 0..12 is above the last, so each is a fresh build: every
    # sum side's stream must end at the right term even at the tiniest orders
    build = series_S if family == "S" else series_H
    table = census(class_id, 40, 2)
    for order in range(13):
        assert build(j, t, order).coeffs == table.series(t)[: order + 1], order
    assert build(j, t, 40).coeffs == table.series(t)


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


# sha256 of the comma-joined decimal coefficients at order 5000, recorded
# from the per-coefficient loop engine that built the class products as
# products, before the slice kernels and the Nahm-sum counting series
DIGESTS_5000 = {
    "S11": "205bfe8958bf99082875c8b274f7f53fc2c23ecd7560aaa46b4e699e963799b2",
    "S12": "87846c57b654887d83791683350e5267108ec53a90b02c2f4968516db0d822c9",
    "S21": "60fdfc51392d7ca376b19b16d9316b5277aa2974352287eaf13689d3dbe70232",
    "S22": "d81e57f875a8d8af2d084ca0821eb2c24d90112cc1c33c3af0ea949a1f1ba6af",
    "H11": "151a3ded30cc5620329ec01ac14cf90934482564bfabb1c5971b21c5d521b38b",
    "H12": "9504cbd28ca2ddedc8bfe4b33f8a0984f2d45bcb635142ad2ac5f695b35e9b72",
    "H21": "4999051095d75d5b619f7a913c2c5dd3144df3e00397a639099a2515e6b974a7",
    "H22": "d5a9a851da0857ef8539f44919143801863c618a7b1ddb67101bab416e1b26f3",
    "count-r": "6826d4add3586de19170e9dd835ebf4e0b1add690648b304661fe1ee5acfbfd7",
    "count-g": "fed18c52b47297551429ecec24658e4721564e95b29b433ed0a49b9a1001cdd5",
}


def test_series_digests_at_5000(empty_memo):
    for name, build in MEMOIZED:
        coeffs = build(5000).coeffs
        digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
        assert digest == DIGESTS_5000[name], name
    # the Nahm sums against the product side, past the identity checks' 500
    assert counting_series(ClassId.R1, 1000) == inv_pochhammer_product({1, 4}, 5, 1000)
    assert counting_series(ClassId.G2, 1000) == inv_pochhammer_product({1, 5, 6}, 8, 1000)


def test_identity_checks():
    for which in ("RR1", "LG1"):
        chk = identity_check_sum_product(which, 200)
        assert chk.ok and chk.first_mismatch is None
        assert "agree" in str(chk)
    assert identity_check_sum_product("RR1", 0).ok
    assert identity_check_sum_product("LG1", 0).ok
    with pytest.raises(ValueError):
        identity_check_sum_product("RR2", 10)


def _raised_at_7(series):
    series.coeffs[7] += 1
    return series


def test_identity_report_on_mismatch(monkeypatch):
    # each side corrupted in turn at q^7 must be seen, so the check cannot
    # be comparing one computation (say counting_series) with itself
    products = {"RR1": ((1, 4), 5), "LG1": ((1, 5, 6), 8)}
    streams = {"RR1": "rr", "LG1": "lg"}
    true = {w: inv_pochhammer_product(*products[w], 40)[7] for w in products}
    assert true == {"RR1": 3, "LG1": 3}
    real_product = qseries.inv_pochhammer_product
    for which in ("RR1", "LG1"):
        with monkeypatch.context() as m:
            m.setattr(qseries, "inv_pochhammer_product",
                      lambda *args: _raised_at_7(real_product(*args)))
            chk = identity_check_sum_product(which, 40)
        assert not chk.ok
        assert (chk.first_mismatch, chk.sum_value, chk.product_value) == (
            7, true[which], true[which] + 1)
        msg = str(chk)
        assert "q^7" in msg and f"sum side {true[which]}" in msg
        assert f"product side {true[which] + 1}" in msg

        real_terms = qseries._nahm_terms

        def corrupted(stream, order, planted=streams[which]):
            for n, term in real_terms(stream, order):
                yield n, _raised_at_7(term) if (stream, n) == (planted, 0) else term

        with monkeypatch.context() as m:
            m.setattr(qseries, "_nahm_terms", corrupted)
            chk = identity_check_sum_product(which, 40)
        assert not chk.ok
        assert (chk.first_mismatch, chk.sum_value, chk.product_value) == (
            7, true[which] + 1, true[which])
    assert identity_check_sum_product("RR1", 40).ok
    assert identity_check_sum_product("LG1", 40).ok


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


@pytest.mark.parametrize(
    "build,class_id,which,patched",
    [
        (bivariate_R, ClassId.R2, "RR1", (frozenset({1, 2}), 5)),
        (bivariate_G, ClassId.G2, "LG1", (frozenset({1, 3, 4}), 8)),
    ],
)
def test_product_sides_read_the_class_table(monkeypatch, build, class_id, which, patched):
    # a congruence class is defined once, in classes.RESIDUE_CLASSES: the
    # product-side tables and the identity check follow a change there,
    # while the sum side (a Nahm sum) does not, so the identity fails
    monkeypatch.setitem(classes.RESIDUE_CLASSES, class_id, patched)
    order = 20
    members = [count(class_id, n) for n in range(order + 1)]
    assert members != counting_series(class_id, order).coeffs
    for t in (1, 2):
        assert build(2, t, order).at_x_one().coeffs == members, t
    assert not identity_check_sum_product(which, order).ok
