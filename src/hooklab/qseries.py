"""Exact truncated power series for the class generating functions.

Everything here is integer-exact.  The engine computes on plain lists of
Python ints, a list c standing for sum(c_n q^n) + O(q^len(c)), and wraps a
result in a :class:`TruncatedSeries` only where a public builder returns
it.  It is division-free -- dividing by (1 - q^p) is realized as
multiplication by the truncated geometric series of period p, an O(N) pass,
:func:`_running_sums`.  Each list kernel works on whole list slices
(``map``/``accumulate`` over them), so its per-coefficient loop runs in C,
not in Python bytecode, and lists are added by :func:`_add` alone, which
refuses lists of unequal length rather than drop the tail of the longer.

The eight univariate series:

* ``series_S(1, 1)``  sum of n q^(n^2) / (q;q)_n                (1-hooks, gap-2 class)
* ``series_S(2, 1)``  [1/(q,q^4;q^5)_inf] (q+q^4)/(1-q^5)       (1-hooks, mod-5 class)
* ``series_S(1, 2)``  sum n q^(n^2)/(q;q)_n - sum q^(n^2)/(q;q)_(n-1)
* ``series_S(2, 2)``  [1/(q,q^4;q^5)_inf] ((q^4+q^6)/(1-q^5) + (q^2+q^8)/(1-q^10))
* ``series_H(1, 1)``  sum n q^(n^2+n) (-1/q;q^2)_n / (q^2;q^2)_n
* ``series_H(2, 1)``  [1/(q,q^5,q^6;q^8)_inf] (q+q^5+q^6)/(1-q^8)
* ``series_H(1, 2)``  sum n q^(n^2+n) (-q;q^2)_(n+1) / (q^2;q^2)_n
* ``series_H(2, 2)``  [1/(q,q^5,q^6;q^8)_inf]
                      ((q^5+q^6+q^9)/(1-q^8) + (q^2+q^10-q^11+q^12)/(1-q^16))

Every construction is written with one format, the rational factor
(numerator, periods): N/prod(1 - q^d) over d in periods, with N given by
its (e, c) monomials c q^e, e >= 0.  One kernel, :func:`_apply`, takes a
coefficient list times a factor.  Two tables define the eight series.
``_STREAMS`` holds each Nahm-sum term stream as a term 0 and a rational
factor F_n, term n = term (n-1) F_n.  ``_HOOK_SERIES`` holds each series,
by its name S11 ... H22, with its class and t: a gap class's as a sum side,
a weighted sum over streams, a congruence class's as a product side, a
class counting series times a sum of rational factors.

:func:`_nahm_sum` evaluates weighted sums over a stream by Horner's rule,
from the last term that reaches the order inward, each level one
:func:`_apply` of a stream's factor to the level inside it, kept only on
the window that can still reach q^order: the sum costs about as much as
the terms' nonzero windows, not (number of terms) x (order).  One packed
pass over each identity's stream, :func:`_identity_pass`, makes its class
count and its gap class's t = 1 and t = 2 series, three fields of each
coefficient; the relations of ``_SHIFTED`` move the t = 2 sum sides onto
that stream as q-polynomial weights.

One builder, :func:`_build_bivariate`, makes the eight bivariate
refinements sum_lambda x^(statistic) q^|lambda|, each taken at x = 2^b as
one series whose b-bit digits are the table's columns (Kronecker
substitution) and read back by one unpacking.  A gap-class table is the
Horner sum of x^n times term n over its streams.  A congruence-class table
is a product of one factor per part value that ``classes.RESIDUE_CLASSES``
allows, as is the product side of :func:`identity_check_sum_product`, so
each congruence class is defined there alone.  Both classes of a pair take
the digit width b from the pair's counting series.

``_IDENTITIES`` states each identity once: the term stream of its sum side,
its gap class and its congruence class.  :func:`counting_series` is that
sum side, the count of both classes; the product side,
:func:`inv_pochhammer_product`, built largest part first, is its oracle,
and only :func:`identity_check_sum_product` builds it, against a fresh
count-only pass of its own over the identity's stream.

The memo holds six fixed keys whatever the input: RR1 and LG1, each with
the (count, t = 1, t = 2) lists of its pass, and the four congruence-class
series S21, S22, H21 and H22, so ten coefficient lists at most.  Each key
holds the lists built at the highest order requested so far: a lower order
is served by truncation, a higher one rebuilds the entry.  Every call
returns a fresh :class:`TruncatedSeries` cut from it, which the caller may
mutate without touching the memo.  :func:`inv_pochhammer_product`, the
bivariate builders and :func:`identity_check_sum_product` are not memoized.
Every builder, and the memo, refuses an order above :data:`SERIES_CEILING`
with ValueError before it allocates, so no entry is ever larger.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain, count, repeat
from math import isqrt
from operator import add, mul

from .classes import RESIDUE_CLASSES, ClassId, _partition_bits


SERIES_CEILING = 5000  # largest order any builder here will make


def _check_order(order: int) -> None:
    """Refuse a negative order, or one above :data:`SERIES_CEILING`, before
    anything of that size is allocated or memoized."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > SERIES_CEILING:
        raise ValueError(f"order must be <= {SERIES_CEILING}; got {order}")


# --------------------------------------------------------------------------
# univariate series
# --------------------------------------------------------------------------


class TruncatedSeries:
    """Power series mod q^(order+1) with exact integer coefficients: what a
    public builder returns, wrapped around the engine's coefficient list."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: list):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError("coeffs must have exactly order+1 entries")
        self.order, self.coeffs = order, list(coeffs)

    def truncated(self, order: int) -> "TruncatedSeries":
        """New series holding this one's coefficients up to q^order."""
        if order > self.order:
            raise ValueError(f"order {order} exceeds truncation order {self.order}")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[: min(8, self.order + 1)])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def _add(*lists) -> list:
    """The coefficientwise sum of ``lists``, which must all have one length:
    ``zip(strict=True)`` raises ValueError rather than drop the tail of the
    longer."""
    return list(map(sum, zip(*lists, strict=True)))


def _running_sums(c: list, period: int, start: int = 0) -> None:
    """c[k] += c[k - period] for k ascending from ``start + period``, in
    place.  With start = 0 it multiplies the coefficient list ``c`` by
    1/(1 - q^period), period >= 1; a caller that knows the first strides
    to add nothing but what it has already added starts later.

    The recurrence is a running sum along each residue class mod ``period``.
    A short period takes those sums slice by slice; a long one walks blocks
    of length ``period``, each adding the block before it, which is already
    updated.  The census scan in ``hooks`` does not use it: its components
    are packed ints, summed by doubling."""
    size = len(c)
    if period * period <= size:
        for r in range(start, start + period):
            c[r::period] = accumulate(c[r::period])
    else:
        for lo in range(start + period, size, period):
            c[lo : lo + period] = map(add, c[lo : lo + period], c[lo - period : lo])


def _apply(src: list, factor, size: int | None = None) -> list:
    """New coefficient list: ``src`` times the rational factor (numerator,
    periods), N/prod(1 - q^d) over d in periods, with N the sum of c q^e over
    the (e, c) monomials of numerator, e >= 0, d >= 1.  The result is kept to
    ``size`` coefficients (default len(src)), which may exceed len(src) by
    N's lowest exponent."""
    numerator, periods = factor
    if any(e < 0 for e, _ in numerator):
        raise ValueError("numerator exponents must be >= 0")
    if any(d < 1 for d in periods):
        raise ValueError("periods must be >= 1")
    dst, fresh = [0] * (len(src) if size is None else size), True
    for e, c in numerator:
        n = min(len(src), len(dst) - e)  # src[:n] lands on dst[e : e + n]
        if n <= 0:
            continue
        if fresh:
            # the first monomial in the window is copied into the zeros; an
            # add pass here doubles the cost of a Nahm sum's Horner levels
            part = src if n == len(src) else src[:n]
            dst[e : e + n] = part if c == 1 else map(mul, part, repeat(c))
            fresh = False
        else:  # map stops at the end of dst[e : e + n]
            dst[e : e + n] = map(add, dst[e : e + n], src if c == 1 else map(mul, src, repeat(c)))
    for d in periods:
        _running_sums(dst, d)
    return dst


def inv_pochhammer_product(residues, modulus: int, order: int) -> TruncatedSeries:
    """Expansion of 1 / prod_{n >= 1, n = r (mod m) for some r} (1 - q^n).

    Only factors with exponent <= order contribute; this is the partition
    counting series for parts restricted to the given residue classes.
    """
    _check_order(order)
    residues = set(residues)
    if not residues:
        raise ValueError("residues must be nonempty")
    if any(not 1 <= r <= modulus for r in residues):
        raise ValueError(f"residues must lie in [1, {modulus}]")
    keys = {r % modulus for r in residues}
    # parts above order/2 occur at most once and never two together, so
    # their factors are together 1 + sum q^e; the rest go largest first
    half = order // 2
    out = [1] + [0] * half + [int(e % modulus in keys) for e in range(half + 1, order + 1)]
    for e in range(half, 0, -1):
        if e % modulus in keys:
            # the parts above e leave out[1..e] zero, so the first stride of
            # 1/(1 - q^e) only adds out[0] = 1 to out[e]; the sums go on from 2e
            out[e] += 1
            _running_sums(out, e, e)
    return TruncatedSeries(order, out)


# key -> the coefficient lists built at the highest order requested so far:
# (count, t = 1, t = 2) under an identity's name (RR1, LG1) and (coeffs,)
# under a congruence-class series' (S21, S22, H21, H22), ten lists in all
_MEMO: dict = {}


def _held(key, order: int, build) -> tuple:
    """The memo entry for ``key`` when that was built at ``order`` or
    above, else ``build(key, order)``, held in its place.  A caller cuts
    what it returns from the entry, never the entry itself."""
    _check_order(order)
    held = _MEMO.get(key)
    if held is None or len(held[0]) <= order:
        held = _MEMO[key] = build(key, order)
    return held


# identity -> (the term stream of its sum side, its gap class, its congruence
# class): the sum side counts both classes, and the product side allows the
# congruence class's parts
_IDENTITIES = {"RR1": ("rr", ClassId.R1, ClassId.R2), "LG1": ("lg", ClassId.G1, ClassId.G2)}

# class -> the identity whose sum side counts it
_COUNTED_BY = {cid: which for which, (_, *pair) in _IDENTITIES.items() for cid in pair}


def counting_series(class_id: ClassId, order: int) -> TruncatedSeries:
    """Partition-count series of a class, built as the Nahm sum of its
    pair's identity: sum q^(n^2)/(q;q)_n for R1 and R2, and
    sum q^(n^2+n)(-1/q;q^2)_n/(q^2;q^2)_n for G1 and G2.  Both classes of a
    pair are equinumerous, so they share one series.

    It is the count field of the identity's pass (:func:`_identity_pass`),
    whose other fields are the gap class's hook series: one Horner pass
    makes all three.  :func:`identity_check_sum_product` compares that
    count with the product side.  Memoized per process under the
    identity's name; a fresh series is returned on every call.  Anything
    but a :class:`ClassId` raises ValueError before any memo entry is made."""
    which = _COUNTED_BY.get(class_id)
    if which is None:
        raise ValueError(f"counting_series needs a ClassId; got {class_id!r}")
    return TruncatedSeries(order, _held(which, order, _identity_pass)[0][: order + 1])


# --------------------------------------------------------------------------
# Nahm-sum term streams
# --------------------------------------------------------------------------

# stream -> (term 0, n -> F_n): term n is term n-1 times the rational factor
# F_n, and term 0 and every F_n are (numerator, periods) as :func:`_apply`
# takes them
_STREAMS = {
    # q^(n^2)/(q;q)_n
    "rr": (([(0, 1)], []), lambda n: ([(2 * n - 1, 1)], [n])),
    # q^((n+1)^2)/(q;q)_n
    "rr_shifted": (([(1, 1)], []), lambda n: ([(2 * n + 1, 1)], [n])),
    # q^(n^2+n)/(q;q)_n
    "rr_second": (([(0, 1)], []), lambda n: ([(2 * n, 1)], [n])),
    # q^(n^2+n) (-1/q;q^2)_n/(q^2;q^2)_n
    "lg": (([(0, 1)], []), lambda n: ([(2 * n, 1), (4 * n - 3, 1)], [2 * n])),
    # q^(n^2+n) (-q;q^2)_(n+1)/(q^2;q^2)_n, whose term 0 is 1 + q
    "lg12": (([(0, 1), (1, 1)], []), lambda n: ([(2 * n, 1), (4 * n + 1, 1)], [2 * n])),
}

# stream -> (its identity's stream, (c, d) monomials, factor or None): term n
# is term n of the identity's stream times the sum of q^(c n + d) and the
# factor.  rr_shifted_n = q^(2n+1) rr_n is G(z) - G(zq) = zq G(zq^2) (Andrews,
# The Theory of Partitions, ch. 7); lg12_n = q (1 + q^(2n-1))(1 + q^(2n+1))
# lg_n/(1 + q), multiplied out, with 1/(1 + q) = (1 - q)/(1 - q^2)
_SHIFTED = {
    "rr_shifted": ("rr", [(2, 1)], None),
    "lg12": ("lg", [(0, 1), (2, 0), (2, 2), (4, 1)], (((0, 1), (1, -1)), (2,))),
}


def _nahm_sum(rows, order: int, x: int = 1) -> list:
    """Sum over the rows (stream, a, b) or (stream, a, b, c, d) of
    (a*n + b) x^n q^(c*n + d) times term n of the stream, c, d >= 0 (0 when
    left out), at the integer ``x``: its coefficient list to q^order.

    A stream's rows are summed by one Horner pass, innermost term outward.
    With F_n the factor taking term n-1 to term n (F_0 = term 0), w_k the
    rows' weight at k and K the last term whose lowest exponent is at most
    ``order``, the sum is F_0 T_0, where T_K = w_K and
    T_k = w_k + F_(k+1) T_(k+1).  T_k enters the sum multiplied by
    F_0 ... F_k, which is term k, so it is needed only below
    q^(order + 1 - low_k), low_k being the lowest exponent of term k: each
    level is kept on that window, which shrinks as k grows, skips the
    monomials of w_k past it, and is one :func:`_apply` of F_k to the level
    inside it, on a window longer by the lowest exponent of F_k's numerator.
    :func:`_identity_pass` takes x = 1 and packed weights; a gap-class
    bivariate table x = 2^b, its packed digits (:func:`_build_bivariate`)."""
    _check_order(order)
    weights = {}
    for stream, a, b, *shift in rows:
        c, d = shift or (0, 0)
        if c < 0 or d < 0:
            raise ValueError("weight exponents must be >= 0")
        weights.setdefault(stream, []).append((a, b, c, d))
    acc = [0] * (order + 1)
    for stream, row_weights in weights.items():
        first, step = _STREAMS[stream]
        # factors[n] = (F_n, the lowest exponent of its numerator), and room
        # the window of the level T_k in hand, order + 1 - low_k
        factors, room = [], order + 1
        for factor in chain([first], map(step, count(1))):
            low = min(e for e, _ in factor[0])
            if low >= room:
                break
            factors.append((factor, low))
            room -= low
        if not factors:
            continue
        level = [0] * room
        for k in range(len(factors) - 1, -1, -1):
            for a, b, c, d in row_weights:
                if c * k + d < len(level):
                    level[c * k + d] += (a * k + b) * x**k
            factor, low = factors[k]
            # F_k T_k on the window of T_(k-1), which is low longer
            level = _apply(level, factor, len(level) + low)
        # the windows grew back by every low taken from order + 1, so the
        # last level, F_0 T_0, spans exactly order + 1
        acc = _add(acc, level)
    return acc


def _count_digit_width(order: int) -> int:
    """Bits W of the count field in an identity's pass to q^order.  That
    field counts the identity's classes, and a class's count at n <= order
    is at most p(n) <= p(order) <= 2^(``classes._partition_bits(order)``).
    W is that exponent rounded down plus one, and one guard bit for the
    rounding of the float.  Every step of the pass is Z-linear on exact
    ints, so only the final fields must fit."""
    return int(_partition_bits(order)) + 2


def _identity_pass(which: str, order: int) -> tuple:
    """(count, t = 1, t = 2) of identity ``which`` to q^order, its sum side
    and its gap class's hook series, from one Horner pass over its stream.

    A sum-side row (stream, a, b) runs on that stream by its ``_SHIFTED``
    relation, its weight times 2^s, s = 0, W or W + W2 by field (Kronecker
    substitution).  The count is below 2^W (:func:`_count_digit_width`).
    A term k that reaches q^n has k^2 <= n, so the t = 1 series,
    sum k term_k, is below isqrt(order) 2^W <= 2^W2 with
    W2 = W + bit_length(isqrt(order)) + 1.  The top field needs no bound: a
    mask and a shift read each field back, the shift flooring a negative
    one too.  A relation's factor, one per sum side, is applied after."""
    stream, gap, _ = _IDENTITIES[which]
    width = _count_digit_width(order)
    width2 = width + isqrt(order).bit_length() + 1
    # the count, then the gap class's t = 1 and t = 2 sum sides in table order
    forms = [[(stream, 0, 1)], *(form for cid, _, form, _ in _HOOK_SERIES.values() if cid == gap)]
    rows, factors = [], []
    for shift, form in zip((0, width, width + width2), forms):
        relations = [_SHIFTED.get(s, (s, [(0, 0)], None)) for s, _, _ in form]
        (factor,) = {f for _, _, f in relations}  # one per sum side, or ValueError
        factors.append(factor)
        rows += [(base, a << shift, b << shift, c, d)
                 for (_, a, b), (base, monomials, _) in zip(form, relations) for c, d in monomials]
    packed = _nahm_sum(rows, order)
    mask, mask2 = (1 << width) - 1, (1 << width2) - 1
    fields = ([v & mask for v in packed], [v >> width & mask2 for v in packed],
              [v >> width + width2 for v in packed])
    return tuple(f if factor is None else _apply(f, factor) for f, factor in zip(fields, factors))


# --------------------------------------------------------------------------
# the eight hook generating functions
# --------------------------------------------------------------------------

# name -> (class, t, closed form, gap rows) of S_jt = series_S(j, t) or
# H_jt = series_H(j, t), the t-hook series of the class.  A gap class's
# closed form is a sum side, a list of (stream, a, b) for :func:`_nahm_sum`,
# and its gap rows the streams whose term n, in turn, is the row x^n of its
# bivariate table.  A congruence class's is a product side, rational factors
# (numerator, periods) whose sum multiplies the class's counting series, and
# its gap rows None.
_HOOK_SERIES = {
    "S11": (ClassId.R1, 1, [("rr", 1, 0)], ["rr"]),
    "S12": (ClassId.R1, 2, [("rr", 1, 0), ("rr_shifted", 0, -1)], ["rr_shifted", "rr_second"]),
    "S21": (ClassId.R2, 1, [([(1, 1), (4, 1)], [5])], None),
    "S22": (ClassId.R2, 2, [([(4, 1), (6, 1)], [5]), ([(2, 1), (8, 1)], [10])], None),
    "H11": (ClassId.G1, 1, [("lg", 1, 0)], ["lg"]),
    "H12": (ClassId.G1, 2, [("lg12", 1, 0)], ["lg12"]),
    "H21": (ClassId.G2, 1, [([(1, 1), (5, 1), (6, 1)], [8])], None),
    "H22": (ClassId.G2, 2, [([(5, 1), (6, 1), (9, 1)], [8]),
                            ([(2, 1), (10, 1), (11, -1), (12, 1)], [16])], None),
}


def _checked_name(fn: str, family: str, j: int, t: int) -> str:
    """The hook-series name family + j + t, or ValueError naming ``fn``."""
    if j not in (1, 2) or t not in (1, 2):
        raise ValueError(f"{fn} undefined for (j, t) = ({j}, {t})")
    return f"{family}{int(j)}{int(t)}"


def _hook_series(name: str, order: int) -> TruncatedSeries:
    """A fresh series ``name`` to q^order.  A gap class's is a field of its
    identity's memoized pass.  A congruence class's, memoized under its
    name, is its class's count times the sum of its factors."""
    class_id, t, form, gap_rows = _HOOK_SERIES[name]
    if gap_rows is None:
        def build(_, n):
            prod = counting_series(class_id, n).coeffs
            return (_add(*(_apply(prod, factor) for factor in form)),)
        (held,) = _held(name, order, build)
    else:
        held = _held(_COUNTED_BY[class_id], order, _identity_pass)[t]
    return TruncatedSeries(order, held[: order + 1])


def series_S(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the Rogers-Ramanujan
    class pair: j = 1 the gap-2 class, j = 2 the mod-5 class; t in {1, 2}.

    Memoized per process (see the module docstring): a request at or below
    the highest order built so far is served by truncation, and a fresh
    series is returned on every call."""
    name = _checked_name("series_S", "S", j, t)
    return _hook_series(name, order)


def series_H(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the little Gollnitz class
    pair: j = 1 the gap class, j = 2 the mod-8 class; t in {1, 2}.

    Memoized per process like :func:`series_S`."""
    name = _checked_name("series_H", "H", j, t)
    return _hook_series(name, order)


# --------------------------------------------------------------------------
# bivariate refinements
# --------------------------------------------------------------------------


class BivariateSeries:
    """Series in q and x, stored as one TruncatedSeries per x-degree.

    ``cols[k]`` is the coefficient of x^k.  The list ends at the highest
    x-degree with a nonzero coefficient (a lone zero column for the zero
    table), so it grows with the statistic, not with the q-order.
    """

    __slots__ = ("order_q", "cols")

    def __init__(self, order_q: int, cols: list):
        cols = list(cols)  # the trim below must not shorten the caller's list
        if not cols or any(col.order != order_q for col in cols):
            raise ValueError(f"a table needs one or more columns, each of order {order_q}")
        while len(cols) > 1 and not any(cols[-1].coeffs):
            cols.pop()
        self.order_q, self.cols = order_q, cols

    @property
    def order_x(self) -> int:
        """Highest x-degree stored."""
        return len(self.cols) - 1

    def coefficient(self, n: int, k: int) -> int:
        """Coefficient of x^k q^n."""
        if not 0 <= k <= self.order_x:
            raise IndexError(f"x-degree {k} outside table")
        return self.cols[k][n]

    def at_x_one(self) -> TruncatedSeries:
        """Marginalize the statistic: substitute x = 1."""
        return TruncatedSeries(self.order_q, _add(*(col.coeffs for col in self.cols)))

    def x_derivative_at_one(self) -> TruncatedSeries:
        """d/dx at x = 1: weights each column by its x-degree."""
        weighted = (map(mul, col.coeffs, repeat(k)) for k, col in enumerate(self.cols))
        return TruncatedSeries(self.order_q, _add(*weighted))


# Product-side factors, one per part value, as rational factors
# (numerator, periods) for :func:`_apply`: N(x, q) / prod_{d in periods}
# (1 - q^d), each monomial's coefficient a polynomial in x evaluated at the
# given integer x.


def _part_factor(e: int, lone: int, repeated: int, x: int):
    """A part e that makes ``lone`` t-hooks when it occurs once and
    ``repeated`` when it is repeated: 1 + x^lone q^e + x^repeated
    q^(2e)/(1 - q^e), that is (1 + (x^lone - 1) q^e + (x^repeated - x^lone)
    q^(2e))/(1 - q^e).  Zero monomials are left out, so that :func:`_apply`
    runs no pass on them."""
    once, twice = x**lone, x**repeated
    numerator = [(0, 1), (e, once - 1), (2 * e, twice - once)]
    return [(k, c) for k, c in numerator if c], [e]


def _pair_factor(a: int, x: int):
    """Adjacent parts a > 1 and b = a + 1 together: each absent or alone as
    in :func:`_part_factor` at t = 2, or both present, which merges one pair
    of their 2-hooks into the cross term x q^s (1 - (1-x) q^a)/(1 - q^a)
    (1 - (1-x) q^b)/(1 - q^b), s = a + b.  Over (1 - q^a)(1 - q^b) that is
    1 + (x-1)(q^a + q^b - q^s) + x(x-1)(q^(2a) + q^(2b)) + x(x-1)^2 q^(2s)."""
    b, s = a + 1, 2 * a + 1
    return [(0, 1), (a, x - 1), (b, x - 1), (s, 1 - x), (2 * a, x * (x - 1)),
            (2 * b, x * (x - 1)), (2 * s, x * (x - 1) ** 2)], [a, b]


def _part_factors(class_id: ClassId, t: int, order: int, x: int):
    """The factors of a congruence class's product-side table at ``x``: one
    for each part value up to ``order`` that :data:`RESIDUE_CLASSES`
    allows.  A part e makes one 1-hook at any multiplicity; for t = 2 it
    makes one 2-hook alone when e > 1 and one more when repeated, so part 1
    makes one only when repeated.  Each pair e, e + 1 of adjacent allowed
    values takes its own factor at t = 2; residue 1 is allowed in both
    classes, 2 in neither, and no three allowed values are consecutive."""
    residues, modulus = RESIDUE_CLASSES[class_id]
    allowed = [e % modulus in residues for e in range(order + 2)]
    e = 1
    while e <= order:
        if allowed[e]:
            paired = t == 2 and e > 1 and allowed[e + 1]
            lone = e >= t  # (lone, repeated) is (1, 1) at t = 1, (e > 1, (e > 1) + 1) at t = 2
            yield _pair_factor(e, x) if paired else _part_factor(e, lone, lone + t - 1, x)
            e += paired
        e += 1


def _degree_digit_width(class_id: ClassId, order: int) -> int:
    """Bits per x-degree in a packed bivariate table: the bit length of the
    class's count at ``order``, read off its pair's counting series, which
    the memo keeps for the pair's next table and for the series.

    A coefficient of x^k q^n, n <= order, counts class members of size n.
    The two classes of a pair are equinumerous (RR1, LG1), and the
    congruence class's counts do not decrease with n (part 1 is allowed,
    so appending a 1 maps size n into size n + 1 one to one), so every
    coefficient is at most the count at ``order``.  So is every digit of a
    gap-class table's Horner levels: every term is non-negative with lowest
    coefficient 1, and level k is kept on term k's window, so each digit of
    it is at most a final coefficient at some n <= order."""
    return counting_series(class_id, order).coeffs[order].bit_length()


def _build_bivariate(name: str, order: int) -> BivariateSeries:
    """The table of a hook series, taken at x = 2^b,
    b = :func:`_degree_digit_width` (Kronecker substitution): the
    coefficient of x^k q^n lands in bits b*k .. b*k+b-1 of one series.  A
    gap class's table is the sum of x^n times term n over its gap-row
    streams, one :func:`_nahm_sum`.  A congruence class's is the product
    of its part factors, each one :func:`_apply`, a sparse product and its
    1/(1 - q^d) passes, whatever the x-degree.  Every step is Z-linear and
    every coefficient of x^k q^n is below 2^b, so column k is read back
    exactly as digit k."""
    _check_order(order)
    class_id, t, _, gap_rows = _HOOK_SERIES[name]
    width = _degree_digit_width(class_id, order)
    if gap_rows is not None:
        packed = _nahm_sum([(stream, 0, 1) for stream in gap_rows], order, 1 << width)
    else:
        packed = [1] + [0] * order
        for factor in _part_factors(class_id, t, order, 1 << width):
            packed = _apply(packed, factor)
    mask, digits = (1 << width) - 1, -(-max(packed).bit_length() // width)
    cols = [[c >> width * k & mask for c in packed] for k in range(digits)]
    return BivariateSeries(order, [TruncatedSeries(order, col) for col in cols])


def bivariate_R(j: int, t: int, order: int) -> BivariateSeries:
    """Bivariate refinement sum_lambda x^(statistic) q^|lambda| over the
    Rogers-Ramanujan class pair; statistics as in :func:`series_S`."""
    return _build_bivariate(_checked_name("bivariate_R", "S", j, t), order)


def bivariate_G(j: int, t: int, order: int) -> BivariateSeries:
    """Bivariate refinement over the little Gollnitz class pair; statistics
    as in :func:`series_H`.  In the mod-8 class two adjacent values merge a
    pair of their 2-hooks when both occur, which :func:`_pair_factor`
    encodes."""
    return _build_bivariate(_checked_name("bivariate_G", "H", j, t), order)


# --------------------------------------------------------------------------
# sum-product identity checks
# --------------------------------------------------------------------------


class IdentityCheck(namedtuple("IdentityCheck", "which order ok first_mismatch sum_value product_value",
                               defaults=(None, None, None))):
    """Outcome of a coefficientwise sum-side vs product-side comparison."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.ok:
            return f"{self.which}: sum and product sides agree to order {self.order}"
        return (
            f"{self.which}: first mismatch at q^{self.first_mismatch}: "
            f"sum side {self.sum_value}, product side {self.product_value}"
        )


def identity_check_sum_product(which: str, order: int) -> IdentityCheck:
    """Verify a sum-product identity coefficientwise to the given order.

    ``which`` is ``"RR1"`` (first Rogers-Ramanujan identity,
    sum q^(n^2)/(q;q)_n = 1/(q,q^4;q^5)_inf) or ``"LG1"`` (first little
    Gollnitz identity, sum q^(n^2+n)(-1/q;q^2)_n/(q^2;q^2)_n =
    1/(q,q^5,q^6;q^8)_inf).  Both sides are built here, unmemoized and
    independently: the sum side as a fresh :func:`_nahm_sum` over the
    identity's stream with the count's weight alone, so it reads none of
    the packing of :func:`_identity_pass` that :func:`counting_series` and
    the series read, and the product side by :func:`inv_pochhammer_product`.
    """
    if which not in _IDENTITIES:
        raise ValueError(f"unknown identity {which!r} (expected {' or '.join(map(repr, _IDENTITIES))})")
    _check_order(order)
    stream, _, cong = _IDENTITIES[which]
    lhs = _nahm_sum([(stream, 0, 1)], order)
    rhs = inv_pochhammer_product(*RESIDUE_CLASSES[cong], order).coeffs
    for n in range(order + 1):
        if lhs[n] != rhs[n]:
            return IdentityCheck(which, order, False, n, lhs[n], rhs[n])
    return IdentityCheck(which, order, True)
