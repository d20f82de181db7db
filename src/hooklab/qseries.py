"""Exact truncated power series for the class generating functions.

Everything here is integer-exact: a :class:`TruncatedSeries` holds the
coefficients of sum(c_n q^n) + O(q^(N+1)) as Python ints, and the engine is
division-free -- dividing by (1 - q^p) is realized as multiplication by the
truncated geometric series of period p, an O(N) in-place pass.  Each
in-place primitive works on whole list slices (``map``/``accumulate`` over
them), so its per-coefficient loop runs in C, not in Python bytecode.

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
its (e, c) monomials c q^e, e >= 0.  One primitive, :func:`_apply`, takes
a series times a factor.  Two tables define the eight series.
``_STREAMS`` holds each Nahm-sum term stream as a term 0 and a rational
factor F_n, term n = term (n-1) F_n.  ``_HOOK_SERIES`` holds each series,
by its name S11 ... H22, with its class and t: a gap class's as a sum side,
a weighted sum over streams, a congruence class's as a product side, a
class counting series times a sum of rational factors.

:func:`_nahm_sum` evaluates a weighted sum over a stream by Horner's rule,
from the last term that reaches the order inward, so each level is one
:func:`_apply` of a stream's factor to the level inside it.  A level
is kept only on the window that can still reach q^order, which shrinks as
the lowest exponent of its term grows, so the sum costs about as much as
the terms' nonzero windows, not (number of terms) x (order).
:func:`_nahm_terms` runs a stream term by term at full order; it gives the
gap-class bivariate rows, and the sums are tested against it.

One builder, :func:`_build_bivariate`, makes the eight bivariate
refinements sum_lambda x^(statistic) q^|lambda|.  A gap-class table takes
its rows from the same streams.  A congruence-class table is a product of
one factor per part value that ``classes.RESIDUE_CLASSES`` allows, as is
the product side of :func:`identity_check_sum_product`, so each congruence
class is defined there alone; it is taken at x = 2^b as one series whose
b-bit digits are the table's columns (Kronecker substitution).

:func:`counting_series` is the Nahm (sum) side of each pair's first
identity; the product side, :func:`inv_pochhammer_product`, built largest
part first, is its oracle and what :func:`identity_check_sum_product`
compares it with.

The eight series, the two class counting series and the two class products
that size the packed digits are memoized per process, twelve fixed keys
whatever the input: the names, the identities RR1 and LG1, and each
product's (residues, modulus).  Each key holds the series
built at the highest order requested so far: a lower order is served by
truncation, a higher one rebuilds the entry.  Every call returns a fresh
:class:`TruncatedSeries`, which the caller may mutate without touching the
memo.  :func:`inv_pochhammer_product`, the bivariate builders and
:func:`identity_check_sum_product` are not memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat
from operator import add, mul

from .classes import RESIDUE_CLASSES, ClassId


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


# --------------------------------------------------------------------------
# univariate series
# --------------------------------------------------------------------------


class TruncatedSeries:
    """Power series mod q^(order+1) with exact integer coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: list | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        if coeffs is None:
            self.coeffs = [0] * (order + 1)
        else:
            if len(coeffs) != order + 1:
                raise ValueError("coeffs must have exactly order+1 entries")
            self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        s = cls(order)
        s.coeffs[0] = 1
        return s

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, self.coeffs)

    def truncated(self, order: int) -> "TruncatedSeries":
        """New series holding this one's coefficients up to q^order."""
        if order > self.order:
            raise ValueError(f"order {order} exceeds truncation order {self.order}")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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

    # -- in-place exact primitives (used by the series builders) ----------

    def imul_geometric(self, period: int) -> "TruncatedSeries":
        """Multiply by 1/(1 - q^period) in place (see :func:`_running_sums`)."""
        if period < 1:
            raise ValueError("period must be >= 1")
        _running_sums(self.coeffs, period)
        return self

    def iadd_scaled(self, other: "TruncatedSeries", k: int = 1) -> "TruncatedSeries":
        if other.order != self.order:
            raise OrderMismatchError(f"orders differ: {self.order} != {other.order}")
        scaled = other.coeffs if k == 1 else map(mul, other.coeffs, repeat(k))
        # slice assignment drains the map before it writes, so other may be self
        self.coeffs[:] = map(add, self.coeffs, scaled)
        return self


def _running_sums(c: list, period: int) -> None:
    """c[k] += c[k - period] for k ascending, in place: multiplication of
    the coefficient list ``c`` by 1/(1 - q^period), period >= 1.

    The recurrence is a running sum along each residue class mod ``period``.
    A short period takes those sums slice by slice; a long one walks blocks
    of length ``period``, each adding the block before it, which is already
    updated.  The census scan in ``hooks`` does not use it: its components
    are packed ints, summed by doubling."""
    size = len(c)
    if period * period <= size:
        for r in range(period):
            c[r::period] = accumulate(c[r::period])
    else:
        for lo in range(period, size, period):
            c[lo : lo + period] = map(add, c[lo : lo + period], c[lo - period : lo])


def _apply(series: TruncatedSeries, factor, order: int | None = None) -> TruncatedSeries:
    """New series: ``series`` times the rational factor (numerator, periods),
    N/prod(1 - q^d) over d in periods, with N the sum of c q^e over the
    (e, c) monomials of numerator, e >= 0.  The result is kept to ``order``
    (default the series' own), which may exceed it by N's lowest exponent."""
    numerator, periods = factor
    if any(e < 0 for e, _ in numerator):
        raise ValueError("numerator exponents must be >= 0")
    out = TruncatedSeries(series.order if order is None else order)
    src, dst, fresh = series.coeffs, out.coeffs, True
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
        out.imul_geometric(d)
    return out


def inv_pochhammer_product(residues, modulus: int, order: int) -> TruncatedSeries:
    """Expansion of 1 / prod_{n >= 1, n = r (mod m) for some r} (1 - q^n).

    Only factors with exponent <= order contribute; this is the partition
    counting series for parts restricted to the given residue classes.
    """
    residues = set(residues)
    if not residues:
        raise ValueError("residues must be nonempty")
    if any(not 1 <= r <= modulus for r in residues):
        raise ValueError(f"residues must lie in [1, {modulus}]")
    keys = {r % modulus for r in residues}
    out = TruncatedSeries.one(order)
    # parts above order/2 occur at most once and never two together, so
    # their factors are together 1 + sum q^e; the rest go largest first
    half = order // 2
    for e in range(half + 1, order + 1):
        out.coeffs[e] = int(e % modulus in keys)
    for e in range(half, 0, -1):
        if e % modulus in keys:
            out.imul_geometric(e)
    return out


# key -> the series built at the highest order requested so far; the keys are
# the eight hook series, the two counting series and the two class products,
# twelve in all
_MEMO: dict = {}


def _memoized(key, order: int, build) -> TruncatedSeries:
    """A fresh copy of ``build(order)``, truncated from the memo entry for
    ``key`` when that was built at ``order`` or above, else rebuilt there."""
    held = _MEMO.get(key)
    if held is None or held.order < order:
        held = _MEMO[key] = build(order)
    return held.truncated(order)


# identity -> (the term stream of its sum side, the congruence class whose
# parts its product side allows)
_IDENTITIES = {"RR1": ("rr", ClassId.R2), "LG1": ("lg", ClassId.G2)}

# class -> the identity whose sum side counts it
_COUNTED_BY = {ClassId.R1: "RR1", ClassId.R2: "RR1", ClassId.G1: "LG1", ClassId.G2: "LG1"}


def counting_series(class_id: ClassId, order: int) -> TruncatedSeries:
    """Partition-count series of a class, built as the Nahm sum of its
    pair's identity: sum q^(n^2)/(q;q)_n for R1 and R2, and
    sum q^(n^2+n)(-1/q;q^2)_n/(q^2;q^2)_n for G1 and G2.  Both classes of a
    pair are equinumerous, so they share one series.

    The sum is evaluated by Horner's rule on shrinking windows
    (:func:`_nahm_sum`).  :func:`identity_check_sum_product` compares it with
    the product side.  Memoized per process, one entry per pair, keyed by
    the identity's name; a fresh series is returned on every call.  Anything
    but a :class:`ClassId` raises ValueError before any memo entry is made."""
    which = _COUNTED_BY.get(class_id)
    if which is None:
        raise ValueError(f"counting_series needs a ClassId; got {class_id!r}")
    stream, _ = _IDENTITIES[which]
    return _memoized(which, order, lambda n: _nahm_sum([(stream, 0, 1)], n))


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


def _nahm_terms(stream: str, order: int):
    """(n, term n) for n = 0, 1, ... over a stream of :data:`_STREAMS`, up to
    its first zero term (the lowest exponent rises with n, and each later
    term is a multiple of it).  Each term is a fresh series and the next is
    built before it is handed out, so the caller may mutate it.

    Every term is run at the full order.  This serves the bivariate
    gap-class rows, which need the terms one by one, and the test that holds
    :func:`_nahm_sum`, which never forms a term, to the plain sum of them."""
    first, step = _STREAMS[stream]
    term, n = _apply(TruncatedSeries.one(order), first), 0
    while not term.is_zero():
        after = _apply(term, step(n + 1))
        yield n, term
        term, n = after, n + 1


def _nahm_sum(streams, order: int) -> TruncatedSeries:
    """Sum over (stream, a, b) in ``streams`` of (a*n + b) times term n of
    that stream, to the given order.

    Each weighted sum is evaluated by Horner's rule, from the innermost term
    outward.  With F_n the factor taking term n-1 to term n (F_0 = term 0)
    and K the last term whose lowest exponent is at most ``order``, the sum
    is F_0 T_0, where T_K = a*K + b and T_k = (a*k + b) + F_(k+1) T_(k+1).
    T_k enters the sum multiplied by F_0 ... F_k, which is term k, so it is
    needed only below q^(order + 1 - low_k), low_k being the lowest exponent
    of term k: each level is kept on that window, which shrinks as k grows,
    and is one :func:`_apply` of F_k to the level inside it, on a window
    longer by the lowest exponent of F_k's numerator."""
    if order < 0:
        raise ValueError("order must be >= 0")
    acc = TruncatedSeries.zero(order)
    for stream, a, b in streams:
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
        level = TruncatedSeries.zero(room - 1)
        for k in range(len(factors) - 1, -1, -1):
            level.coeffs[0] += a * k + b
            factor, low = factors[k]
            # F_k T_k on the window of T_(k-1), which is low longer
            level = _apply(level, factor, level.order + low)
        acc.iadd_scaled(level)
    return acc


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


def _build_hook_series(name: str, order: int) -> TruncatedSeries:
    class_id, _, form, gap_rows = _HOOK_SERIES[name]
    if gap_rows is not None:
        return _nahm_sum(form, order)
    prod = counting_series(class_id, order)
    acc = TruncatedSeries.zero(order)
    for factor in form:
        acc.iadd_scaled(_apply(prod, factor))
    return acc


def series_S(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the Rogers-Ramanujan
    class pair: j = 1 the gap-2 class, j = 2 the mod-5 class; t in {1, 2}.

    Memoized per process (see the module docstring): a request at or below
    the highest order built so far is served by truncation, and a fresh
    series is returned on every call."""
    name = _checked_name("series_S", "S", j, t)
    return _memoized(name, order, lambda n: _build_hook_series(name, n))


def series_H(j: int, t: int, order: int) -> TruncatedSeries:
    """Generating function of the t-hook counts of the little Gollnitz class
    pair: j = 1 the gap class, j = 2 the mod-8 class; t in {1, 2}.

    Memoized per process like :func:`series_S`."""
    name = _checked_name("series_H", "H", j, t)
    return _memoized(name, order, lambda n: _build_hook_series(name, n))


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
        while len(cols) > 1 and cols[-1].is_zero():
            cols.pop()
        self.order_q, self.cols = order_q, cols

    @classmethod
    def from_rows(cls, order_q: int, rows) -> "BivariateSeries":
        """Table of the sum of x^k s(q) over the (k, s) pairs in ``rows``."""
        cols = [TruncatedSeries.zero(order_q)]
        for k, s in rows:
            cols.extend(TruncatedSeries.zero(order_q) for _ in range(len(cols), k + 1))
            cols[k].iadd_scaled(s)
        return cls(order_q, cols)

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
        acc = TruncatedSeries.zero(self.order_q)
        for col in self.cols:
            acc.iadd_scaled(col)
        return acc

    def x_derivative_at_one(self) -> TruncatedSeries:
        """d/dx at x = 1: weights each column by its x-degree."""
        acc = TruncatedSeries.zero(self.order_q)
        for k, col in enumerate(self.cols):
            if k:
                acc.iadd_scaled(col, k)
        return acc


# Product-side factors, one per part value, as rational factors
# (numerator, periods) for :func:`_apply`: N(x, q) / prod_{d in periods}
# (1 - q^d), each monomial's coefficient a polynomial in x evaluated at the
# given integer x.


def _one_part_factor(e: int, x: int):
    """1 + x q^e/(1 - q^e): a part e, at any multiplicity, is one 1-hook."""
    return [(0, 1), (e, x - 1)], [e]


def _part_one_factor(x: int):
    """1 + q + x q^2/(1 - q): parts 1 give a 2-hook only when repeated."""
    return [(0, 1), (2, x - 1)], [1]


def _two_part_factor(e: int, x: int):
    """1 + x q^e + x^2 q^(2e)/(1 - q^e): a part e > 1 gives one 2-hook, and
    a second one when repeated."""
    return [(0, 1), (e, x - 1), (2 * e, x * (x - 1))], [e]


def _pair_factor(a: int, x: int):
    """Adjacent parts a > 1 and b = a + 1 together: each absent or alone as
    in the two-part factor, or both present, which merges one pair of their
    2-hooks into the cross term x q^s (1 - (1-x) q^a)/(1 - q^a)
    (1 - (1-x) q^b)/(1 - q^b), s = a + b.  Over (1 - q^a)(1 - q^b) that is
    1 + (x-1)(q^a + q^b - q^s) + x(x-1)(q^(2a) + q^(2b)) + x(x-1)^2 q^(2s)."""
    b, s = a + 1, 2 * a + 1
    return [(0, 1), (a, x - 1), (b, x - 1), (s, 1 - x), (2 * a, x * (x - 1)),
            (2 * b, x * (x - 1)), (2 * s, x * (x - 1) ** 2)], [a, b]


def _part_factors(class_id: ClassId, t: int, order: int, x: int):
    """The factors of a congruence class's product-side table at ``x``: one
    for each part value up to ``order`` that :data:`RESIDUE_CLASSES`
    allows.  For t = 2, part 1 and each pair e, e + 1 of adjacent allowed
    values take their own factors; residue 1 is allowed in both classes, 2
    in neither, and no three allowed values are consecutive."""
    residues, modulus = RESIDUE_CLASSES[class_id]
    allowed = [e % modulus in residues for e in range(order + 2)]
    if t == 1:
        for e in range(1, order + 1):
            if allowed[e]:
                yield _one_part_factor(e, x)
        return
    yield _part_one_factor(x)
    e = 2
    while e <= order:
        if allowed[e]:
            paired = allowed[e + 1]
            yield _pair_factor(e, x) if paired else _two_part_factor(e, x)
            e += paired
        e += 1


def _digit_width(class_id: ClassId, order: int) -> int:
    """Bits per x-degree in a packed product-side table: a coefficient of
    x^k q^n, n <= order, counts class members of size n, and those counts
    do not decrease with n (part 1 is allowed, so appending a 1 maps size
    n into size n + 1 one to one).  So every coefficient is at most the
    class's count at ``order``, read off the literal product, which the
    memo keeps for the class's next table."""
    residues, modulus = RESIDUE_CLASSES[class_id]
    key = tuple(sorted(residues)), modulus
    product = _memoized(key, order, lambda n: inv_pochhammer_product(residues, modulus, n))
    return product.coeffs[order].bit_length()


def _build_bivariate(name: str, order: int) -> BivariateSeries:
    """The table of a hook series: a gap class's rows from its term
    streams, a congruence class's as the product of its part factors.

    That product is taken at x = 2^b, b = :func:`_digit_width` (Kronecker
    substitution): the coefficient of x^k q^n lands in bits b*k .. b*k+b-1
    of one series, so each factor costs one :func:`_apply`, a sparse
    product and its 1/(1 - q^d) passes, whatever the x-degree.  Every step is Z-linear and
    every coefficient of x^k q^n is below 2^b, so column k is read back
    exactly as digit k."""
    class_id, t, _, gap_rows = _HOOK_SERIES[name]
    if gap_rows is not None:
        rows = chain.from_iterable(_nahm_terms(stream, order) for stream in gap_rows)
        return BivariateSeries.from_rows(order, rows)
    packed, width = TruncatedSeries.one(order), _digit_width(class_id, order)
    for factor in _part_factors(class_id, t, order, 1 << width):
        packed = _apply(packed, factor)
    mask, digits = (1 << width) - 1, -(-max(packed.coeffs).bit_length() // width)
    cols = [[c >> width * k & mask for c in packed.coeffs] for k in range(digits)]
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


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of a coefficientwise sum-side vs product-side comparison."""

    which: str
    order: int
    ok: bool
    first_mismatch: int | None = None
    sum_value: int | None = None
    product_value: int | None = None

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
    1/(q,q^5,q^6;q^8)_inf).  Both sides are computed here, unmemoized and
    independently: the sum side from its term stream, the product side by
    :func:`inv_pochhammer_product`.  :func:`counting_series` serves the sum
    side, so this check is what ties it to the product.
    """
    if which not in _IDENTITIES:
        raise ValueError(f"unknown identity {which!r} (expected 'RR1' or 'LG1')")
    stream, cong = _IDENTITIES[which]
    lhs = _nahm_sum([(stream, 0, 1)], order)
    rhs = inv_pochhammer_product(*RESIDUE_CLASSES[cong], order)
    for n in range(order + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return IdentityCheck(which, order, False, n, lhs.coeffs[n], rhs.coeffs[n])
    return IdentityCheck(which, order, True)
