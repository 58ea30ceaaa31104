"""Finite discrete probability distributions and their combination.

A :class:`Distribution` maps finitely many carrier values (semiring
values, monoid values, or tuples of those for joint distributions) to
strictly positive probabilities and is kept sorted by value.  The
combinators mirror how decomposition-tree nodes combine the
distributions of independent or mutually exclusive children:

* :func:`convolve` gives the distribution of ``op(x, y)`` for
  independent ``x`` and ``y`` and any operation, by summing probability
  mass over all value pairs that map to each outcome.  It is the
  general case and the reference for the kernels below, which take
  fewer than every pair;
* :func:`sum_fold` gives the distribution of ``x_1 + ... + x_n`` for
  independent integer-valued ``x_i`` in one list of floats indexed by
  value, when that list is no wider than the pairwise work warrants
  (the caller orders the summands: ascending spans keep it narrowest);
* :func:`boolean_fold` gives ``x_1 or ... or x_n`` or
  ``x_1 and ... and x_n`` in one loop that carries the mass at 0 and
  at 1;
* :func:`extreme_fold` gives ``min(x_1, ..., x_n)`` or
  ``max(x_1, ..., x_n)``: MIN and MAX fold in one sweep over the sorted
  values of all the ``x_i``;
* :func:`compare_convolve` gives the distribution of ``[x theta y]``
  over the semiring's 0 and 1, in one sorted sweep for the order
  comparisons and one lookup per value for ``=`` and ``!=``;
* :func:`mix` combines distributions of mutually exclusive cases,
  weighted by the case probabilities.

Probabilities are 64-bit floats.  ``MASS_TOL`` is the absolute
tolerance of every mass check.  Every combinator drops the outcomes
whose probability is at most ``PRUNE_EPS``, which keeps supports small.

``Distribution(...)`` sorts and checks its entries, for input from
outside such as probability files.  The combinators build their results
with ``Distribution._sorted``, which does neither: their entries are
sorted, unique and positive by construction.
"""

from __future__ import annotations

import math

from .algebra import INF, NEG_INF, U64_MAX
from .errors import (
    LengthMismatch,
    UnorderedCarrier,
    WeightSumOutOfTolerance,
)

#: Absolute tolerance for all probability-mass equality checks.
MASS_TOL = 1e-9

#: Entries with probability at most this are pruned after combinations.
PRUNE_EPS = 1e-15

#: The range in which :func:`extreme_fold` lets its running product's
#: mantissa drift before it moves the mantissa's exponent into its own
#: integer: wide enough to renormalise rarely, narrow enough that a
#: factor down to about 1e-200 cannot push it out of the normal floats.
_MANT_LOW, _MANT_HIGH = 2.0**-300, 2.0**300

#: How many multiply-adds of the dense list :func:`sum_fold` may spend
#: per pair the pairwise fold would take.  Timed under CPython 3.11 on
#: an Intel Xeon (``BENCH_convolution_kernels.json``), the list is as
#: fast as the pairwise fold at about 3 to 4 cells per pair on folds of
#: two-point summands, and at about 2 on three-point summands.
_DENSE_PAIR_RATIO = 2


class Distribution:
    """An immutable finite map from carrier values to probabilities.

    Entries are (value, probability) pairs sorted by value, with all
    probabilities strictly positive and no duplicate values.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(sorted(entries))
        seen = None
        for value, p in self.entries:
            if p <= 0:
                raise ValueError("non-positive probability %r for %r" % (p, value))
            if seen is not None and value == seen:
                raise ValueError("duplicate value %r" % (value,))
            seen = value

    @classmethod
    def _sorted(cls, entries):
        """A distribution of entries that are already sorted by value,
        unique and positive; nothing is checked."""
        d = object.__new__(cls)
        d.entries = tuple(entries)
        return d

    @classmethod
    def from_pairs(cls, pairs):
        """Accumulate possibly repeated (value, probability) pairs."""
        acc = {}
        for value, p in pairs:
            acc[value] = acc.get(value, 0.0) + p
        return cls._sorted(_kept(acc))

    @classmethod
    def point(cls, value):
        return cls._sorted(((value, 1.0),))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Distribution(%r)" % (list(self.entries),)

    def __getitem__(self, value):
        for v, p in self.entries:
            if v == value:
                return p
        return 0.0

    @property
    def support(self):
        return tuple(v for v, _ in self.entries)

    def total_mass(self):
        return sum([p for _, p in self.entries])

    def is_normalized(self, tol=MASS_TOL):
        return abs(self.total_mass() - 1.0) <= tol

    def check_normalized(self, tol=MASS_TOL, what="distribution"):
        mass = self.total_mass()
        if abs(mass - 1.0) > tol:
            raise WeightSumOutOfTolerance(
                "%s has total mass %.12g, expected 1" % (what, mass)
            )
        return self

    def close_to(self, other, tol=MASS_TOL):
        """True when both distributions assign the same mass to every
        value within the tolerance."""
        values = {v for v, _ in self.entries} | {v for v, _ in other.entries}
        return all(abs(self[v] - other[v]) <= tol for v in values)


def _kept(acc):
    """The sorted entries of a value-to-mass dict above ``PRUNE_EPS``."""
    return sorted([item for item in acc.items() if item[1] > PRUNE_EPS])


def convolve(p, q, op):
    """Distribution of ``op(x, y)`` for independent x ~ p and y ~ q.

    Restricted to pairs of non-zero probability, so the result is finite
    whenever the inputs are.  Total mass is the product of the input
    masses.
    """
    acc = {}
    for a, pa in p.entries:
        for b, qb in q.entries:
            c = op(a, b)
            acc[c] = acc.get(c, 0.0) + pa * qb
    return Distribution._sorted(_kept(acc))


def _dense_pays(dists):
    """Whether one dense list is the cheaper way to add up ``dists``:
    the supports are integral (monoid values are integers or infinities,
    and infinities sort to the ends), the largest sum fits in 64 bits,
    and the list's multiply-adds stay within ``_DENSE_PAIR_RATIO`` times
    the pairs of the pairwise fold.  Both counts are bounds taken from
    the supports alone: the list spans every sum between the least and
    the largest, the pairwise support at most that many or the product
    of the sizes."""
    span = size = 1
    pairs = cells = top = 0
    for d in dists:
        if not d.entries:
            return False
        low, high = d.entries[0][0], d.entries[-1][0]
        if type(low) is not int or type(high) is not int:
            return False
        k = len(d.entries)
        pairs += size * k
        cells += span * k
        span += high - low
        size = min(size * k, span)
        top += high
    return top <= U64_MAX and cells <= _DENSE_PAIR_RATIO * pairs


def sum_fold(dists):
    """Distribution of ``x_1 + ... + x_n`` for independent x_i ~ dists,
    or None when :func:`_dense_pays` says the pairwise fold is cheaper.

    The mass of each sum is kept in one list indexed by the sum minus
    the least one so far.  A two-point summand ``{a: q0, a+s: q1}`` is
    one zipped pass, ``new[k] = acc[k] q0 + acc[k-s] q1``; any other
    adds one scaled, shifted copy of the list per value.  Each step
    trims the entries at either end that are at most ``PRUNE_EPS``, as
    the pairwise fold would drop them.
    """
    if not _dense_pays(dists):
        return None
    acc = [1.0]
    base = 0
    for d in dists:
        entries = d.entries
        low = entries[0][0]
        base += low
        if len(entries) == 2:
            (_, q0), (high, q1) = entries
            s = high - low
            if s < len(acc):
                new = [a * q0 for a in acc[:s]]
                new += [a * q0 + b * q1 for a, b in zip(acc[s:], acc)]
                new += [b * q1 for b in acc[-s:]]
            else:
                new = [a * q0 for a in acc] + [0.0] * (s - len(acc))
                new += [b * q1 for b in acc]
            acc = new
        else:
            n = len(acc)
            new = [0.0] * (n + entries[-1][0] - low)
            for v, q in entries:
                k = v - low
                new[k : k + n] = [c + a * q for c, a in zip(new[k : k + n], acc)]
            acc = new
        end = len(acc)
        while end and acc[end - 1] <= PRUNE_EPS:
            end -= 1
        start = 0
        while start < end and acc[start] <= PRUNE_EPS:
            start += 1
        if start or end < len(acc):
            acc = acc[start:end]
            base += start
    return Distribution._sorted(
        (base + k, m) for k, m in enumerate(acc) if m > PRUNE_EPS
    )


def boolean_fold(dists, disjunction):
    """Distribution of ``x_1 or ... or x_n`` when ``disjunction``, else
    ``x_1 and ... and x_n``, for independent semiring values x_i ~ dists
    (0 is false, any other value true).

    One loop carries the mass at 0 and the mass at 1 of the fold so far:
    the disjunction is 0 only when both sides are, and the conjunction
    is 1 only when both sides are, so this is :func:`extreme_fold` on
    {0, 1} (MAX for the disjunction), with no ``total - part``
    difference to leave a rounding residue.  Sub-normalised inputs give
    a result of mass the product of theirs.
    """
    lo, hi = (1.0, 0.0) if disjunction else (0.0, 1.0)
    for d in dists:
        z = t = 0.0
        for v, p in d.entries:
            if v:
                t += p
            else:
                z += p
        if disjunction:
            lo, hi = lo * z, hi * (z + t) + lo * t
        else:
            lo, hi = lo * (z + t) + hi * z, hi * t
    entries = []
    if lo > PRUNE_EPS:
        entries.append((0, lo))
    if hi > PRUNE_EPS:
        entries.append((1, hi))
    return Distribution._sorted(entries)


def extreme_fold(dists, largest):
    """Distribution of ``max(x_1, ..., x_n)`` when ``largest``, else
    ``min(x_1, ..., x_n)``, for independent x_i ~ dists, in one sort of
    all the children's entries and one sweep over them.

    The sweep runs from the neutral end (the least value for MAX) and
    keeps each child's mass swept past so far, F_i, and the product of
    those that are non-zero, with a count of the children still at 0.
    Raising F_i from f to f + p at value v raises the product of all the
    F by p times the product of the others, so the mass of v is the sum
    of those terms over the children that take v, taken in turn: the
    children before i are at most v, those after i below v, as is every
    child that does not take v.  Only products and sums of
    non-negative terms appear, no ``total - part`` difference.  The
    product is kept as a mantissa and a power of two, so that it does
    not underflow over thousands of children whose values come later.
    Entries at most ``PRUNE_EPS`` are dropped once, at the end.
    Sub-normalised inputs give a result of mass the product of theirs.
    """
    items = [(v, i, p) for i, d in enumerate(dists) for v, p in d.entries]
    items.sort(reverse=not largest)
    past = [0.0] * len(dists)
    zeros = len(dists)
    mant, exp, scale = 1.0, 0, 1.0
    out = []
    value, mass = items[0][0] if items else None, 0.0
    for v, i, p in items:
        if v != value:
            if mass > PRUNE_EPS:
                out.append((value, mass))
            value, mass = v, 0.0
        f = past[i]
        if f:
            others = mant / f
        else:
            others = mant
            zeros -= 1
        if not zeros:
            mass += p * others * scale
        f += p
        past[i] = f
        mant = others * f
        if not _MANT_LOW < mant < _MANT_HIGH:
            mant, shift = math.frexp(mant)
            exp += shift
            scale = math.ldexp(1.0, exp)
    if mass > PRUNE_EPS:
        out.append((value, mass))
    if not largest:
        out.reverse()
    return Distribution._sorted(out)


def _mass_at_or_above(upper, lower, strict):
    """Mass of the pairs of independent u ~ upper, l ~ lower (sorted
    entries) with ``l < u`` when ``strict``, else ``l <= u``: one sweep
    with the running mass of the ``lower`` values passed."""
    total = passed = 0.0
    j, n = 0, len(lower)
    for u, pu in upper:
        while j < n and (lower[j][0] < u or (not strict and lower[j][0] == u)):
            passed += lower[j][1]
            j += 1
        total += pu * passed
    return total


def compare_convolve(p, q, theta):
    """Distribution over {0, 1} of ``[x theta y]`` for independent x, y.

    An order comparison is one sweep over the sorted supports; ``=`` and
    ``!=`` need only the mass of the values both sides share.
    """
    total = p.total_mass() * q.total_mass()
    if theta in ("=", "!="):
        other = dict(q.entries)
        equal = sum(pa * other.get(a, 0.0) for a, pa in p.entries)
        if theta == "=":
            true_mass, false_mass = equal, total - equal
        else:
            true_mass, false_mass = total - equal, equal
    elif theta in ("<=", ">=", "<", ">"):
        for v, _ in p.entries[:1] + q.entries[:1]:
            if isinstance(v, tuple):
                raise UnorderedCarrier(
                    "order comparison %r on tuple-valued carrier" % theta
                )
        if theta in (">=", ">"):
            true_mass = _mass_at_or_above(p.entries, q.entries, theta == ">")
        else:
            true_mass = _mass_at_or_above(q.entries, p.entries, theta == "<")
        false_mass = total - true_mass
    else:
        raise ValueError("unknown comparison operator %r" % theta)
    entries = []
    if false_mass > PRUNE_EPS:
        entries.append((0, false_mass))
    if true_mass > PRUNE_EPS:
        entries.append((1, true_mass))
    return Distribution._sorted(entries)


def mix(weights, children):
    """Weighted mixture of distributions of mutually exclusive cases.

    The weights must be positive and sum to 1 within ``MASS_TOL``; all
    children must share one carrier.
    """
    if len(weights) != len(children):
        raise LengthMismatch(
            "%d weights for %d children" % (len(weights), len(children))
        )
    total = sum(weights)
    if abs(total - 1.0) > MASS_TOL:
        raise WeightSumOutOfTolerance("mixture weights sum to %.12g" % total)
    if any(w <= 0 for w in weights):
        raise WeightSumOutOfTolerance("mixture weights must be positive")
    acc = {}
    for w, child in zip(weights, children):
        for v, p in child.entries:
            acc[v] = acc.get(v, 0.0) + w * p
    return Distribution._sorted(_kept(acc))


# ---------------------------------------------------------------------------
# Serialization: sorted `value<TAB>probability` lines
# ---------------------------------------------------------------------------


def format_value(value):
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    if value == INF:
        return "+inf"
    if value == NEG_INF:
        return "-inf"
    return str(value)


def format_distribution(d):
    return "".join("%s\t%.12g\n" % (format_value(v), p) for v, p in d.entries)


def _parse_value(text):
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(","))
    if text == "+inf":
        return INF
    if text == "-inf":
        return NEG_INF
    return int(text)


def parse_distribution(text):
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        value, prob = line.split("\t")
        entries.append((_parse_value(value), float(prob)))
    return Distribution(entries)
