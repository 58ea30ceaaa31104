"""One term per clause in MIN/MAX conditionals: ``dtree.prune`` rewrites
``(Φ + Ψ) (x) v`` as ``Φ (x) v + Ψ (x) v``, and the linear
``dtree.connected_groups`` that the split clauses lean on."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcdb import algebra as alg
from pvcdb import dtree
from pvcdb.algebra import Add, Cmp, Const, MConst, MonoidKind, Scaled, SemiringKind, Var
from pvcdb.dtree import distribution, mutex_count, prune
from pvcdb.exprtext import parse_expr
from pvcdb.oracle import brute_distribution
from pvcdb.prob import Distribution

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL

# Deterministic, with no example database written next to the tests.
SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)


def coin(p):
    return Distribution([(0, 1 - p), (1, p)])


@st.composite
def conditionals(draw):
    """``[min{…} θ c]`` or MAX, bound on either side, over 2 to 5
    variables (0/1/2-valued ones under NATURAL), and its semiring and
    distributions.  Weights are sums of clauses drawn from one small
    pool, so clauses recur within a weight and across terms; some are
    constants, and the sum sometimes has a constant part."""
    sk = draw(st.sampled_from([B, N]))
    names = ["x%d" % i for i in range(draw(st.integers(2, 5)))]
    dists = {}
    for n in names:
        if sk is N and draw(st.booleans()):
            w = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
            dists[n] = Distribution((k, w[k] / sum(w)) for k in range(3))
        else:
            dists[n] = coin(draw(st.floats(0.05, 0.95)))
    var = st.sampled_from(names).map(Var)
    clause = st.one_of(
        var,
        st.lists(var, min_size=2, max_size=2).map(alg.make_product),
        st.sampled_from([Const(1), Const(2)] if sk is N else [Const(1)]),
    )
    pool = draw(st.lists(clause, min_size=1, max_size=4))
    kind = draw(st.sampled_from([MonoidKind.MIN, MonoidKind.MAX]))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        clauses = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        weight = alg.make_sum(clauses)
        if weight.mask:  # Scaled as such, so a constant clause stays inside
            terms.append(Scaled(kind, weight, draw(st.integers(0, 8))))
    if not terms or draw(st.integers(0, 3)) == 0:
        terms.append(MConst(kind, draw(st.integers(0, 8))))
    body = alg.make_msum(kind, terms)
    bound = MConst(kind, draw(st.integers(0, 8)))
    theta = draw(st.sampled_from(alg.THETAS))
    if draw(st.booleans()):
        return Cmp(body, theta, bound), sk, dists
    return Cmp(bound, theta, body), sk, dists


def _monoid_sides(expr):
    if type(expr) is not Cmp:
        return []
    return [s for s in (expr.left, expr.right) if isinstance(s, alg.MExpr)]


class TestClauseTerms:
    @SETTINGS
    @given(conditionals())
    def test_prune_agrees_with_enumeration(self, case):
        cond, sk, dists = case
        out = prune(cond, sk, dists)
        got = distribution(dtree.compile(out, dists, sk), sk)
        assert got.close_to(brute_distribution(cond, dists, sk), 1e-9), (cond, out)
        for side in _monoid_sides(out):
            for t in alg.sum_parts(side):
                assert not (type(t) is Scaled and type(t.weight) is Add), out
        assert prune(out, sk, dists) is out

    def test_one_term_per_clause_repeats_dropped(self):
        # 3 and 4 share the class of values <= 5, so both terms scale by
        # 3, and the clause z then appears twice.  Under B the one class
        # left makes the conditional the disjunction of the clauses.
        cond = parse_expr("[min{(x*y + z)(x)3 + (z + w)(x)4} <= 5]")
        assert prune(cond, N) is parse_expr("[min{x*y(x)3 + z(x)3 + w(x)3} <= 5]")
        assert prune(cond, B) is parse_expr("[x*y + z + w != 0]")
        cond = parse_expr("[max{(x + y)(x)7 + z(x)1} > 5]")
        assert prune(cond, N) is parse_expr("[max{x(x)7 + y(x)7} > 5]")
        assert prune(cond, B) is parse_expr("[x + y != 0]")

    def test_constant_clause_decides(self):
        # (1 + x) is non-zero under every valuation, so its term is the
        # value itself, which absorbs the larger ones and decides.
        cond = Cmp(
            alg.make_msum(MonoidKind.MIN, [Scaled(MonoidKind.MIN, Add([Const(1), Var("x")]), 2),
                                           Scaled(MonoidKind.MIN, Var("y"), 3)]),
            "<=",
            MConst(MonoidKind.MIN, 5),
        )
        assert prune(cond) == Const(1)

    @pytest.mark.parametrize("text", ["[sum{(x + y)(x)3} >= 3]", "[count{(x + y)(x)1} = 1]"])
    def test_sum_and_count_weights_kept_whole(self, text):
        # Under B, [x + y] is 1 when both are, so SUM and COUNT cannot
        # split a clause sum: (x + y) (x) 3 is 3, not 6.
        cond = parse_expr(text)
        assert prune(cond, B) is cond

    @pytest.mark.parametrize("seed,parent_mutex", [(2, 88), (4, 234)])
    def test_cond_minmax_shape_halves_case_splits(self, seed, parent_mutex):
        # The shape of the benchmark's cond_minmax ops: 30 terms of 3
        # clauses of 3 of 25 variables, 6 of them within the bound.
        # ``parent_mutex`` is the tree's mutex count when each term kept
        # its clause sum whole.
        cond, dists = _cond_minmax_shape(seed)
        tree = dtree.compile(dtree.prune_all(cond, B, dists), dists, B)
        assert mutex_count(tree) <= parent_mutex // 2
        want = distribution(dtree.compile(cond, dists, B), B)
        assert distribution(tree, B).close_to(want, 1e-12)


def _cond_minmax_shape(seed, c=30, survivors=6, count=30, num_vars=25):
    rng = random.Random(seed)

    def term(lo, hi):
        clauses = [
            "*".join("x%d" % i for i in sorted(rng.sample(range(num_vars), 3)))
            for _ in range(3)
        ]
        return "(%s)(x)%d" % (" + ".join(clauses), rng.randint(lo, hi))

    terms = [term(0, c) for _ in range(survivors)]
    terms += [term(c + 1, 100) for _ in range(count - survivors)]
    rng.shuffle(terms)
    dists = {"x%d" % i: coin(rng.randint(100, 900) / 1000) for i in range(num_vars)}
    return parse_expr("[min{%s} <= %d]" % (" + ".join(terms), c)), dists


def _components(keyed):
    """Connected components by breadth-first search, as sets of items."""
    left = dict(keyed)
    out = []
    while left:
        item, mask = next(iter(left.items()))
        del left[item]
        group, frontier = {item}, mask
        grown = True
        while grown:
            grown = False
            for other, m in list(left.items()):
                if m & frontier:
                    group.add(other)
                    frontier |= m
                    del left[other]
                    grown = True
        out.append(frozenset(group))
    return set(out)


class TestConnectedGroups:
    @SETTINGS
    @given(st.lists(st.integers(0, 255), max_size=12), st.booleans())
    def test_matches_search(self, masks, pool):
        keyed = list(enumerate(masks))
        groups = dtree.connected_groups(keyed, pool_keyless=pool)
        assert sorted(i for g in groups for i in g) == list(range(len(masks)))
        for g in groups:
            assert g == sorted(g)
        keyless = [i for i, m in keyed if not m]
        if pool and keyless:
            assert groups[-1] == keyless
            groups = groups[:-1]
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)
        keyed_groups = {frozenset(g) for g in groups if keyed[g[0]][1]}
        assert keyed_groups == _components([(i, m) for i, m in keyed if m])

    @staticmethod
    def _chain(n, units_first):
        units = ["x%d(x)%d" % (i, i) for i in range(n)]
        pairs = ["x%d*x%d(x)1000" % (i, i + 1) for i in range(n - 1)]
        terms = units + pairs if units_first else pairs + units
        return parse_expr("min{%s}" % " + ".join(terms))

    def test_chain_term_orders_agree(self):
        # min{x_i (x) i + x_i*x_i+1 (x) 1000}: with the one-variable
        # terms first, n groups form before the pairs join them.
        n = 12
        dists = {"x%d" % i: coin(0.3 + 0.03 * i) for i in range(n)}
        seen = []
        for units_first in (True, False):
            gc.collect()  # the other order's interned nodes must be gone
            expr = self._chain(n, units_first)
            first = alg.sum_parts(expr)[0]
            assert (type(first.weight) is Var) is units_first
            keyed = [(t, t.mask) for t in alg.sum_parts(expr)]
            groups = dtree.connected_groups(keyed)
            cut = alg.substitute(expr, "x5", 0)
            cut_groups = dtree.connected_groups([(t, t.mask) for t in alg.sum_parts(cut)])
            tree = dtree.compile(expr, dists)
            seen.append((
                [{str(t) for t in g} for g in groups],
                sorted(sorted(str(t) for t in g) for g in cut_groups),
                list(dtree.tree_lines(tree)),
                distribution(tree).entries,
            ))
            assert distribution(tree).close_to(brute_distribution(expr, dists, B), 1e-12)
            del expr, first, keyed, groups, cut, cut_groups, tree
        assert len(seen[0][0]) == 1
        assert len(seen[0][1]) == 2
        assert seen[0] == seen[1]
