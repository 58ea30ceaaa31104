"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured figures so a plain
``pytest -s tests/test_acceptance.py`` doubles as the acceptance report.
Worked-example values are pinned to 1e-12; everything compared against
the brute-force oracle uses 1e-9.  Criterion 9 checks qualitative curve
shapes of the benchmark harness; its timing assertions carry wide noise
margins and the deterministic node-count assertions do the gating.
"""

import pathlib
import random
import time

import numpy as np
import pytest

from pvcdb import algebra as alg
from pvcdb import cli, dtree
from pvcdb.algebra import Cmp, Const, INF, MConst, MonoidKind, SemiringKind, Var
from pvcdb.engine import answer_distributions, evaluate
from pvcdb.exprtext import parse_expr
from pvcdb.oracle import brute_distribution, brute_query
from pvcdb.prob import Distribution
from pvcdb.pvc import CONST, PvcDatabase, PvcTable
from pvcdb.tractability import Q_HIE, Q_IND, classify

from normal_form import equivalent

B = SemiringKind.BOOLEAN
N = SemiringKind.NATURAL

TOL = 1e-9
TOL_EXACT = 1e-12

SHOPS = pathlib.Path(__file__).parent / "data" / "shops"
SHOP_TABLES = [SHOPS / n for n in ("S.tsv", "PS.tsv", "P1.tsv", "P2.tsv")]


def _report(criterion, message):
    print("ACCEPTANCE %-2s PASS  %s" % (criterion, message))


def coin(p=0.5):
    return Distribution([(0, 1 - p), (1, p)])


def close(a, b, tol):
    values = {v for v, _ in a} | {v for v, _ in b}
    return all(abs(a[v] - b[v]) <= tol for v in values)


# -----------------------------------------------------------------------
# 1. End-to-end annotation construction on the worked shops database
# -----------------------------------------------------------------------

Q1_EXPECTED = {
    ("M&S", 10): "x1*y11*(z1 + z5)",
    ("M&S", 50): "x1*y12*z2",
    ("M&S", 11): "x2*y21*(z1 + z5)",
    ("M&S", 60): "x2*y22*z2",
    ("M&S", 15): "x3*y33*z3",
    ("M&S", 40): "x3*y34*z4",
    ("Gap", 15): "x4*y41*(z1 + z5)",
    ("Gap", 60): "x4*y43*z3",
    ("Gap", 10): "x5*y51*(z1 + z5)",
}

ALPHA_MS = (
    "max{x1*y11*(z1 + z5)(x)10 + x1*y12*z2(x)50 + x2*y21*(z1 + z5)(x)11"
    " + x2*y22*z2(x)60 + x3*y33*z3(x)15 + x3*y34*z4(x)40}"
)
PSI_1 = (
    "[x1*y11*(z1 + z5) + x1*y12*z2 + x2*y21*(z1 + z5) + x2*y22*z2"
    " + x3*y33*z3 + x3*y34*z4 != 0]"
)
ALPHA_GAP = "max{x4*y41*(z1 + z5)(x)15 + x4*y43*z3(x)60 + x5*y51*(z1 + z5)(x)10}"
PSI_2 = "[x4*y41*(z1 + z5) + x4*y43*z3 + x5*y51*(z1 + z5) != 0]"


def test_c01_shops_end_to_end():
    start = time.perf_counter()
    db = cli.load_database(SHOP_TABLES, SHOPS / "probs.tsv", "bool")
    q1 = cli.parse_query((SHOPS / "q1.txt").read_text().strip())
    q2 = cli.parse_query((SHOPS / "q2.txt").read_text().strip())
    out1 = evaluate(q1, db)
    assert len(out1.rows) == 9
    for values, phi in out1.rows:
        assert equivalent(phi, parse_expr(Q1_EXPECTED[values])), values
    _, answers = answer_distributions(q2, db, want_joint=False)
    by_shop = {row.values: row.phi for row in answers}
    expected_ms = alg.make_product(
        [parse_expr(PSI_1), parse_expr("[%s <= 50]" % ALPHA_MS)]
    )
    expected_gap = alg.make_product(
        [parse_expr(PSI_2), parse_expr("[%s <= 50]" % ALPHA_GAP)]
    )
    assert equivalent(by_shop[("M&S",)], expected_ms)
    assert equivalent(by_shop[("Gap",)], expected_gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "9 + 2 annotations match the worked tables; %.3f s" % elapsed)


# -----------------------------------------------------------------------
# 2. Worked scaling-convolution numbers, exact to 1e-12
# -----------------------------------------------------------------------


def test_c02_scaling_numbers():
    dists = {
        "x": Distribution([(0, 0.3), (1, 0.3), (2, 0.4)]),
        "y": Distribution([(1, 0.4), (2, 0.4), (3, 0.2)]),
    }
    alpha = parse_expr("sum{y(x)5}")
    expected = Distribution([(5, 0.4), (10, 0.4), (15, 0.2)])
    via_oracle = brute_distribution(alpha, dists, N)
    via_tree = dtree.distribution(dtree.compile(alpha, dists, N), N)
    assert close(via_oracle, expected, TOL_EXACT)
    assert close(via_tree, expected, TOL_EXACT)

    scaled = parse_expr("sum{x*y(x)5}")
    via_oracle = brute_distribution(scaled, dists, N)
    via_tree = dtree.distribution(dtree.compile(scaled, dists, N), N)
    assert abs(via_oracle[10] - 0.28) <= TOL_EXACT
    assert abs(via_tree[10] - 0.28) <= TOL_EXACT
    assert close(via_oracle, via_tree, TOL_EXACT)
    _report(2, "scaled aggregate distributions exact; P[10] = 0.28")


# -----------------------------------------------------------------------
# 3. Worked case-split distribution tables, exact to 1e-12
# -----------------------------------------------------------------------


def test_c03_case_split_tables():
    pa, pb, pc = 0.6, 0.3, 0.8
    qa, qb, qc = 1 - pa, 1 - pb, 1 - pc
    dists = {
        "a": Distribution([(1, pa), (2, qa)]),
        "b": Distribution([(1, pb), (2, qb)]),
        "c": Distribution([(1, pc), (2, qc)]),
    }
    total = parse_expr("sum{a*(b + c)(x)10 + c(x)20}")
    out = dtree.distribution(dtree.compile(total, dists, N), N)
    expected = {
        40: pa * pb * pc,
        50: pa * qb * pc,
        60: qa * pb * pc,
        70: pa * pb * qc,
        80: qa * qb * pc + pa * qb * qc,
        100: qa * pb * qc,
        120: qa * qb * qc,
    }
    assert len(out) == 7
    for value, mass in expected.items():
        assert abs(out[value] - mass) <= TOL_EXACT

    low = parse_expr("min{a*(b + c)(x)10 + c(x)20}")
    out_min = dtree.distribution(dtree.compile(low, dists, N), N)
    assert out_min.entries == ((10, 1.0),)

    bool_dists = {"a": coin(0.6), "b": coin(0.3), "c": coin(0.8)}
    out_bool = dtree.distribution(dtree.compile(low, bool_dists, B), B)
    ra, rb, rc = 0.6, 0.3, 0.8
    frozen = {
        10: rc * ra + (1 - rc) * ra * rb,
        20: rc * (1 - ra),
        INF: (1 - rc) * (1 - ra * rb),
    }
    assert len(out_bool) == 3
    for value, mass in frozen.items():
        assert abs(out_bool[value] - mass) <= TOL_EXACT
    assert close(out_bool, brute_distribution(low, bool_dists, B), TOL)
    _report(3, "7-entry sum table, point min table and 3-entry set-min table exact")


# -----------------------------------------------------------------------
# 4. Oracle equivalence over 200 random conditional expressions
# -----------------------------------------------------------------------


def test_c04_oracle_equivalence_sweep():
    kinds = [MonoidKind.MIN, MonoidKind.MAX, MonoidKind.SUM, MonoidKind.COUNT]
    rng = random.Random(20260808)
    start = time.perf_counter()
    for i in range(200):
        nv = rng.randint(2, 12)
        params = cli.GenParams(
            terms_left=rng.randint(1, 10),
            terms_right=0 if i % 2 == 0 else rng.randint(1, 5),
            agg_left=rng.choice(kinds),
            agg_right=rng.choice(kinds),
            num_vars=nv,
            clauses=rng.randint(1, 3),
            literals=rng.randint(1, min(3, nv)),
            maxv=rng.randint(3, 20),
            c=rng.randint(0, 25),
            theta=rng.choice(["<=", ">=", "="]),
            seed=1000 + i,
            runs=1,
        )
        expr = cli.gen_expression(params)
        dists = cli.gen_var_dists(params)
        pruned = dtree.prune_all(expr, B, dists)
        tree = dtree.compile(pruned, dists, B)
        got = dtree.distribution(tree, B)
        want = brute_distribution(expr, dists, B)
        assert close(got, want, TOL), (i, params)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(4, "200 seeded expressions match the oracle; %.1f s" % elapsed)


# -----------------------------------------------------------------------
# 5. Boolean reduction preserves MIN/MAX distributions
# -----------------------------------------------------------------------


def _random_minmax(rng, names, kind):
    terms = []
    for _ in range(rng.randint(2, 5)):
        clause = alg.make_product(
            [Var(rng.choice(names)) for _ in range(rng.randint(1, 2))]
        )
        if rng.random() < 0.4:
            clause = alg.make_sum([clause, Var(rng.choice(names))])
        terms.append(alg.make_scaled(kind, clause, rng.randint(0, 15)))
    return alg.make_msum(kind, terms)


def test_c05_boolean_reduction():
    rng = random.Random(515151)
    supports = ([(0, 0.3), (1, 0.3), (2, 0.4)], [(0, 0.5), (3, 0.5)], [(0, 0.2), (1, 0.8)])
    for case in range(50):
        kind = MonoidKind.MIN if case % 2 == 0 else MonoidKind.MAX
        names = ["v%d" % i for i in range(rng.randint(3, 8))]
        expr = _random_minmax(rng, names, kind)
        dists = {n: Distribution(rng.choice(supports)) for n in names}
        plain = dtree.distribution(dtree.compile(expr, dists, N), N)
        bexpr, bdists = dtree.reduce_to_boolean(expr, dists)
        reduced = dtree.distribution(dtree.compile(bexpr, bdists, B), B)
        oracle = brute_distribution(expr, dists, N)
        assert close(plain, reduced, TOL), case
        assert close(plain, oracle, TOL), case
    _report(5, "50 reduced pipelines equal the plain pipeline and the oracle")


# -----------------------------------------------------------------------
# 6. Bounded-aggregation support sizes and polynomial runtime
# -----------------------------------------------------------------------


def _count_expr(n):
    return alg.make_msum(
        MonoidKind.COUNT,
        [alg.make_scaled(MonoidKind.COUNT, Var("x%d" % i), 1) for i in range(n)],
    )


def _bounded_sum_expr(n, rng):
    return alg.make_msum(
        MonoidKind.SUM,
        [
            alg.make_scaled(MonoidKind.SUM, Var("x%d" % i), rng.randint(0, 5))
            for i in range(n)
        ],
    )


def _time_count_pipeline(n, dists, reps=3):
    expr = _count_expr(n)
    best = []
    for _ in range(reps):
        t0 = time.perf_counter()
        tree = dtree.compile(expr, dists, B)
        dtree.distribution(tree, B)
        best.append(time.perf_counter() - t0)
    return sum(best) / len(best)


def test_c06_bounded_aggregation():
    rng = random.Random(66)
    dists = {"x%d" % i: coin(rng.uniform(0.3, 0.7)) for i in range(200)}
    for n in (10, 50, 200):
        out = dtree.distribution(dtree.compile(_count_expr(n), dists, B), B)
        assert len(out) <= n + 1, n
        out = dtree.distribution(dtree.compile(_bounded_sum_expr(n, rng), dists, B), B)
        assert len(out) <= 5 * n + 1, n
    sizes = [10, 25, 50, 75, 100, 150, 200]
    times = [_time_count_pipeline(n, dists) for n in sizes]
    coeffs = np.polyfit(sizes, times, 3)
    fitted = np.polyval(coeffs, sizes)
    residual = float(np.sum((np.array(times) - fitted) ** 2))
    total = float(np.sum((np.array(times) - np.mean(times)) ** 2))
    r2 = 1.0 - residual / total
    assert r2 >= 0.95, (r2, times)
    _report(
        6,
        "support caps hold; cubic fit of times has R^2 = %.4f (n=200: %.1f ms)"
        % (r2, times[-1] * 1000),
    )


# -----------------------------------------------------------------------
# 7. Pruning soundness over random conditionals
# -----------------------------------------------------------------------


def test_c07_pruning_soundness():
    rng = random.Random(77)
    collapsed_to_true = 0
    for case in range(100):
        kind = MonoidKind.MIN if case % 2 == 0 else MonoidKind.SUM
        names = ["v%d" % i for i in range(rng.randint(2, 6))]
        terms = []
        for _ in range(rng.randint(1, 5)):
            clause = alg.make_product(
                [Var(rng.choice(names)) for _ in range(rng.randint(1, 2))]
            )
            terms.append(alg.make_scaled(kind, clause, rng.randint(0, 12)))
        cond = Cmp(
            alg.make_msum(kind, terms),
            rng.choice(("<=", ">=", "<", ">", "=", "!=")),
            MConst(kind, rng.randint(0, 40)),
        )
        dists = {n: coin(rng.uniform(0.2, 0.8)) for n in names}
        pruned = dtree.prune(cond, B, dists)
        if kind is MonoidKind.SUM and pruned == Const(1):
            collapsed_to_true += 1
        got = dtree.distribution(dtree.compile(pruned, dists, B), B)
        want = dtree.distribution(dtree.compile(cond, dists, B), B)
        assert close(got, want, TOL), case
    assert collapsed_to_true >= 1
    _report(7, "100 pruned conditionals agree; %d sum cases forced true" % collapsed_to_true)


# -----------------------------------------------------------------------
# 8. Hierarchical fast path: read-once compilation and classification
# -----------------------------------------------------------------------

HIE_QUERY = (
    "agg[; total<-sum(price)]"
    "(select[shop='M&S',sid=sid2](product(S,rename[sid2<-sid](PS))))"
)


def test_c08_hierarchical_fast_path():
    db = cli.load_database(SHOP_TABLES, SHOPS / "probs.tsv", "nat")
    plan = cli.parse_query(HIE_QUERY)
    assert classify(plan, db) == Q_HIE
    assert classify(cli.parse_query("S"), db) == Q_IND

    table, answers = answer_distributions(plan, db)
    row = answers[0]
    cell_tree = dtree.compile(row.values[0], db.var_dists, db.sk)
    assert dtree.mutex_count(cell_tree) == 0

    brute = brute_query(plan, db, limit=2**14)
    want = brute[()]
    got = {}
    for value, p in row.joint:
        if value[0] == 0:
            value = (0,) * len(value)
        got[value] = got.get(value, 0.0) + p
    outcomes = set(got) | {v for v, _ in want}
    assert all(abs(got.get(v, 0.0) - want[v]) <= TOL for v in outcomes)
    _report(
        8,
        "hierarchical aggregate classified Q_hie, compiled with 0 case splits, "
        "matches the %d-world enumeration" % (2**14),
    )


# -----------------------------------------------------------------------
# 9. Benchmark curve shapes (qualitative, wide noise margins)
# -----------------------------------------------------------------------


def test_c09_benchmark_curves():
    base = cli.GenParams(
        terms_left=50,
        terms_right=0,
        agg_left=MonoidKind.MIN,
        num_vars=25,
        clauses=3,
        literals=3,
        maxv=50,
        theta="<=",
        runs=3,
        seed=71,
    )
    cs = [0, 12, 25, 50, 62]
    rows = cli.run_benchmark(base, "c", cs)
    times = [r["mean_ms"] for r in rows]
    nodes = [r["nodes"] for r in rows]
    print("  bound sweep:", ", ".join("c=%d: %.0f ms/%d nodes" % (c, t, n)
                                      for c, t, n in zip(cs, times, nodes)))
    for i in range(len(nodes) - 1):
        assert nodes[i + 1] >= nodes[i], nodes
    assert abs(nodes[-1] - nodes[-2]) <= 2, nodes
    for i in range(len(times) - 1):
        assert times[i + 1] >= 0.5 * times[i], times
    assert times[3] > 3 * times[0], times
    assert abs(times[-1] - times[-2]) <= 0.5 * max(times[-2:]), times

    base = cli.GenParams(
        terms_left=12,
        terms_right=0,
        agg_left=MonoidKind.MIN,
        num_vars=25,
        clauses=2,
        literals=2,
        maxv=50,
        c=25,
        theta="<=",
        runs=5,
        seed=91,
    )
    nvs = [2, 4, 8, 12, 20, 32, 64]
    rows = cli.run_benchmark(base, "num_vars", nvs)
    times = [r["mean_ms"] for r in rows]
    nodes = [r["nodes"] for r in rows]
    print("  variable sweep:", ", ".join("#v=%d: %.2f ms/%d nodes" % (v, t, n)
                                         for v, t, n in zip(nvs, times, nodes)))
    peak = nodes.index(max(nodes))
    assert 0 < peak < len(nodes) - 1, nodes
    tmax = max(times)
    assert times.index(tmax) not in (0, len(times) - 1), times
    assert tmax >= 1.3 * max(times[0], times[-1]), times
    _report(9, "bound sweep rises then flattens; variable sweep peaks inside")


# -----------------------------------------------------------------------
# 10. Possible-worlds commutation over seeded databases and queries
# -----------------------------------------------------------------------

COMMUTATION_QUERIES = [
    "R",
    "rename[e<-a](R)",
    "select[a=1](R)",
    "project[a](R)",
    "project[a,d](select[b=c](product(R,T)))",
    "union(R,U)",
    "agg[a; m<-min(b)](R)",
    "agg[; m<-max(b)](select[a=1](R))",
    "project[a](select[m<=2](agg[a; m<-min(b)](R)))",
    "select[m<=d](product(agg[a; m<-min(b)](R), T))",
]

BAG_QUERIES = ["agg[a; n<-count(b)](R)", "agg[; s<-sum(d)](T)"]


def _random_db(seed):
    rng = random.Random(seed)
    sk = B if seed % 2 == 0 else N
    dists = {}

    def mkvar(name):
        if sk is B or rng.random() < 0.5:
            p = rng.uniform(0.2, 0.8)
            dists[name] = Distribution([(0, 1 - p), (1, p)])
        else:
            w = [rng.random() + 0.1 for _ in range(3)]
            t = sum(w)
            dists[name] = Distribution(
                [(0, w[0] / t), (1, w[1] / t), (2, w[2] / t)]
            )
        return Var(name)

    r = PvcTable("R", ("a", "b"), (CONST, CONST))
    for i in range(3):
        r.add_row((rng.randint(1, 2), rng.randint(1, 4)), mkvar("r%d" % i))
    t = PvcTable("T", ("c", "d"), (CONST, CONST))
    for i in range(2):
        t.add_row((rng.randint(1, 2), rng.randint(1, 4)), mkvar("t%d" % i))
    u = PvcTable("U", ("a", "b"), (CONST, CONST))
    for i in range(2):
        u.add_row((rng.randint(1, 2), rng.randint(1, 4)), mkvar("u%d" % i))
    return PvcDatabase([r, t, u], dists, sk)


def _canonical(dist, width):
    out = {}
    for value, p in dist:
        if not isinstance(value, tuple):
            value = (value,)
        if value[0] == 0:
            value = (0,) * width
        out[value] = out.get(value, 0.0) + p
    return out


def test_c10_possible_worlds_commutation():
    checked = 0
    for seed in range(20):
        db = _random_db(seed)
        queries = list(COMMUTATION_QUERIES)
        if db.sk is N:
            queries += BAG_QUERIES
        for text in queries:
            plan = cli.parse_query(text)
            table, answers = answer_distributions(plan, db)
            brute = brute_query(plan, db, limit=2**14)
            const_idx = [i for i, role in enumerate(table.roles) if role == CONST]
            width = 1 + len(table.roles) - len(const_idx)
            seen = set()
            for row in answers:
                key = tuple(row.values[i] for i in const_idx)
                seen.add(key)
                source = row.joint if row.joint is not None else row.annotation
                got = _canonical(source, width)
                if key in brute.dists:
                    want = _canonical(brute[key], width)
                else:
                    want = {(0,) * width: 1.0}
                outcomes = set(got) | set(want)
                for v in outcomes:
                    assert abs(got.get(v, 0.0) - want.get(v, 0.0)) <= TOL, (
                        seed,
                        text,
                        key,
                        v,
                    )
                checked += 1
            for key in brute.keys():
                assert key in seen, (seed, text, key)
    _report(10, "%d answer tuples agree with world enumeration" % checked)
