"""Seeded inputs for the four workloads.

Each workload turns a ``random.Random`` into files in a work directory
and a list of :class:`Op`, one ``pvcdb prob`` or ``pvcdb query``
command line each.  pvcdb sees only the generated expression, TSV and
probability text; every op keeps the generator's own description of its
input so that :mod:`reference` can compute the expected answer without
pvcdb.  Each workload also builds a small instance for the brute-force
oracle and the rungs of its ``capacity_n`` ladder.

Sizes are module constants; ``small=True`` shrinks them for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import reference as ref
from pvcdb import cli, oracle
from pvcdb.algebra import SemiringKind

# Probabilities are whole thousandths, written with both outcomes, so the
# floats pvcdb reads are exactly the ones the references use.


def _draw_prob(rng):
    return rng.randint(100, 900) / 1000.0


def _prob_lines(names, probs):
    return "".join(
        "%s\t0\t%.3f\n%s\t1\t%.3f\n" % (n, 1.0 - p, n, p) for n, p in zip(names, probs)
    )


@dataclass
class Op:
    """One CLI invocation and the check of its output."""

    label: str
    argv: list
    check: object  # callable(output text) -> None, raises ref.Mismatch


@dataclass
class Ladder:
    """Rungs of increasing size; a rung passes when all its ops do."""

    budget: int
    rungs: list = field(default_factory=list)  # (size, [argv, ...])


@dataclass
class Small:
    """A small instance compared with the brute-force oracle."""

    argv: list
    oracle: object  # callable(output text) -> None, raises ref.Mismatch


def _write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# cond_minmax: [min{Phi_i (x) v_i} <= c], the c09 family
# ---------------------------------------------------------------------------

CM_VARS = 25
CM_TERMS = 30
CM_CLAUSES = 3
CM_LITERALS = 3
CM_MAXV = 100
CM_BOUNDS = (0, 62)
# Terms whose value is within the bound; pruning drops the others.  A
# fixed count keeps op cost within about 10x, so the latency
# percentiles of one seed are close to those of another.
CM_SURVIVORS = 6
CM_OPS = 100
CM_LADDER = (4, 8, 16, 32, 64)
CM_BUDGET = 12000


def _cm_terms(rng, count, num_vars, lo, hi):
    """Terms as (clause bitmasks, value in [lo, hi]); the literals of a
    clause are distinct."""
    terms = []
    for _ in range(count):
        clauses = []
        for _ in range(CM_CLAUSES):
            mask = 0
            for i in rng.sample(range(num_vars), CM_LITERALS):
                mask |= 1 << i
            clauses.append(mask)
        terms.append((clauses, rng.randint(lo, hi)))
    return terms


def _cm_text(terms, c):
    def clause(mask):
        return "*".join(
            "x%d" % (i + 1) for i in range(mask.bit_length()) if mask >> i & 1
        )

    body = " + ".join(
        "(%s)(x)%d" % (" + ".join(clause(m) for m in clauses), v)
        for clauses, v in terms
    )
    return "[min{%s} <= %d]" % (body, c)


def _cm_reference(terms, c, probs):
    clauses = [m for cl, v in terms if v <= c for m in cl]
    return ref.boolean(ref.dnf_probability(clauses, probs))


def _check_prob(want_fn, what):
    def check(text):
        got = ref.parse_distribution(text.splitlines())
        ref.check_close(got, want_fn(), what)

    return check


def _prob_op(workdir, tag, label, text, names, probs, want_fn):
    expr = _write(workdir / ("%s.expr" % tag), text + "\n")
    prob = _write(workdir / ("%s.probs" % tag), _prob_lines(names, probs))
    argv = ["prob", "--expr-file", expr, "--probs", prob]
    return Op(label, argv, _check_prob(want_fn, label))


def cond_minmax(rng, workdir, small=False):
    num_vars, count, survivors = (10, 8, 3) if small else (CM_VARS, CM_TERMS, CM_SURVIVORS)
    names = ["x%d" % (i + 1) for i in range(num_vars)]
    n_ops = 6 if small else CM_OPS
    lo, hi = CM_BOUNDS
    ops = []
    for k in range(n_ops):
        # Bounds stratified over [lo, hi] so every seed covers the range.
        c = lo + round(k * (hi - lo) / max(1, n_ops - 1))
        terms = _cm_terms(rng, survivors, num_vars, 0, c)
        terms += _cm_terms(rng, count - survivors, num_vars, c + 1, CM_MAXV)
        rng.shuffle(terms)
        probs = [_draw_prob(rng) for _ in names]
        ops.append(
            _prob_op(
                workdir, "cm%d" % k, "cond_minmax op %d (c=%d)" % (k, c),
                _cm_text(terms, c), names, probs,
                lambda terms=terms, c=c, probs=probs: _cm_reference(terms, c, probs),
            )
        )
    rng.shuffle(ops)
    return ops


def cond_minmax_small(rng, workdir):
    names = ["x%d" % (i + 1) for i in range(10)]
    terms = _cm_terms(rng, 8, 10, 0, CM_MAXV)
    probs = [_draw_prob(rng) for _ in names]
    return _oracle_prob(workdir, "cm_small", _cm_text(terms, 50), names, probs)


def cond_minmax_ladder(rng, workdir):
    """Terms, all with values within the bound so none is pruned."""
    names = ["x%d" % (i + 1) for i in range(CM_VARS)]
    probs = [_draw_prob(rng) for _ in names]
    prob = _write(workdir / "cm_ladder.probs", _prob_lines(names, probs))
    ladder = Ladder(CM_BUDGET)
    for size in CM_LADDER:
        terms = _cm_terms(rng, size, CM_VARS, 0, CM_MAXV // 2)
        expr = _write(
            workdir / ("cm_ladder%d.expr" % size), _cm_text(terms, CM_MAXV // 2) + "\n"
        )
        ladder.rungs.append((size, [["prob", "--expr-file", expr, "--probs", prob]]))
    return ladder


# ---------------------------------------------------------------------------
# indep_agg: COUNT/SUM/MIN/MAX over distinct independent variables
# ---------------------------------------------------------------------------

IA_KINDS = ("count", "sum", "min", "max")
IA_SIZES = (40, 200)
IA_MAXV = 20
IA_OPS = 100
IA_LADDER = (100, 200, 400, 800, 1600)
IA_BUDGET = 20000


def _ia_text(kind, names, values):
    return "%s{%s}" % (
        kind, " + ".join("%s(x)%d" % (n, v) for n, v in zip(names, values))
    )


def _ia_input(rng, kind, n):
    names = ["a%d" % (i + 1) for i in range(n)]
    values = [1 if kind == "count" else rng.randint(0, IA_MAXV) for _ in names]
    probs = [_draw_prob(rng) for _ in names]
    return names, values, probs


def indep_agg(rng, workdir, small=False):
    lo, hi = (8, 16) if small else IA_SIZES
    n_ops = 8 if small else IA_OPS
    ops = []
    for k in range(n_ops):
        kind = IA_KINDS[k % len(IA_KINDS)]
        # Sizes stratified over [lo, hi] within each monoid.
        step = k // len(IA_KINDS)
        steps = max(1, n_ops // len(IA_KINDS) - 1)
        n = lo + round(step * (hi - lo) / steps)
        names, values, probs = _ia_input(rng, kind, n)
        terms = list(zip(probs, values))
        ops.append(
            _prob_op(
                workdir, "ia%d" % k, "indep_agg op %d (%s, n=%d)" % (k, kind, n),
                _ia_text(kind, names, values), names, probs,
                lambda kind=kind, terms=terms: ref.monoid_distribution(kind, terms),
            )
        )
    rng.shuffle(ops)
    return ops


def indep_agg_small(rng, workdir):
    kind = rng.choice(IA_KINDS)
    names, values, probs = _ia_input(rng, kind, 12)
    return _oracle_prob(workdir, "ia_small", _ia_text(kind, names, values), names, probs)


def indep_agg_ladder(rng, workdir):
    ladder = Ladder(IA_BUDGET)
    for n in IA_LADDER:
        argvs = []
        for kind in IA_KINDS:
            names, values, probs = _ia_input(rng, kind, n)
            tag = "ia_ladder_%s%d" % (kind, n)
            expr = _write(workdir / (tag + ".expr"), _ia_text(kind, names, values) + "\n")
            prob = _write(workdir / (tag + ".probs"), _prob_lines(names, probs))
            argvs.append(["prob", "--expr-file", expr, "--probs", prob])
        ladder.rungs.append((n, argvs))
    return ladder


def _oracle_prob(workdir, tag, text, names, probs):
    expr = _write(workdir / (tag + ".expr"), text + "\n")
    prob = _write(workdir / (tag + ".probs"), _prob_lines(names, probs))

    def check(output):
        want = oracle.brute_distribution(
            cli.parse_expr(text), cli.load_probabilities(prob), SemiringKind.BOOLEAN
        )
        got = ref.parse_distribution(output.splitlines())
        ref.check_close(got, dict(want.entries), "%s vs brute_distribution" % tag)

    return Small(["prob", "--expr-file", expr, "--probs", prob], check)


# ---------------------------------------------------------------------------
# grouped_joint: grouped MIN/MAX joints over a tuple-independent R(g, v)
# ---------------------------------------------------------------------------

GJ_GROUPS = 6
GJ_ROWS = (8, 13)
GJ_MAXV = 50
GJ_DATABASES = 25
GJ_LADDER = (8, 16, 32, 64)
GJ_BUDGET = 10000

_GJ_QUERIES = (
    ("min", None, "agg[g; m<-min(v)](R)"),
    ("max", None, "agg[g; m<-max(v)](R)"),
    ("min", "<=", "select[m<=%d](agg[g; m<-min(v)](R))"),
    ("max", ">=", "select[m>=%d](agg[g; m<-max(v)](R))"),
)


def _gj_database(rng, workdir, tag, sizes):
    """R(g, v) with one fresh variable per row; returns per-group rows as
    (probability, value) pairs and the table and probability paths."""
    lines = ["g\tv\tphi\n"]
    names, probs, groups = [], [], []
    for g, size in enumerate(sizes):
        rows = []
        for i in range(size):
            name, p, v = "r%d_%d" % (g, i), _draw_prob(rng), rng.randint(0, GJ_MAXV)
            lines.append("%d\t%d\t%s\n" % (g, v, name))
            names.append(name)
            probs.append(p)
            rows.append((p, v))
        groups.append(rows)
    # The relation is named after the file stem, so each database has
    # its own directory.
    table_dir = workdir / tag
    table_dir.mkdir()
    table = _write(table_dir / "R.tsv", "".join(lines))
    prob = _write(table_dir / "probs.tsv", _prob_lines(names, probs))
    return groups, table, prob


def _gj_check(groups, kind, theta, bound, what):
    def check(text):
        answers = ref.parse_answers(text)
        if len(answers) != len(groups):
            raise ref.Mismatch("%s: %d tuples, expected %d" % (what, len(answers), len(groups)))
        for cells, (annotation, joint) in answers.items():
            g = int(cells[0])
            want = ref.group_joint(kind, groups[g], theta, bound)
            if joint is None:
                raise ref.Mismatch("%s: group %d has no joint" % (what, g))
            ref.check_close(joint, want, "%s group %d joint" % (what, g))
            marginal = {}
            for (phi, _), p in want.items():
                marginal[phi] = marginal.get(phi, 0.0) + p
            ref.check_close(annotation, marginal, "%s group %d annotation" % (what, g))

    return check


def _gj_sizes(rng, groups, lo, hi):
    # Fixed size multiset, shuffled, so the seed changes rows, not shape.
    return rng.sample([lo + round(i * (hi - lo) / max(1, groups - 1)) for i in range(groups)], groups)


def grouped_joint(rng, workdir, small=False):
    n_db = 2 if small else GJ_DATABASES
    groups_n, (lo, hi) = (3, (3, 5)) if small else (GJ_GROUPS, GJ_ROWS)
    ops = []
    for d in range(n_db):
        groups, table, prob = _gj_database(
            rng, workdir, "gj%d" % d, _gj_sizes(rng, groups_n, lo, hi)
        )
        for q, (kind, theta, query) in enumerate(_GJ_QUERIES):
            bound = rng.randint(0, GJ_MAXV) if theta else None
            text = query % bound if theta else query
            label = "grouped_joint db %d query %d (%s)" % (d, q, text)
            argv = ["query", "--tables", table, "--probs", prob, "--query", text, "--joint"]
            ops.append(Op(label, argv, _gj_check(groups, kind, theta, bound, label)))
    rng.shuffle(ops)
    return ops


def grouped_joint_small(rng, workdir):
    _, table, prob = _gj_database(rng, workdir, "gj_small", [4, 4, 4])
    kind, theta, query = _GJ_QUERIES[rng.randrange(len(_GJ_QUERIES))]
    text = query % rng.randint(0, GJ_MAXV) if theta else query
    return _oracle_query([table], prob, text, ["--joint"])


def grouped_joint_ladder(rng, workdir):
    ladder = Ladder(GJ_BUDGET)
    for size in GJ_LADDER:
        _, table, prob = _gj_database(rng, workdir, "gj_ladder%d" % size, [size])
        argvs = [
            ["query", "--tables", table, "--probs", prob, "--query", q, "--joint"]
            for _, theta, q in _GJ_QUERIES if theta is None
        ]
        ladder.rungs.append((size, argvs))
    return ladder


def _oracle_query(tables, prob, text, flags=()):
    def check(output):
        db = cli.load_database(tables, prob, "bool")
        brute = oracle.brute_query(cli.parse_query(text), db)
        want_by_key = {tuple(str(v) for v in k): dict(brute[k].entries) for k in brute.keys()}
        got = ref.parse_answers(output)
        const_idx = [i for i, role in enumerate(brute.roles) if role != "agg"]
        width = len(brute.roles) - len(const_idx) + 1
        seen = set()
        for cells, (annotation, joint) in got.items():
            key = tuple(cells[i] for i in const_idx)
            seen.add(key)
            # The oracle spells "absent" as all zeros and omits tuples
            # absent from every world.
            want = want_by_key.get(key, {(0,) * width: 1.0})
            source = joint if joint is not None else {(v,): p for v, p in annotation.items()}
            canonical = {}
            for value, p in source.items():
                value = value if value[0] != 0 else (0,) * width
                canonical[value] = canonical.get(value, 0.0) + p
            ref.check_close(canonical, want, "%s vs brute_query tuple %r" % (text, key))
        missing = set(want_by_key) - seen
        if missing:
            raise ref.Mismatch("%s: tuples %r missing" % (text, sorted(missing)))

    argv = ["query", "--tables", *tables, "--probs", prob, "--query", text, *flags]
    return Small(argv, check)


# ---------------------------------------------------------------------------
# join_project: q1-shaped select/product/rename/project over shops data
# ---------------------------------------------------------------------------

JP_SIDS = 40
JP_SHOPS = 20
JP_PRODUCTS = 30
JP_PER_SID = 5
JP_PRICES = tuple(range(10, 65, 5))
JP_DATABASES = 10
JP_QUERIES = 10
JP_LADDER = (32, 64, 128, 256, 512, 1024)
JP_BUDGET = 20000

_JP_JOIN = (
    "select[pid=pid2](product(select[sid=sid2](product(S,rename[sid2<-sid](PS))),"
    "rename[pid2<-pid](union(P1,P2))))"
)
# Projections, each with the column order of its answer tuples.
_JP_PROJECTIONS = (("shop", "price"), ("shop",), ("pid", "price"))


def _jp_database(rng, workdir, tag, sids, shops, products, per_sid):
    """Shops-schema tables; returns the rows for the reference join, the
    table paths and the probability path."""
    names, probs = [], []

    def var(name):
        names.append(name)
        probs.append(_draw_prob(rng))
        return name, probs[-1]

    s_rows = [(sid, "shop%d" % rng.randrange(shops), var("x%d" % sid)) for sid in range(sids)]
    ps_rows = []
    for sid in range(sids):
        for pid in rng.sample(range(products), min(per_sid, products)):
            ps_rows.append((sid, pid, rng.choice(JP_PRICES), var("y%d_%d" % (sid, pid))))
    p_rows = {"P1": [], "P2": []}
    for pid in range(products):
        p_rows["P1"].append((pid, rng.randint(1, 9), var("z%d" % pid)))
        if rng.random() < 0.25:
            p_rows["P2"].append((pid, rng.randint(1, 9), var("w%d" % pid)))
    table_dir = workdir / tag
    table_dir.mkdir()
    tables = [
        _write(table_dir / "S.tsv", "sid\tshop\tphi\n" + "".join(
            "%d\t%s\t%s\n" % (s, shop, v[0]) for s, shop, v in s_rows)),
        _write(table_dir / "PS.tsv", "sid\tpid\tprice\tphi\n" + "".join(
            "%d\t%d\t%d\t%s\n" % (s, p, price, v[0]) for s, p, price, v in ps_rows)),
    ]
    for name, rows in p_rows.items():
        tables.append(_write(table_dir / (name + ".tsv"), "pid\tweight\tphi\n" + "".join(
            "%d\t%d\t%s\n" % (p, w, v[0]) for p, w, v in rows)))
    prob = _write(table_dir / "probs.tsv", _prob_lines(names, probs))
    data = (s_rows, ps_rows, p_rows["P1"] + p_rows["P2"])
    return data, tables, prob


def _jp_lineage(data, projection, bound):
    """Answer tuple -> list of (probability, ...) clauses by an
    independent hash join."""
    s_rows, ps_rows, p_rows = data
    shop_of = {sid: (shop, v) for sid, shop, v in s_rows}
    by_pid = {}
    for pid, _, v in p_rows:
        by_pid.setdefault(pid, []).append(v)
    lineage = {}
    for sid, pid, price, y in ps_rows:
        if bound is not None and price > bound:
            continue
        shop, x = shop_of[sid]
        row = {"shop": shop, "price": str(price), "pid": str(pid)}
        key = tuple(row[a] for a in projection)
        for z in by_pid.get(pid, ()):
            lineage.setdefault(key, []).append((x, y, z))
    return lineage


def _jp_check(data, projection, bound, what):
    def check(text):
        answers = ref.parse_answers(text)
        lineage = _jp_lineage(data, projection, bound)
        if set(answers) != set(lineage):
            raise ref.Mismatch("%s: answer tuples differ from the reference join" % what)
        for key, clauses in lineage.items():
            index, probs = {}, []
            masks = []
            for clause in clauses:
                mask = 0
                for name, p in clause:
                    if name not in index:
                        index[name] = len(probs)
                        probs.append(p)
                    mask |= 1 << index[name]
                masks.append(mask)
            want = ref.boolean(ref.dnf_probability(masks, probs))
            ref.check_close(answers[key][0], want, "%s tuple %r" % (what, key))

    return check


def _jp_query(projection, bound):
    attrs = ",".join("pid2" if a == "pid" else a for a in projection)
    inner = _JP_JOIN if bound is None else "select[price<=%d](%s)" % (bound, _JP_JOIN)
    return "project[%s](%s)" % (attrs, inner)


def join_project(rng, workdir, small=False):
    sizes = (4, 2, 3, 2) if small else (JP_SIDS, JP_SHOPS, JP_PRODUCTS, JP_PER_SID)
    n_db, n_queries = (2, 3) if small else (JP_DATABASES, JP_QUERIES)
    ops = []
    for d in range(n_db):
        data, tables, prob = _jp_database(rng, workdir, "jp%d" % d, *sizes)
        for k in range(n_queries):
            projection = _JP_PROJECTIONS[k % len(_JP_PROJECTIONS)]
            bound = None if k % 2 == 0 else rng.choice(JP_PRICES[2:])
            text = _jp_query(projection, bound)
            label = "join_project db %d query %d (%s)" % (d, k, text)
            argv = ["query", "--tables", *tables, "--probs", prob, "--query", text]
            ops.append(Op(label, argv, _jp_check(data, projection, bound, label)))
    rng.shuffle(ops)
    return ops


def join_project_small(rng, workdir):
    _, tables, prob = _jp_database(rng, workdir, "jp_small", 2, 2, 3, 2)
    text = _jp_query(rng.choice(_JP_PROJECTIONS), None)
    return _oracle_query(tables, prob, text)


def join_project_ladder(rng, workdir):
    """One shop offering one product at k prices: project[shop] merges
    the k joined rows into one answer whose lineage has k terms.  The
    nested-loop products stay at k rows, so the rung measures the
    lineage, not the join."""
    ladder = Ladder(JP_BUDGET)
    query = _jp_query(("shop",), None)
    for k in JP_LADDER:
        table_dir = workdir / ("jp_ladder%d" % k)
        table_dir.mkdir()
        names = ["x0", "z0"] + ["y%d" % j for j in range(k)]
        probs = [_draw_prob(rng) for _ in names]
        tables = [
            _write(table_dir / "S.tsv", "sid\tshop\tphi\n0\tshop0\tx0\n"),
            _write(table_dir / "PS.tsv", "sid\tpid\tprice\tphi\n" + "".join(
                "0\t0\t%d\ty%d\n" % (j + 1, j) for j in range(k))),
            _write(table_dir / "P1.tsv", "pid\tweight\tphi\n0\t1\tz0\n"),
            _write(table_dir / "P2.tsv", "pid\tweight\tphi\n"),
        ]
        prob = _write(table_dir / "probs.tsv", _prob_lines(names, probs))
        ladder.rungs.append(
            (k, [["query", "--tables", *tables, "--probs", prob, "--query", query]])
        )
    return ladder


WORKLOADS = {
    "cond_minmax": (cond_minmax, cond_minmax_small, cond_minmax_ladder),
    "indep_agg": (indep_agg, indep_agg_small, indep_agg_ladder),
    "grouped_joint": (grouped_joint, grouped_joint_small, grouped_joint_ladder),
    "join_project": (join_project, join_project_small, join_project_ladder),
}
