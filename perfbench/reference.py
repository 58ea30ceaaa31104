"""Independent reference answers for the benchmark's workloads.

Nothing here calls into pvcdb: every distribution is computed from the
generator's own description of an input (clause bitmasks, per-row
probabilities and values), so a wrong answer from the system under test
cannot also be the expected one.

* :func:`dnf_probability` -- probability of a monotone DNF by Shannon
  expansion over bitmask clauses with component splitting and a memo
  (``cond_minmax`` conditionals and ``join_project`` lineage).
* :func:`monoid_distribution` -- closed-form COUNT/SUM/MIN/MAX over
  independent Boolean tuples (``indep_agg``).
* :func:`group_joint` -- the (presence, MIN/MAX) joint of one group of
  tuple-independent rows, optionally filtered by a bound
  (``grouped_joint``).
"""

from __future__ import annotations

INF = float("inf")
NEG_INF = float("-inf")

#: Absolute tolerance per outcome; pvcdb prints 12 significant digits
#: and prunes entries below 1e-15, both far inside it.
TOL = 1e-9


class Mismatch(Exception):
    """An output disagrees with its reference."""


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------


def parse_value(text):
    if "," in text:
        return tuple(parse_value(part) for part in text.split(","))
    if text == "+inf":
        return INF
    if text == "-inf":
        return NEG_INF
    return int(text)


def parse_distribution(lines):
    dist = {}
    for line in lines:
        value, prob = line.split("\t")
        dist[parse_value(value)] = float(prob)
    return dist


def parse_answers(text):
    """``pvcdb query`` output as {tuple cells: (annotation, joint or None)}.

    The cells are the tab-separated strings before ``phi:``.
    """
    blocks = {}
    block = None
    for line in text.splitlines():
        if line.startswith("# tuple: "):
            cells = tuple(line[len("# tuple: "):].split("\tphi: ")[0].split("\t"))
            if cells in blocks:
                raise Mismatch("tuple %r printed twice" % (cells,))
            block = blocks[cells] = [[], None]
            section = block[0]
        elif line == "# joint" and block is not None:
            section = block[1] = []
        elif line and block is not None:
            section.append(line)
        else:
            raise Mismatch("unexpected output line %r" % line)
    return {
        cells: (parse_distribution(annotation), None if joint is None else parse_distribution(joint))
        for cells, (annotation, joint) in blocks.items()
    }


def check_close(got, want, what, tol=TOL):
    """Raise :class:`Mismatch` unless two {value: probability} maps agree
    within ``tol`` on every value either of them names."""
    for value in set(got) | set(want):
        diff = abs(got.get(value, 0.0) - want.get(value, 0.0))
        if diff > tol:
            raise Mismatch(
                "%s: P(%r) is %.12g, reference %.12g"
                % (what, value, got.get(value, 0.0), want.get(value, 0.0))
            )


def boolean(p_true):
    return {0: 1.0 - p_true, 1: p_true}


# ---------------------------------------------------------------------------
# Monotone DNF probability
# ---------------------------------------------------------------------------


def dnf_probability(clauses, probs):
    """P(OR of clauses) for independent variables.

    ``clauses`` are int bitmasks over variable indices (a clause is the
    AND of its set bits) and ``probs[i]`` is P(variable i is true).
    """
    memo = {}

    def components(cl):
        groups = []
        for c in cl:
            merged_mask, merged = c, [c]
            rest = []
            for mask, members in groups:
                if mask & merged_mask:
                    merged_mask |= mask
                    merged.extend(members)
                else:
                    rest.append((mask, members))
            rest.append((merged_mask, merged))
            groups = rest
        return groups

    def prob(cl):
        if not cl:
            return 0.0
        if 0 in cl:
            return 1.0
        hit = memo.get(cl)
        if hit is not None:
            return hit
        groups = components(cl)
        if len(groups) > 1:
            none = 1.0
            for _, members in groups:
                none *= 1.0 - prob(frozenset(members))
            out = 1.0 - none
        else:
            counts = {}
            for c in cl:
                while c:
                    low = c & -c
                    counts[low] = counts.get(low, 0) + 1
                    c ^= low
            bit = max(counts, key=lambda b: (counts[b], -b))
            p = probs[bit.bit_length() - 1]
            true_branch = frozenset(c & ~bit for c in cl)
            false_branch = frozenset(c for c in cl if not c & bit)
            out = p * prob(true_branch) + (1.0 - p) * prob(false_branch)
        memo[cl] = out
        return out

    return prob(frozenset(clauses))


# ---------------------------------------------------------------------------
# Aggregates over independent Boolean tuples
# ---------------------------------------------------------------------------


def _minmax(terms, largest):
    """P(extremum = v) over (p, v) terms; the neutral element when no
    term is present."""
    order = sorted(terms, key=lambda t: t[1], reverse=largest)
    dist = {}
    none_before = 1.0
    for p, v in order:
        dist[v] = dist.get(v, 0.0) + none_before * p
        none_before *= 1.0 - p
    neutral = NEG_INF if largest else INF
    if none_before > 0:
        dist[neutral] = none_before
    return dist


def _sum(terms):
    """DP over the running total; COUNT is SUM of ones."""
    dist = [1.0]
    for p, v in terms:
        grown = [m * (1.0 - p) for m in dist] + [0.0] * v
        for total, m in enumerate(dist):
            grown[total + v] += m * p
        dist = grown
    return {total: m for total, m in enumerate(dist) if m > 0}


def monoid_distribution(kind, terms):
    """Distribution of ``kind{x_i (x) v_i}`` over independent Boolean
    x_i; ``terms`` are (P(x_i), v_i) pairs."""
    if kind in ("count", "sum"):
        return _sum([(p, 1 if kind == "count" else v) for p, v in terms])
    if kind in ("min", "max"):
        return _minmax(terms, largest=kind == "max")
    raise ValueError("unknown monoid %r" % kind)


def group_joint(kind, rows, theta=None, bound=None):
    """Joint of (annotation, aggregate) for one group of independent rows.

    Without a bound the annotation is presence; with ``theta`` ``<=`` or
    ``>=`` it is presence AND [aggregate theta bound], as for
    ``select[m theta c](agg[g; m<-kind(v)](R))``.  An empty group has
    the neutral aggregate and annotation 0.
    """
    extremum = _minmax(rows, largest=kind == "max")
    joint = {}
    for value, p in extremum.items():
        present = value not in (INF, NEG_INF)
        if present and theta == "<=":
            present = value <= bound
        elif present and theta == ">=":
            present = value >= bound
        key = (1 if present else 0, value)
        joint[key] = joint.get(key, 0.0) + p
    return joint
