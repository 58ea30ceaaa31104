"""Exact query evaluation for probabilistic databases with aggregation.

Data lives in pvc-tables: relations annotated with semiring expressions
over independent random variables, whose cells may hold semimodule
expressions for aggregate values.  Queries in positive relational
algebra with grouping/aggregation evaluate to pvc-tables symbolically;
per-tuple probability distributions come from compiling the constructed
expressions into decomposition trees.  A brute-force oracle provides
independent ground truth over the possible worlds.
"""

from .algebra import (
    Add,
    Cmp,
    Const,
    Expr,
    INF,
    MConst,
    MExpr,
    MonoidKind,
    MSum,
    Mul,
    NEG_INF,
    Scaled,
    SemiringKind,
    Var,
    variables,
)
from .dtree import (
    choose_branch_variable,
    compile,
    compile_joint,
    distribution,
    prune,
    prune_all,
    reduce_to_boolean,
)
from .engine import (
    Aggregate,
    Base,
    Product,
    Project,
    Rename,
    Select,
    Union,
    answer_distributions,
    evaluate,
    validate_query,
)
from .exprtext import format_expr, parse_expr
from .oracle import brute_distribution, brute_query
from .prob import Distribution, compare_convolve, convolve, mix
from .pvc import PvcDatabase, PvcTable, enumerate_worlds, semantics_mode
from .tractability import classify, is_hierarchical, root_attributes

__all__ = [name for name in dir() if not name.startswith("_")]
