"""Exact counting, enumeration and optimization over convex characters of
unrooted binary phylogenetic trees."""

from .bench import BenchRecord, FakeClock, run_bench
from .bruteforce import MAX_TAXA, all_partitions, brute_count
from .characters import (
    Character,
    enumerate_convex,
    is_convex,
    parsimony_score,
    stream_encoding,
)
from .counting import (
    GrowthRate,
    caterpillar_closed_k3,
    caterpillar_count,
    count_closed_k1,
    count_closed_k2,
    count_convex,
    fibonacci,
    fibonacci_float_check,
    fully_loaded_count,
    growth_rate,
    rate_table,
    rate_table_tsv,
)
from .generators import (
    FullyLoadedSpec,
    all_topologies,
    caterpillar,
    default_labels,
    fully_loaded,
    fully_loaded_decomposition,
    is_fully_loaded,
    linearize,
    random_tree,
    replace_pendant_fully_loaded,
)
from .solvers import (
    SolveInstance,
    SolveResult,
    agreement_forest_min_components,
    optimize_objective,
    quartet_exact_partition,
    solve,
)
from .trees import NewickError, Split, Tree, TreeError, Tripartition, parse_newick, write_newick
from .verify import (
    applicable_tripartitions,
    run_verification,
    split_recurrence_holds,
    tripartition_identity_holds,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "Character",
    "FakeClock",
    "FullyLoadedSpec",
    "GrowthRate",
    "MAX_TAXA",
    "NewickError",
    "SolveInstance",
    "SolveResult",
    "Split",
    "Tree",
    "TreeError",
    "Tripartition",
    "agreement_forest_min_components",
    "all_partitions",
    "all_topologies",
    "applicable_tripartitions",
    "brute_count",
    "caterpillar",
    "caterpillar_closed_k3",
    "caterpillar_count",
    "count_closed_k1",
    "count_closed_k2",
    "count_convex",
    "default_labels",
    "enumerate_convex",
    "fibonacci",
    "fibonacci_float_check",
    "fully_loaded",
    "fully_loaded_count",
    "fully_loaded_decomposition",
    "growth_rate",
    "is_convex",
    "is_fully_loaded",
    "linearize",
    "optimize_objective",
    "parse_newick",
    "parsimony_score",
    "quartet_exact_partition",
    "random_tree",
    "rate_table",
    "rate_table_tsv",
    "replace_pendant_fully_loaded",
    "run_bench",
    "run_verification",
    "solve",
    "split_recurrence_holds",
    "stream_encoding",
    "tripartition_identity_holds",
    "write_newick",
]
