"""boxmodal: exact partition refinement and modal semantics on grid frames.

The grid omega^n carries two natural accessibility relations, componentwise
<= and componentwise <.  This package represents definable subsets as
finite unions of interval boxes and provides, exactly and symbolically:

* the Boolean algebra of box-union regions with downward closure;
* partitions of definable carriers with decision procedures for the tuned
  and monotone properties;
* a constructive monotone refinement of any finite partition, which makes
  the partition tuned for both orders;
* modal formula evaluation on the infinite frame, finite tuned quotients
  that preserve truth, and finite closed subalgebras witnessing that
  finitely many generators only ever produce finitely many regions;
* brute-force grid oracles for cross-checking all of the above at small
  scale, and a batch CLI.
"""

from .formulas import (
    And,
    Box as BoxF,
    Const,
    Diamond,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    format_formula,
    modal_depth,
    parse_formula,
    subformulas,
    variables,
)
from .modal import (
    FiltrationReport,
    NotCompatible,
    NotTuned,
    QuotientFrame,
    SubalgebraResult,
    TruthLemmaFailure,
    UnboundVariable,
    Valuation,
    filtration_pipeline,
    generate_subalgebra,
    mc_finite,
    quotient_frame,
    truth_region,
)
from .oracle import (
    BoundTooSmall,
    GridTooLarge,
    grid_downset,
    grid_truth,
    grid_tuned,
    witness_bound,
)
from .partition import (
    MonotoneViolation,
    Partition,
    PartitionError,
    TunedViolation,
    cell_of,
    induced,
    is_monotone,
    is_tuned,
    make_partition,
    monotone_violation,
    refines,
    restrict,
    tuned_violation,
)
from .randgen import InfeasibleParameters, gen_random
from .refine import (
    FaceStep,
    FiberedPartition,
    LevelStep,
    ProductTunedViolation,
    RefinementTrace,
    cofinal_threshold,
    extend_from_quadrant,
    make_fibered,
    product_refines,
    product_tuned,
    product_tuned_violation,
    refine_monotone,
    refine_monotone_1d,
    refine_product_finite,
)
from .region import (
    OMEGA,
    Box,
    DimensionMismatch,
    EmptyRegionError,
    Interval,
    OrderKind,
    Point,
    Region,
    box,
    empty_region,
    full,
    point_region,
    region,
    upper_quadrant,
)
from .viz import render_partition_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
