"""Topological entropy of finitely generated rational semigroups.

Library plus CLI for the two entropies attached to a finite generator set
of holomorphic self-maps of the sphere: the symbol-aware growth rate of
separated orbit families (exactly log of the degree sum on the line) and
the itinerary entropy of the underlying relation, bounded through the
coincidence-point machinery. Exact map algebra over the Gaussian rationals
underpins all multiplicity bookkeeping; numeric estimators are certified
lower bounds with regression uncertainty.
"""

__version__ = "0.1.0"

from .gaussian import GaussianRational
from .projective import (
    INFINITY,
    ProjPoint,
    chordal_dist,
    normalize,
    point_at,
    sample_points,
)
from .ratmap import (
    MobiusClass,
    RationalMap,
    classify_mobius,
    compose,
    evaluate,
    from_affine,
    fs_jacobian,
    make_map,
    maps_equal,
    preimages,
)
from .correspondence import (
    Correspondence,
    GeneratorSet,
    WordLedger,
    build_correspondence,
    compose_corr,
    corr_pow,
    d_top,
    enumerate_words,
    support_degree,
)
from .orbits import OrbitPool, forward_orbits, preimage_tree, preimage_tree_levels
from .separation import (
    SeparationCount,
    bowen_orbit_count,
    c_of_eps,
    count_separated,
    sandwich_counts,
    spanning_number,
    sum_up_partition,
)
from .estimate import (
    EntropyEstimate,
    MpFamily,
    entropy_fit,
    estimate_entropy,
    mp_family,
)
from .coincidence import (
    CoincidencePoint,
    FiberEntropyValue,
    FriedlandBounds,
    RecurrenceCertificate,
    coincidence_set,
    fiber_entropy,
    friedland_bounds,
    is_recurrent,
    karp_max_mean_cycle,
)
from .formulas import (
    ExactEntropyRecord,
    exact_htop,
    exact_record,
    general_bounds_eval,
)
from .report import Report, build_report, counts_to_csv
from .config import RunConfig, load_config, parse_config, parse_scalar
