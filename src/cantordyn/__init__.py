"""Exact computation with homeomorphisms of the Cantor set at clopen resolution."""

from .space import (
    DYADIC,
    Clopen,
    Point,
    Signature,
    canonical_words,
    cyclic_partition,
    is_partition,
    partition_at_depth,
    point_distance,
)
from .measure import (
    Dirac,
    Mixture,
    ProductMeasure,
    measure_of,
    open_diff_mass,
    point_mass,
)
from .homeo import (
    Odometer,
    OpenDiffSet,
    PrefixMap,
    TowerSystem,
    as_prefix_map,
    centralizer_index_sequence,
    compose,
    difference_set,
    fixed_points,
    full_group_membership,
    inverse,
    period_structure,
    point_add,
    power,
    tabulate,
    weak_distance,
)
from .topology import (
    BarPNeighborhood,
    IndeterminateAtDepth,
    Membership,
    PNeighborhood,
    UniformNeighborhood,
    WeakBall,
    defect_over_partition,
    in_neighborhood,
    limsup_check,
    partition_gap,
    weak_distance_interval,
)
from .synth import (
    Castle,
    OverlapGraph,
    PeriodicApproximant,
    SynthesisResult,
    aperiodize_periodic,
    canonical_clopen_homeo,
    euler_circuit,
    extend_cyclic_partition_to_odometer,
    fundamental_domain,
    minimal_circulation,
    odometer_in_weak_neighborhood,
    orbit_of,
    overlap_graph,
    periodic_approx_odometer,
    periodic_in_weak_neighborhood,
    rank1_in_uniform_neighborhood,
    rokhlin_castle,
    truncation,
)

__version__ = "0.1.0"
