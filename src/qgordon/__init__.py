"""Gordon-style partition families, the parity-restricted variants, exact
truncated q-series for the associated identities, and the sign-reversing
involutions that prove them."""

from .partitions import (
    ParameterError,
    count_family,
    enumerate_distinct,
    enumerate_family,
    is_gordon,
    satisfies_parity,
)
from .series import (
    TruncatedSeries,
    family_gf,
    first_discrepancy,
    mul,
    multisum_rrg,
    poch_inf,
    restricted_gf,
    theta_sum,
)
from .gordon import (
    FixedPoint,
    Move,
    UClass,
    classify,
    gordon_fixed_gf,
    gordon_fixed_point,
    involute_gordon,
)
from .pipelines import (
    PIPELINES,
    ConsistencyError,
    PartitionTriple,
    canonicalize_fixed,
    enumerate_ground,
    in_ground,
    involute_pipeline,
    pipeline_e_factor,
    pipeline_fixed_gf,
    pipeline_fixed_triple,
    redistribute,
    to_triple,
    un_transform,
)
from .harness import (
    IDENTITIES,
    SCOPES,
    OrbitTrace,
    VerificationReport,
    check_identity,
    check_involution_laws,
    trace_orbit,
)

__version__ = "0.1.0"
