"""Certified covers, smooth partitions of unity, and weighted-seminorm
inequality certificates on exhausted domains."""

from .bumps import (BumpProfile, Partition, PartitionFn,
                    build_partition, build_profile, certify_partition,
                    derivative_constant, default_weights)
from .certify import (JFunctional, ball_weight_constant,
                      build_functional, claim4_constant,
                      domination_certificate, membership_certificate,
                      seminorm, union_cell_midpoints, verify_ball_weight_bound,
                      verify_disjoint_supports, verify_integral_bound)
from .cover import (Cover, build_cover, chain_certificate, neighbor_sets,
                    overlap_profile, separation_holds, verify_covering,
                    with_extra_center, without_center)
from .domains import (Box, BoxRegion, DistanceRegion, ExhaustionDomain,
                      FullSpace, Region, constant_exhaustion, exhaustion_gap,
                      expanding_boxes, full_space, shrinking_boxes)
from .errors import (ConfigError, ConstructionError, CoverCertError,
                     DomainMembershipError, IndexCapError, NoRingPointsError,
                     RefinementRequiredError, SmoothnessOrderError,
                     TruncationBoxError)
from .functions import (TestFunction, coord_gaussian, gaussian, shipped_suite,
                        spline_bump)
from .indexcalc import IndexCalculus
from .piecewise import PiecewisePoly, indicator
from .radii import RadiusOracle, positivity_certificate
from .report import Certificate, summarize
from .weights import (MuSpec, WeightFamily, boundary_family, check_omega,
                      classify_s, constant_weight_family, make_exp_family,
                      product_family, psi_mass_certificate, schwartz_family)

__version__ = "0.1.0"
