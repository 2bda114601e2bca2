"""Exact verification toolkit for pairs of s-cross-intersecting families.

Everything is computed in exact integer arithmetic: ground-level subset
combinatorics and the shifting operator, the extremal family and its
orbit weights, flow-based maximum-weight independent sets in weighted
bipartite graphs, the two-sided orbit graph with its symmetric chain
paths, and a brute-force enumeration oracle that confirms the closed
form max |A| + |B| = (extremal family size) + 1 at desk scale.
"""

__version__ = "0.1.0"

from .errors import (BadIndices, ConfigError, CrossIntError,
                     DecompositionViolation, EnumerationTooLarge,
                     FlowCertificateError, GroundMismatch,
                     IndexNotMeaningful, ParamsOutOfRange,
                     ShiftSizeChanged, TypedEdgeNotInW)
from .sets import (DEFAULT_ENUMERATION_CAP, Family, KSet, Params, binom,
                   enumerate_ksubsets, family_from_text, family_to_text,
                   is_s_cross_intersecting, ksubset_masks)
from .shifting import is_shifted, shift_closure, shift_family, shift_set
from .extremal import (build_extremal_family, check_mirror_weight_ordering,
                       check_offset_weight_ordering, extremal_pair,
                       min_pair_intersection, orbit_weight, orbit_weights,
                       size_extremal_family)
from .bipartite import (FlowNetwork, WeightedBipartiteGraph, max_flow,
                        max_weight_independent_set, min_weight_vertex_cover)
from .orbitgraph import (ChainDecomposition, OrbitGraph, OrbitVertex,
                         TypedEdge, build_chain_decomposition,
                         build_orbit_graph, check_biregularity,
                         classify_edges, decomposition_to_dot, graph_to_dot,
                         path_mwis, validate_decomposition)
from .oracle import (DEFAULT_ORACLE_CAP, conflict_graph_mis, max_sum_nonempty,
                     max_sum_nonempty_unreduced, verify_theorem)
from .report import ReportBundle, Verdict, emit_report
from .sweep import CHECK_NAMES, SweepSpec, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
