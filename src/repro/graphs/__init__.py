"""Graph construction: adjacency kernels, Laplacians, timeline partitioning
and the heterogeneous graph set of Section III-D."""

from .adjacency import add_self_loops, gaussian_kernel_adjacency, normalize_adjacency
from .heterograph import HeterogeneousGraphSet, build_heterogeneous_graphs, build_temporal_graphs
from .laplacian import (
    chebyshev_polynomials,
    max_eigenvalue,
    normalized_laplacian,
    scaled_laplacian,
)
from .partition import (
    PartitionConfig,
    TimelinePartition,
    TimelinePartitioner,
    daily_profile,
    wrap_slice,
)

__all__ = [
    "gaussian_kernel_adjacency",
    "normalize_adjacency",
    "add_self_loops",
    "normalized_laplacian",
    "scaled_laplacian",
    "chebyshev_polynomials",
    "max_eigenvalue",
    "PartitionConfig",
    "TimelinePartition",
    "TimelinePartitioner",
    "daily_profile",
    "HeterogeneousGraphSet",
    "build_temporal_graphs",
    "build_heterogeneous_graphs",
    "wrap_slice",
]
