"""Graph construction: adjacency kernels, Laplacians, timeline partitioning
and the heterogeneous graph set of Section III-D."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".adjacency": ("add_self_loops", "gaussian_kernel_adjacency", "normalize_adjacency"),
    ".heterograph": (
        "HeterogeneousGraphSet", "build_heterogeneous_graphs", "build_temporal_graphs",
    ),
    ".laplacian": (
        "chebyshev_polynomials", "max_eigenvalue", "normalized_laplacian", "scaled_laplacian",
    ),
    ".partition": (
        "PartitionConfig", "TimelinePartition", "TimelinePartitioner", "daily_profile",
        "wrap_slice",
    ),
})
