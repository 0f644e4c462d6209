"""Graph convolution layers.

:class:`ChebConv` implements the spectral graph convolution of Eq. (1) in
the paper (Chebyshev polynomial expansion of the scaled Laplacian), in the
"generalized" form that operates on multi-dimensional node features.

:class:`AdaptiveGraphConv` implements the learned-adjacency diffusion
convolution used by the Graph WaveNet baseline: the adjacency itself is a
differentiable function of trainable node embeddings.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ChebBasis, Tensor, cheb_propagate, concat, default_dtype, softmax
from . import init
from .module import Module, Parameter

__all__ = ["ChebConv", "GraphConv", "AdaptiveGraphConv"]


class ChebConv(Module):
    """Spectral graph convolution via a fixed Chebyshev polynomial stack.

    Parameters
    ----------
    in_channels, out_channels:
        Node feature dimensions.
    cheb_stack:
        Array of shape ``(K, N, N)`` holding ``T_k(L̃)`` for
        ``k = 0 .. K-1`` where ``L̃`` is the scaled Laplacian. Computed once
        by :func:`repro.graphs.laplacian.chebyshev_polynomials` since the
        graph is fixed during training.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        cheb_stack,
        bias: bool = True,
        sparse: bool = False,
        sparsity_eps: float = 1e-12,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        # The K polynomial hops are fused into one stacked-basis matmul
        # (see repro.autodiff.fused); the basis is stored in the policy
        # dtype so propagation never upcasts float32 activations.
        self._basis = ChebBasis(cheb_stack, sparse=sparse, sparsity_eps=sparsity_eps)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.order = self._basis.order
        self.num_nodes = self._basis.num_nodes
        self.sparse = sparse
        self.weight = Parameter(
            init.xavier_uniform((self.order * in_channels, out_channels), rng)
        )
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Apply the convolution.

        ``x`` has shape ``(..., N, in_channels)`` with optional leading batch
        axes; output preserves leading axes with ``out_channels`` features.
        """
        if x.shape[-2] != self.num_nodes:
            raise ValueError(
                f"expected {self.num_nodes} nodes on axis -2, got shape {x.shape}"
            )
        # All K hops in one op — the (..., N, K*C) result matches the
        # concat-of-matmuls layout, so the (K*C, out) weight is unchanged.
        propagated = cheb_propagate(x, self._basis)
        out = propagated.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"ChebConv(in={self.in_channels}, out={self.out_channels}, "
            f"K={self.order}, nodes={self.num_nodes})"
        )


class GraphConv(Module):
    """First-order graph convolution ``Â X W`` with a fixed propagation matrix.

    ``Â`` is typically the symmetrically normalized adjacency with self
    loops. Provided as a cheaper alternative to :class:`ChebConv` and used
    in ablations.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        propagation: np.ndarray,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        propagation = np.asarray(propagation, dtype=default_dtype())
        if propagation.ndim != 2 or propagation.shape[0] != propagation.shape[1]:
            raise ValueError(f"propagation must be square, got {propagation.shape}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.num_nodes = propagation.shape[0]
        self._propagation = Tensor(propagation)
        self.weight = Parameter(init.xavier_uniform((in_channels, out_channels), rng))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = self._propagation.matmul(x).matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"GraphConv(in={self.in_channels}, out={self.out_channels})"


class AdaptiveGraphConv(Module):
    """Diffusion convolution over a *learned* adjacency (Graph WaveNet).

    The adjacency is ``softmax(relu(E1 E2ᵀ))`` with trainable node
    embeddings ``E1, E2``; diffusion steps are powers of that matrix. An
    optional fixed support (e.g. the geographic adjacency) is diffused with
    its own weights and added.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        num_nodes: int,
        embed_dim: int = 10,
        diffusion_steps: int = 2,
        fixed_support: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.num_nodes = num_nodes
        self.diffusion_steps = diffusion_steps
        self.source_embed = Parameter(init.normal((num_nodes, embed_dim), rng, std=0.1))
        self.target_embed = Parameter(init.normal((num_nodes, embed_dim), rng, std=0.1))
        n_supports = diffusion_steps + (diffusion_steps if fixed_support is not None else 0)
        self.weight = Parameter(
            init.xavier_uniform(((n_supports + 1) * in_channels, out_channels), rng)
        )
        self.bias = Parameter(init.zeros(out_channels))
        self._fixed = None
        if fixed_support is not None:
            support = np.asarray(fixed_support, dtype=default_dtype())
            row_sum = support.sum(axis=1, keepdims=True)
            row_sum[row_sum == 0] = 1.0
            self._fixed = Tensor(support / row_sum)

    def adaptive_adjacency(self) -> Tensor:
        """The current learned adjacency (rows sum to 1)."""
        scores = self.source_embed.matmul(self.target_embed.transpose()).relu()
        return softmax(scores, axis=-1)

    def forward(self, x: Tensor) -> Tensor:
        """``x``: ``(..., N, in_channels)`` → ``(..., N, out_channels)``."""
        supports: list[Tensor] = [x]
        adj = self.adaptive_adjacency()
        hop = x
        for _step in range(self.diffusion_steps):
            hop = adj.matmul(hop)
            supports.append(hop)
        if self._fixed is not None:
            hop = x
            for _step in range(self.diffusion_steps):
                hop = self._fixed.matmul(hop)
                supports.append(hop)
        stacked = concat(supports, axis=-1)
        return stacked.matmul(self.weight) + self.bias

    def __repr__(self) -> str:
        return (
            f"AdaptiveGraphConv(in={self.in_channels}, out={self.out_channels}, "
            f"nodes={self.num_nodes}, steps={self.diffusion_steps})"
        )
