"""The HGCN block (Section III-D3) and the simpler spatial encoders.

HGCN runs one GCN per graph in the heterogeneous set — the geographic
graph plus ``M`` temporal graphs — and combines node embeddings as::

    S_t = GCN_geo(X_t) + sum_m w_m(t) * GCN_m(X_t)

where ``w_m(t)`` weights each temporal graph by how close timestamp ``t``
is to the graph's time interval (hard indicator or soft circular decay,
see :meth:`TimelinePartition.membership_weights`). :class:`HGCNBlock`
computes the sum as one contraction over every graph.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..autodiff import ChebBasis, Tensor, cheb_propagate, concat, default_dtype
from ..graphs import HeterogeneousGraphSet, chebyshev_polynomials
from ..nn import ChebConv, Linear, Module, ModuleList, Parameter, init

__all__ = ["SpatialEncoder", "LinearEncoder", "GCNEncoder", "HGCNBlock"]


class SpatialEncoder(Module):
    """Interface: map node features ``(B, N, D)`` to embeddings ``(B, N, p)``.

    ``weights`` carries per-sample temporal-graph weights ``(B, M)``;
    encoders that ignore the heterogeneous structure accept and discard
    it.
    """

    def forward(self, x: Tensor, weights: np.ndarray | None = None) -> Tensor:
        raise NotImplementedError

    def bind(self) -> Callable[[Tensor, np.ndarray | None], Tensor]:
        """The per-step map ``(x, weights) -> embeddings``, with whatever
        depends only on parameters built once: bind once per forward."""
        return self


class LinearEncoder(SpatialEncoder):
    """No spatial mixing: a shared per-node affine embedding.

    This is the spatial block of the FC-LSTM-I ablation (temporal
    correlations only, cf. BRITS).
    """

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.proj = Linear(in_channels, out_channels, rng=rng)

    def forward(self, x: Tensor, weights: np.ndarray | None = None) -> Tensor:
        return self.proj(x).relu()


class GCNEncoder(SpatialEncoder):
    """Single-graph spectral GCN on the geographic adjacency.

    The spatial block of FC-GCN-I and GCN-LSTM-I (no temporal graphs).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        adjacency: np.ndarray,
        cheb_order: int = 3,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        stack = chebyshev_polynomials(adjacency, cheb_order)
        self.conv = ChebConv(in_channels, out_channels, stack, rng=rng)

    def forward(self, x: Tensor, weights: np.ndarray | None = None) -> Tensor:
        return self.conv(x).relu()


class _GraphConv(Module):
    """One graph's :class:`ChebConv` parameters inside :class:`HGCNBlock`.

    The block's stacked forward reads only ``weight`` and ``bias``.
    Calling the module runs this graph's ``ChebConv`` alone, on a basis
    built at the first call; only a per-graph reference forward calls it.
    """

    def __init__(self, in_channels: int, out_channels: int, adjacency: np.ndarray,
                 cheb_order: int, rng: np.random.Generator | None):
        super().__init__()
        self._adjacency = adjacency
        self._cheb_order = cheb_order
        self._basis: ChebBasis | None = None
        self.weight = Parameter(
            init.xavier_uniform((cheb_order * in_channels, out_channels), rng)
        )
        self.bias = Parameter(init.zeros(out_channels))

    def forward(self, x: Tensor) -> Tensor:
        if self._basis is None:
            self._basis = ChebBasis(chebyshev_polynomials(self._adjacency, self._cheb_order))
        return cheb_propagate(x, self._basis).matmul(self.weight) + self.bias


class HGCNBlock(SpatialEncoder):
    """Heterogeneous GCN: geographic GCN + weighted temporal GCNs.

    Each graph keeps its own ``ChebConv`` parameters (state dict
    ``geo_conv.*``, ``temporal_convs.{m}.*``), but one ``((1+M)·K·N, N)``
    basis propagates ``x`` over every graph, each graph's ``K·C`` block
    is scaled by ``[1, w]``, and one matmul against the row-concatenated
    weights sums the graphs; the bias is ``[1, w]`` times the stacked
    biases. A zero weight is data, not a skipped branch.

    Parameters
    ----------
    graphs:
        The :class:`HeterogeneousGraphSet` built from training history.
    cheb_order:
        Chebyshev polynomial order ``K`` (paper: 3) shared by every GCN.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        graphs: HeterogeneousGraphSet,
        cheb_order: int = 3,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else init.generator()
        self.order = cheb_order
        adjacencies = graphs.all_adjacencies()
        self.geo_conv = _GraphConv(in_channels, out_channels, adjacencies[0], cheb_order, rng)
        self.temporal_convs = ModuleList(
            _GraphConv(in_channels, out_channels, adj, cheb_order, rng)
            for adj in adjacencies[1:]
        )
        self._basis = ChebBasis(np.concatenate(graphs.cheb_stacks(cheb_order)))

    @property
    def num_temporal(self) -> int:
        return len(self.temporal_convs)

    def forward(self, x: Tensor, weights: np.ndarray | None = None) -> Tensor:
        """``x``: ``(..., B, N, D)``; ``weights``: ``(..., B, M)`` interval weights.

        An axis before ``B`` is the direction axis of a block from
        :func:`~repro.nn.stack_modules`; each weight scales its own
        sample's ``(N, p)`` embedding.
        """
        return self.bind()(x, weights)

    def bind(self) -> Callable[[Tensor, np.ndarray | None], Tensor]:
        convs = [self.geo_conv, *self.temporal_convs]
        weight = concat([conv.weight for conv in convs], axis=-2)
        # One bias row per graph: (p,) -> (1, p); a direction-stacked
        # (D, 1, 1, p) bias already ends in its row axis.
        bias = concat([conv.bias.reshape(conv.bias.shape[:-2] + (1, -1))
                       for conv in convs], axis=-2)
        return partial(self._contract, weight, bias)

    def _contract(self, weight: Tensor, bias: Tensor, x: Tensor,
                  weights: np.ndarray | None) -> Tensor:
        if weights is None:
            raise ValueError("HGCNBlock requires per-sample interval weights")
        # asanyarray: tracing subclasses must survive the cast.
        weights = np.asanyarray(weights, dtype=default_dtype())
        if weights.ndim < 2 or weights.shape[-1] != self.num_temporal:
            raise ValueError(
                f"weights must be (..., B, {self.num_temporal}), got {weights.shape}"
            )
        ones = np.ones(weights.shape[:-1] + (1,), dtype=weights.dtype)
        scale = np.concatenate([ones, weights], axis=-1)  # (..., B, 1+M)
        hops = cheb_propagate(x, self._basis)  # (..., B, N, (1+M)·K·C)
        per_graph = hops.reshape(hops.shape[:-1] + (1 + self.num_temporal, -1))
        scaled = (per_graph * Tensor(scale[..., None, :, None])).reshape(hops.shape)
        out = scaled.matmul(weight) + Tensor(scale[..., None, :]).matmul(bias)
        return out.relu()
