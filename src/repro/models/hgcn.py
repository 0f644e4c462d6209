"""The HGCN block (Section III-D3) and the simpler spatial encoders.

HGCN runs one GCN per graph in the heterogeneous set — the geographic
graph plus ``M`` temporal graphs — and combines node embeddings as::

    S_t = GCN_geo(X_t) + sum_m w_m(t) * GCN_m(X_t)

where ``w_m(t)`` weights each temporal graph by how close timestamp ``t``
is to the graph's time interval (hard indicator or soft circular decay,
see :meth:`TimelinePartition.membership_weights`).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, default_dtype
from ..graphs import HeterogeneousGraphSet, chebyshev_polynomials
from ..nn import ChebConv, Linear, Module, ModuleList

__all__ = [
    "SpatialEncoder", "LinearEncoder", "GCNEncoder", "HGCNBlock", "temporal_activity",
]


def temporal_activity(weights: np.ndarray) -> np.ndarray:
    """Which temporal graphs a window uses: ``(M,)`` booleans.

    ``weights`` is a window's ``(B, T, M)`` interval weights; a graph is
    active when any sample weights it at any step. :class:`HGCNBlock`
    runs exactly the active graphs at every step of the window, and the
    RIHGCN plan signature is this mask, so the signature fixes the
    forward's control flow wherever an interval boundary falls inside
    the window.
    """
    # asarray: a tracing subclass must not record this host-side decision.
    return (np.asarray(weights) != 0).any(axis=(0, 1))


class SpatialEncoder(Module):
    """Interface: map node features ``(B, N, D)`` to embeddings ``(B, N, p)``.

    ``weights`` carries per-sample temporal-graph weights ``(B, M)`` and
    ``active`` the window's :func:`temporal_activity` mask; encoders that
    ignore the heterogeneous structure accept and discard both.
    """

    #: whether forward() consumes interval weights
    needs_interval_weights: bool = False

    def forward(self, x: Tensor, weights: np.ndarray | None = None,
                active: np.ndarray | None = None) -> Tensor:
        raise NotImplementedError


class LinearEncoder(SpatialEncoder):
    """No spatial mixing: a shared per-node affine embedding.

    This is the spatial block of the FC-LSTM-I ablation (temporal
    correlations only, cf. BRITS).
    """

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.proj = Linear(in_channels, out_channels, rng=rng)

    def forward(self, x: Tensor, weights: np.ndarray | None = None,
                active: np.ndarray | None = None) -> Tensor:
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

    def forward(self, x: Tensor, weights: np.ndarray | None = None,
                active: np.ndarray | None = None) -> Tensor:
        return self.conv(x).relu()


class HGCNBlock(SpatialEncoder):
    """Heterogeneous GCN: geographic GCN + weighted temporal GCNs.

    Parameters
    ----------
    graphs:
        The :class:`HeterogeneousGraphSet` built from training history.
    cheb_order:
        Chebyshev polynomial order ``K`` (paper: 3) shared by every GCN.
    """

    needs_interval_weights = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        graphs: HeterogeneousGraphSet,
        cheb_order: int = 3,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.graphs = graphs
        self.geo_conv = ChebConv(
            in_channels, out_channels,
            chebyshev_polynomials(graphs.geographic, cheb_order), rng=rng,
        )
        self.temporal_convs = ModuleList(
            ChebConv(in_channels, out_channels,
                     chebyshev_polynomials(adj, cheb_order), rng=rng)
            for adj in graphs.temporal
        )

    @property
    def num_temporal(self) -> int:
        return len(self.temporal_convs)

    def forward(self, x: Tensor, weights: np.ndarray | None = None,
                active: np.ndarray | None = None) -> Tensor:
        """``x``: ``(..., B, N, D)``; ``weights``: ``(..., B, M)`` interval weights.

        An axis before ``B`` is the direction axis of a block from
        :func:`~repro.nn.stack_modules`; each weight scales its own
        sample's ``(N, p)`` embedding. ``active`` (``(M,)`` booleans)
        names the temporal graphs to run; the rest are skipped. Recurrent
        callers pass the whole window's :func:`temporal_activity`, so
        every step of a window takes the same branches (an active graph
        at a step where its weight is 0 adds an exact zero). ``None``
        runs the graphs ``weights`` uses.
        """
        if weights is None:
            raise ValueError("HGCNBlock requires per-sample interval weights")
        # asanyarray: tracing subclasses must survive the cast.
        weights = np.asanyarray(weights, dtype=default_dtype())
        if weights.ndim < 2 or weights.shape[-1] != self.num_temporal:
            raise ValueError(
                f"weights must be (..., B, {self.num_temporal}), got {weights.shape}"
            )
        if active is None:
            active = (np.asarray(weights) != 0).reshape(-1, self.num_temporal).any(axis=0)
        out = self.geo_conv(x)
        for idx, conv in enumerate(self.temporal_convs):
            if not active[idx]:
                continue  # interval inactive for the whole window
            w = weights[..., idx]
            out = out + conv(x) * Tensor(w[..., None, None])
        return out.relu()
