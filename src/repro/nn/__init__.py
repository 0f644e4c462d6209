"""Neural network layers built on the autodiff substrate."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".": ("init",),
    ".attention": ("SpatialAttention", "TemporalAttention"),
    ".container": ("ModuleList",),
    ".graph": ("AdaptiveGraphConv", "ChebConv", "GraphConv"),
    ".linear": ("MLP", "Linear"),
    ".loss": ("ImputationConsistencyLoss", "JointLoss", "MaskedMAELoss"),
    ".module": ("Module", "Parameter", "stack_modules"),
    ".rnn": ("GRUCell", "LSTM", "LSTMCell"),
    ".temporal": ("CausalConv1d", "GatedTCNBlock"),
})
