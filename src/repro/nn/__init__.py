"""Neural network layers built on the autodiff substrate."""

from . import init
from .attention import SpatialAttention, TemporalAttention
from .container import ModuleList
from .graph import AdaptiveGraphConv, ChebConv, GraphConv
from .linear import MLP, Linear
from .loss import ImputationConsistencyLoss, JointLoss, MaskedMAELoss
from .module import Module, Parameter, stack_modules
from .rnn import GRUCell, LSTM, LSTMCell
from .temporal import CausalConv1d, GatedTCNBlock

__all__ = [
    "init",
    "Module",
    "Parameter",
    "stack_modules",
    "Linear",
    "MLP",
    "ModuleList",
    "LSTMCell",
    "GRUCell",
    "LSTM",
    "ChebConv",
    "GraphConv",
    "AdaptiveGraphConv",
    "CausalConv1d",
    "GatedTCNBlock",
    "SpatialAttention",
    "TemporalAttention",
    "MaskedMAELoss",
    "ImputationConsistencyLoss",
    "JointLoss",
]
