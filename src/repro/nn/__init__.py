"""Neural network layers built on the autodiff substrate."""

from . import init
from .activation import LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from .attention import SpatialAttention, TemporalAttention
from .container import ModuleList, Sequential
from .dropout import Dropout
from .graph import AdaptiveGraphConv, ChebConv, GraphConv
from .linear import MLP, Linear
from .loss import (
    ImputationConsistencyLoss,
    JointLoss,
    MAELoss,
    MaskedMAELoss,
    MaskedMSELoss,
    MSELoss,
)
from .module import Module, Parameter
from .rnn import GRUCell, LSTM, LSTMCell
from .serialization import checkpoint_path, load_checkpoint, save_checkpoint
from .temporal import CausalConv1d, GatedTCNBlock

__all__ = [
    "init",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "Softmax",
    "Dropout",
    "Sequential",
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
    "MAELoss",
    "MSELoss",
    "MaskedMAELoss",
    "MaskedMSELoss",
    "ImputationConsistencyLoss",
    "JointLoss",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_path",
]
