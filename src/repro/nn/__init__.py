"""From-scratch neural-network substrate on NumPy.

The paper trains its Continual Feature Extractor (a 4-layer MLP autoencoder)
with Adam.  This subpackage provides the minimum credible equivalent of the
PyTorch pieces the paper relies on: layer modules with exact analytical
backpropagation, losses (including the triplet margin loss used by the
cluster-separation objective), the Adam optimizer, and small model/trainer
helpers.
"""

from repro.nn.data import batch_iterator
from repro.nn.initializers import he_init, xavier_init
from repro.nn.layers import (
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import (
    BCELoss,
    MSELoss,
    SoftmaxCrossEntropyLoss,
    TripletMarginLoss,
)
from repro.nn.models import MLP, Autoencoder
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer, TrainingHistory

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
    "MSELoss",
    "BCELoss",
    "SoftmaxCrossEntropyLoss",
    "TripletMarginLoss",
    "Adam",
    "MLP",
    "Autoencoder",
    "Trainer",
    "TrainingHistory",
    "batch_iterator",
    "he_init",
    "xavier_init",
]
