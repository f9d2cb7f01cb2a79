"""Deep Isolation Forest (Xu et al., TKDE 2023).

DIF replaces the axis-parallel splits of a plain isolation forest with
isolation in the representation spaces of an ensemble of *randomly
initialised* neural networks: each network maps the data to a new space, an
isolation forest is built on every representation, and the anomaly score is
the average of the per-representation scores.
"""

from __future__ import annotations

import numpy as np

from repro.nn.models import MLP
from repro.novelty.base import NoveltyDetector
from repro.novelty.iforest import IsolationForest
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["DeepIsolationForest"]


class DeepIsolationForest(NoveltyDetector):
    """Isolation forest over an ensemble of random neural representations.

    Parameters
    ----------
    n_representations:
        Number of randomly initialised networks (``r`` in the paper).
    n_estimators_per_representation:
        Number of isolation trees built on each representation (``t``).
    representation_dim:
        Output dimensionality of each random network.
    hidden_dims:
        Hidden-layer widths of the random networks.
    block_size:
        Scoring maps at most this many rows through the random networks at a
        time, so peak extra memory is O(``block_size`` x max layer width)
        floats instead of materialising every representation for the whole
        query batch — the same bound the blockwise neighbour kernel gives
        LOF.
    """

    def __init__(
        self,
        n_representations: int = 5,
        n_estimators_per_representation: int = 20,
        *,
        representation_dim: int = 20,
        hidden_dims: tuple[int, ...] = (64,),
        max_samples: int = 256,
        block_size: int = 4096,
        threshold_quantile: float = 0.95,
        random_state: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if n_representations < 1 or n_estimators_per_representation < 1:
            raise ValueError("ensemble sizes must be at least 1")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.n_representations = n_representations
        self.n_estimators_per_representation = n_estimators_per_representation
        self.representation_dim = representation_dim
        self.hidden_dims = tuple(hidden_dims)
        self.max_samples = max_samples
        self.block_size = block_size
        self.random_state = random_state
        self.networks_: list[MLP] | None = None
        self.forests_: list[IsolationForest] | None = None

    def fit(self, X: np.ndarray) -> "DeepIsolationForest":
        X = check_array(X, name="X")
        rng = check_random_state(self.random_state)
        networks: list[MLP] = []
        forests: list[IsolationForest] = []
        for _ in range(self.n_representations):
            net = MLP(
                [X.shape[1], *self.hidden_dims, self.representation_dim],
                activation="tanh",
                random_state=rng,
            )
            net.eval()
            representation = self._encode_blocks(net, X)
            # One thread, as in score_samples: the walk sits between BLAS calls.
            forest = IsolationForest(
                n_estimators=self.n_estimators_per_representation,
                max_samples=self.max_samples,
                random_state=rng,
            )._fit(representation, 1)
            networks.append(net)
            forests.append(forest)
        self.networks_ = networks
        self.forests_ = forests
        self._set_default_threshold(self.score_samples(X))
        return self

    def _encode_blocks(self, net: MLP, X: np.ndarray) -> np.ndarray:
        """Map ``X`` through ``net`` in blocks of ``block_size`` rows.

        Only the (n, representation_dim) output is materialised for the full
        input; the wider hidden activations exist for one block at a time.
        """
        n = X.shape[0]
        out = np.empty((n, self.representation_dim))
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            out[start:stop] = net(X[start:stop])
        return out

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "networks_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.networks_[0].layer_sizes[0], fitted_with="detector was fitted")
        n = X.shape[0]
        if n == 0:
            return np.empty(0)
        # Blockwise representation maps: every network's forward pass (and
        # its layer activation caches) only ever holds block_size rows, so
        # peak memory is bounded regardless of the query size.  Rows are
        # scored independently, so the result matches the one-shot pass.
        # The forests walk on one thread: they alternate with the networks'
        # multi-threaded BLAS calls, and an OpenMP team left spinning between
        # two walks takes a core from BLAS (a 789-row split of the Fig. 4
        # benchmark scored in 40 ms on two threads against 2.3 ms on one).
        scores = np.zeros(n)
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            block = X[start:stop]
            for net, forest in zip(self.networks_, self.forests_):
                scores[start:stop] += forest._score_samples(net(block), 1)
        return scores / len(self.networks_)
