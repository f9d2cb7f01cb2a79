"""Classical machine-learning substrate: PCA, K-Means, scalers, splits, kernels."""

from repro.ml.distances import pairwise_euclidean, pairwise_squared_euclidean, pairwise_topk
from repro.ml.flat_tree import FlatForest, FlatTree, flatten_tree
from repro.ml.kmeans import KMeans, elbow_method
from repro.ml.parallel import get_num_threads
from repro.ml.pca import PCA
from repro.ml.scalers import MinMaxScaler, StandardScaler
from repro.ml.splits import stratified_indices, train_test_split

__all__ = [
    "PCA",
    "KMeans",
    "elbow_method",
    "StandardScaler",
    "MinMaxScaler",
    "train_test_split",
    "stratified_indices",
    "pairwise_euclidean",
    "pairwise_squared_euclidean",
    "pairwise_topk",
    "FlatForest",
    "FlatTree",
    "flatten_tree",
    "get_num_threads",
]
