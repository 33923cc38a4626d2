"""Unsupervised numerical embeddings for categorical attribute datasets.

Pipeline: load a CAD, build the weighted heterogeneous networks over its
attribute values, train the attention embedding model, and assemble
per-object vectors; baseline encoders and internal cluster-validity indices
round out the comparison harness.  See the ``cli`` module for the command
line entry point.
"""

from .cavnet import (HetNet, build_hetnet, build_inter_network,
                     build_intra_network, build_node_set)
from .dataset import CAD, DatasetManifest, impute_modes, load_csv, make_cad
from .encoders import EncodedDataset, encode_frequency, encode_onehot
from .evaluation import LabeledEmbedding, calinski_harabasz, evaluate_all, silhouette
from .model import EmbeddingTable, RunConfig, compute_table, init_params
from .training import TrainReport, neca_loss, train

__version__ = "0.1.0"

__all__ = [
    "CAD", "DatasetManifest", "load_csv", "make_cad", "impute_modes",
    "HetNet", "build_node_set", "build_inter_network", "build_intra_network", "build_hetnet",
    "RunConfig", "EmbeddingTable", "init_params", "compute_table",
    "TrainReport", "neca_loss", "train",
    "EncodedDataset", "encode_onehot", "encode_frequency",
    "LabeledEmbedding", "calinski_harabasz", "silhouette", "evaluate_all",
    "__version__",
]
