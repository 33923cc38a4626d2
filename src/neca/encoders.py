"""Baseline categorical encoders producing per-object numerical vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavnet import build_node_set
from .dataset import CAD


@dataclass
class EncodedDataset:
    """Per-object vectors with per-dimension provenance labels."""

    method: str
    vectors: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] != len(self.column_labels):
            raise ValueError("vector width must match the number of column labels")


def encode_onehot(cad: CAD) -> EncodedDataset:
    """One block of binary indicators per attribute; total width |V|."""
    nodes = build_node_set(cad)
    vectors = np.zeros((cad.n, nodes.total))
    vectors[np.arange(cad.n)[:, None], nodes.ids] = 1.0
    labels = tuple(nodes.qualified(i) for i in range(nodes.total))
    return EncodedDataset("onehot", vectors, labels)


def encode_frequency(cad: CAD) -> EncodedDataset:
    """One scalar per attribute: log(n / count(token)), natural logarithm.

    Rare values encode larger; a value taken by every record encodes 0.
    """
    nodes = build_node_set(cad)
    vectors = np.log(cad.n / nodes.counts[nodes.ids])
    return EncodedDataset("frequency", vectors, tuple(cad.attribute_names))


def wrap_embedding(cad: CAD, objects: np.ndarray, method: str = "neca") -> EncodedDataset:
    """Adapt a learned per-object matrix to the common encoded-dataset shape."""
    per_attr = objects.shape[1] // cad.m
    labels = tuple(
        f"{cad.attribute_names[j]}[{k}]" for j in range(cad.m) for k in range(per_attr)
    )
    return EncodedDataset(method, objects, labels)
