"""Baseline categorical encoders producing per-object numerical vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavnet import build_node_set
from .dataset import CAD


@dataclass
class EncodedDataset:
    """Per-object vectors, one row per record, and the encoder that made them."""

    method: str
    vectors: np.ndarray


def encode_onehot(cad: CAD) -> EncodedDataset:
    """One block of binary indicators per attribute; total width |V|."""
    nodes = build_node_set(cad)
    vectors = np.zeros((cad.n, nodes.total))
    vectors[np.arange(cad.n)[:, None], nodes.ids] = 1.0
    return EncodedDataset("onehot", vectors)


def encode_frequency(cad: CAD) -> EncodedDataset:
    """One scalar per attribute: log(n / count(token)), natural logarithm.

    Rare values encode larger; a value taken by every record encodes 0.
    """
    nodes = build_node_set(cad)
    vectors = np.log(cad.n / nodes.counts[nodes.ids])
    return EncodedDataset("frequency", vectors)
