"""Byte-identical embeddings across BLAS thread counts at a realistic and a large |V|.

Criterion 6 embeds the six-row toy table, where every dense product is too
small for BLAS to split across threads.  Here the tables have the DE shape
(33 four-valued attributes and one many-valued one): with about 60 values
|V| is near the largest bundled dataset's, and with 300 values |V| = 401,
where unchunked BLAS products round differently under one and several
threads.  |V| is odd: when it is a multiple of a BLAS kernel's tile width,
a threaded split can round like the single-threaded product and hide a
difference.
"""

import csv
import hashlib
import os
import subprocess
import sys

import numpy as np

from neca.cavnet import build_node_set
from neca.dataset import DatasetManifest, load_csv


def write_table(path, n=300, small=33, small_size=4, large_size=61, seed=11):
    rng = np.random.default_rng(seed)
    sizes = [small_size] * small + [large_size]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"a{j}" for j in range(len(sizes))])
        for _ in range(n):
            writer.writerow([f"v{rng.integers(k)}" for k in sizes])


def assert_same_bytes_under_1_and_4_threads(tmp_path, n, large_size, min_nodes):
    data = tmp_path / "table.csv"
    write_table(data, n=n, large_size=large_size)
    num_nodes = build_node_set(load_csv(data, DatasetManifest(name="t"))).total
    assert num_nodes >= min_nodes and num_nodes % 2 == 1
    digests = {}
    for threads in ("1", "4"):
        out = tmp_path / f"emb_{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "neca", "embed", str(data), "--out", str(out),
             "--epochs", "3", "--seed", "5"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[threads] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests["1"] == digests["4"], digests


def test_embedding_bytes_do_not_depend_on_blas_threads(tmp_path):
    assert_same_bytes_under_1_and_4_threads(tmp_path, n=300, large_size=61, min_nodes=150)


def test_embedding_bytes_do_not_depend_on_blas_threads_at_401_nodes(tmp_path):
    assert_same_bytes_under_1_and_4_threads(tmp_path, n=650, large_size=300, min_nodes=401)
