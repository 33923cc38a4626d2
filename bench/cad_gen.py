"""Seeded latent-class generator for categorical attribute datasets (CADs).

Records are split over planted classes in proportion to the class prior
(the class sizes of the real dataset), in a seeded order.  Each attribute
value is then drawn from its record's class's categorical distribution over
the attribute's domain, and the per-class distributions are themselves
drawn from a symmetric Dirichlet.  Because the classes are planted, CH and
silhouette against them are meaningful without any downloaded data.

The record count n, the attribute count m and the class count come from the
header comment of a bundled manifest (for example ``mu.manifest`` reads
"8124 cases ..., 22 attributes, 2 classes"), so the synthetic tables keep
the shapes of the datasets the package ships for.  Only numpy is used; the
neca package is never imported here, so generation stays outside every
timed region of the benchmark.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MANIFEST_DIR = Path(__file__).resolve().parent.parent / "src" / "neca" / "manifests"

_SHAPE = re.compile(r"(\d+) \w+.*?(\d+) (?:categorical )?attributes.*?(\d+) classes")


@dataclass(frozen=True)
class Shape:
    n: int
    m: int
    classes: int


def manifest_shape(name: str, manifest_dir: Path = MANIFEST_DIR) -> Shape:
    """n, m and the class count from a bundled manifest's header comment."""
    path = manifest_dir / f"{name}.manifest"
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            match = _SHAPE.search(line)
            if match:
                return Shape(*(int(g) for g in match.groups()))
    raise ValueError(f"{path}: no 'N cases, M attributes, T classes' header comment")


@dataclass(frozen=True)
class GeneratedCAD:
    """A generated table written as CSV, with the facts a reader needs."""

    path: Path
    n: int
    m: int
    classes: int
    domain_sizes: tuple[int, ...]
    missing_cells: int


def class_sizes(prior, n: int) -> np.ndarray:
    """Split n records over the classes in proportion to ``prior``.

    Largest remainders get the leftover records, ties to the earlier class.
    """
    exact = np.asarray(prior, dtype=np.float64) * n
    sizes = np.floor(exact).astype(np.int64)
    order = sorted(range(len(sizes)), key=lambda c: -(exact[c] - sizes[c]))
    sizes[order[:n - sizes.sum()]] += 1
    return sizes


def generate(path: Path, n: int, domain_sizes: tuple[int, ...], class_prior,
             seed: int, profile_seed: int, alpha: float = 0.5,
             missing_rate: float = 0.0) -> GeneratedCAD:
    """Write a latent-class CAD to ``path`` as CSV with a trailing ``class`` column.

    ``profile_seed`` draws the population: one Dirichlet(``alpha``) value
    distribution per class and attribute (smaller ``alpha`` means more
    class-specific values).  ``seed`` draws the sample from it: which records
    get which class (the class sizes follow ``class_prior``), their values,
    and which cells are missing (a share ``missing_rate`` of feature cells
    becomes ``?``).  The same arguments always produce the same file bytes.
    """
    prior = np.asarray(class_prior, dtype=np.float64)
    prior = prior / prior.sum()
    population = np.random.default_rng(profile_seed)
    profiles = [population.dirichlet(np.full(size, alpha), size=len(prior))
                for size in domain_sizes]
    rng = np.random.default_rng(seed)
    m = len(domain_sizes)
    labels = rng.permutation(np.repeat(np.arange(len(prior)), class_sizes(prior, n)))
    columns = np.empty((n, m), dtype=np.int64)
    for j, size in enumerate(domain_sizes):
        # inverse-CDF draw per record from its class's profile
        cdf = np.cumsum(profiles[j], axis=1)
        u = rng.random(n)
        columns[:, j] = np.minimum((u[:, None] > cdf[labels]).sum(axis=1), size - 1)
    missing = rng.random((n, m)) < missing_rate
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"a{j}" for j in range(m)] + ["class"])
        for i in range(n):
            row = ["?" if missing[i, j] else f"v{columns[i, j]}" for j in range(m)]
            writer.writerow(row + [f"c{labels[i]}"])
    return GeneratedCAD(path, n, m, len(prior), tuple(domain_sizes), int(missing.sum()))
