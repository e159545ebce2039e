"""The paper's evaluation datasets (Table 1), as synthetic stand-ins.

Real Proteins/artist/BlogCatalog/PPI/ogbn-* graphs are not downloadable in
this offline environment; :func:`load_dataset` generates planted-partition
graphs whose node/edge counts, feature dimension and class count match
Table 1 (optionally scaled down for fast experimentation).  See DESIGN.md
for why this preserves the performance-relevant structure.

+------+----------------+-----------+------------+------+---------+
| Type | Dataset        | #Vertex   | #Edge      | Dim. | #Class  |
+======+================+===========+============+======+=========+
| I    | Proteins       | 43,471    | 162,088    | 29   | 2       |
| I    | artist         | 50,515    | 1,638,396  | 100  | 12      |
| II   | BlogCatalog    | 88,784    | 2,093,195  | 128  | 39      |
| II   | PPI            | 56,944    | 818,716    | 50   | 121     |
| III  | ogbn-arxiv     | 169,343   | 1,166,243  | 128  | 40      |
| III  | ogbn-products  | 2,449,029 | 61,859,140 | 100  | 47      |
+------+----------------+-----------+------------+------+---------+
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .csr import CSRGraph
from .generators import planted_partition_graph

__all__ = ["DatasetSpec", "TABLE1", "dataset_names", "get_spec", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Shape metadata of one Table 1 dataset."""

    name: str
    type_tag: str  # paper's Type I / II / III grouping
    num_nodes: int
    num_edges: int
    feature_dim: int
    num_classes: int
    #: Planted clustering strength used for the synthetic stand-in;
    #: citation/protein graphs are strongly clustered, social graphs less.
    intra_fraction: float = 0.85

    def scaled(self, scale: float) -> "DatasetSpec":
        """Proportionally smaller dataset (same density and dims)."""
        if not 0 < scale <= 1:
            raise ConfigError(f"scale must be in (0, 1], got {scale}")
        if scale == 1.0:
            return self
        return DatasetSpec(
            name=f"{self.name}@{scale:g}",
            type_tag=self.type_tag,
            num_nodes=max(int(self.num_nodes * scale), 64),
            num_edges=max(int(self.num_edges * scale), 128),
            feature_dim=self.feature_dim,
            num_classes=self.num_classes,
            intra_fraction=self.intra_fraction,
        )


#: Paper Table 1, verbatim sizes.
TABLE1: tuple[DatasetSpec, ...] = (
    DatasetSpec("Proteins", "I", 43_471, 162_088, 29, 2),
    DatasetSpec("artist", "I", 50_515, 1_638_396, 100, 12, intra_fraction=0.80),
    DatasetSpec("BlogCatalog", "II", 88_784, 2_093_195, 128, 39, intra_fraction=0.75),
    DatasetSpec("PPI", "II", 56_944, 818_716, 50, 121),
    DatasetSpec("ogbn-arxiv", "III", 169_343, 1_166_243, 128, 40),
    DatasetSpec("ogbn-products", "III", 2_449_029, 61_859_140, 100, 47),
)

_BY_NAME = {spec.name.lower(): spec for spec in TABLE1}


def dataset_names() -> list[str]:
    """Names of the six Table 1 datasets, in paper order."""
    return [spec.name for spec in TABLE1]


def get_spec(name: str) -> DatasetSpec:
    """Look up a Table 1 dataset spec by (case-insensitive) name."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown dataset {name!r}; available: {dataset_names()}"
        ) from None


def load_dataset(
    name: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    with_features: bool = True,
    feature_noise: float = 1.0,
) -> CSRGraph:
    """Generate the synthetic stand-in for a Table 1 dataset.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    scale:
        Proportional size reduction (1.0 = paper-size).  The benchmark
        harness defaults to small scales so a full run finishes in minutes;
        EXPERIMENTS.md records which scale produced each number.
    seed:
        Generator seed — datasets are deterministic given (name, scale, seed).
    with_features:
        Attach class-informative features (needed by accuracy experiments;
        performance-only runs can skip them to save memory).
    feature_noise:
        Noise scale of the class-informative features; the accuracy study
        raises it to make the classification task non-trivial.
    """
    spec = get_spec(name).scaled(scale)
    # zlib.crc32, not hash(): Python string hashing is salted per process,
    # which would make "deterministic given (name, scale, seed)" a lie.
    name_hash = zlib.crc32(name.lower().encode())
    rng = np.random.default_rng(seed ^ name_hash)
    return planted_partition_graph(
        spec.num_nodes,
        spec.num_edges,
        intra_fraction=spec.intra_fraction,
        feature_dim=spec.feature_dim if with_features else None,
        num_classes=spec.num_classes if with_features else None,
        feature_noise=feature_noise,
        rng=rng,
        name=spec.name,
    )
