"""Ablation studies for design choices the paper asserts without a
dedicated figure (DESIGN.md §6 extensions).

* **Zero-tile jumping on/off** — end-to-end effect of §4.3.
* **Inter-layer fusion on/off** — end-to-end effect of §4.5.
* **Transfer strategy** — dense fp32 vs packed-separate vs packed-compound
  (§4.6), reported as per-epoch PCIe time.
* **Partitioner quality** — METIS-like vs BFS vs label propagation (§4.1):
  how intra-edge fraction flows into non-zero tiles and modeled latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gnn.models import make_cluster_gcn
from ..graph.datasets import get_spec
from ..runtime.executor import QGTCRunConfig, qgtc_epoch_report
from ..runtime.packing import batch_transfer_time
from ..tc.hardware import RTX3090, DeviceSpec
from ..tc.kernel import KernelConfig
from .common import format_table, prepare_dataset

__all__ = [
    "run_jumping_ablation",
    "run_fusion_ablation",
    "run_transfer_ablation",
    "run_partitioner_ablation",
    "format_records",
]


def _gcn_for(name: str):
    spec = get_spec(name)
    return make_cluster_gcn(spec.feature_dim, spec.num_classes)


def run_jumping_ablation(
    *,
    datasets: tuple[str, ...] = ("Proteins", "ogbn-arxiv"),
    bits: int = 4,
    batch_size: int = 16,
    device: DeviceSpec = RTX3090,
    seed: int = 0,
) -> list[dict]:
    """Epoch time with zero-tile jumping enabled vs disabled."""
    records = []
    for name in datasets:
        prepared = prepare_dataset(name, batch_size=batch_size, seed=seed)
        model = _gcn_for(name)
        times = {}
        for jumping in (True, False):
            config = QGTCRunConfig(
                feature_bits=bits,
                kernel=KernelConfig(zero_tile_jumping=jumping),
            )
            rep = qgtc_epoch_report(prepared.profiles, model, config, device)
            times[jumping] = rep.total_ms() * prepared.projection_factor
        records.append(
            {
                "dataset": name,
                "jumping on (ms)": f"{times[True]:.1f}",
                "jumping off (ms)": f"{times[False]:.1f}",
                "speedup": f"{times[False] / times[True]:.2f}x",
            }
        )
    return records


def run_fusion_ablation(
    *,
    datasets: tuple[str, ...] = ("Proteins", "ogbn-arxiv"),
    bits: int = 4,
    device: DeviceSpec = RTX3090,
    seed: int = 0,
) -> list[dict]:
    """Epoch time with the fused epilogue vs separate elementwise kernels."""
    records = []
    for name in datasets:
        prepared = prepare_dataset(name, seed=seed)
        model = _gcn_for(name)
        times = {}
        for fused in (True, False):
            config = QGTCRunConfig(feature_bits=bits, fused=fused)
            rep = qgtc_epoch_report(prepared.profiles, model, config, device)
            times[fused] = rep.total_ms() * prepared.projection_factor
        records.append(
            {
                "dataset": name,
                "fused (ms)": f"{times[True]:.1f}",
                "unfused (ms)": f"{times[False]:.1f}",
                "speedup": f"{times[False] / times[True]:.2f}x",
            }
        )
    return records


def run_transfer_ablation(
    *,
    datasets: tuple[str, ...] = ("Proteins", "ogbn-arxiv"),
    bits: int = 4,
    batch_size: int = 8,
    device: DeviceSpec = RTX3090,
    seed: int = 0,
) -> list[dict]:
    """Per-epoch PCIe time under the three §4.6 strategies.

    Uses multi-subgraph batches: at single-subgraph granularity the PAD128
    padding of tiny subgraphs swamps the packing saving.
    """
    records = []
    for name in datasets:
        prepared = prepare_dataset(name, batch_size=batch_size, seed=seed)
        dim = get_spec(name).feature_dim
        times = {}
        bytes_moved = {}
        for mode in ("dense-fp32", "packed-separate", "packed-compound"):
            estimates = [
                batch_transfer_time(p.num_nodes, dim, bits, device, mode=mode)
                for p in prepared.profiles
            ]
            times[mode] = (
                sum(e.seconds for e in estimates) * 1e3 * prepared.projection_factor
            )
            bytes_moved[mode] = sum(e.bytes_moved for e in estimates)
        records.append(
            {
                "dataset": name,
                "dense fp32 (ms)": f"{times['dense-fp32']:.1f}",
                "packed x2 (ms)": f"{times['packed-separate']:.1f}",
                "packed compound (ms)": f"{times['packed-compound']:.1f}",
                # Time saving is capped by per-transaction PCIe latency on
                # tiny batches; byte saving shows the §4.6 traffic claim.
                "time saving": f"{times['dense-fp32'] / times['packed-compound']:.1f}x",
                "byte saving": (
                    f"{bytes_moved['dense-fp32'] / bytes_moved['packed-compound']:.1f}x"
                ),
            }
        )
    return records


def run_partitioner_ablation(
    *,
    dataset: str = "Proteins",
    bits: int = 4,
    batch_size: int = 4,
    device: DeviceSpec = RTX3090,
    seed: int = 0,
) -> list[dict]:
    """Partition quality -> tile density -> modeled latency, per method."""
    records = []
    model = _gcn_for(dataset)
    for method in ("metis", "bfs", "label_prop"):
        prepared = prepare_dataset(
            dataset, batch_size=batch_size, method=method, seed=seed
        )
        rep = qgtc_epoch_report(
            prepared.profiles, model, QGTCRunConfig(feature_bits=bits), device
        )
        nnz = sum(p.plan.nonzero_tiles for p in prepared.profiles)
        total = sum(p.plan.total_tiles for p in prepared.profiles)
        records.append(
            {
                "method": method,
                "intra-edge %": f"{100 * prepared.partition.intra_edge_fraction:.1f}",
                "balance": f"{prepared.partition.balance:.2f}",
                "nonzero tiles %": f"{100 * nnz / total:.1f}",
                "epoch (ms)": f"{rep.total_ms() * prepared.projection_factor:.1f}",
            }
        )
    return records


def format_records(records: list[dict], *, title: str) -> str:
    headers = list(records[0].keys())
    return format_table(
        headers, [[r[h] for h in headers] for r in records], title=title
    )
