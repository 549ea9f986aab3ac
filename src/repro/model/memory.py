"""Device-memory accounting shared by the static and dynamic serving models.

One chain of numbers drives every serving result in the paper (Figs. 12b,
13, Table I): bytes per cached token at a given bit width, the device
memory left for KV after weights, and how many sequences that budget holds.
Both consumers of that chain live on top of this module:

- :mod:`repro.model.serving` — the *static* model (max batch that fits,
  throughput at that batch);
- :mod:`repro.serving` — the *dynamic* continuous-batching engine, which
  turns the same byte budget into a physical page pool and schedules
  request traffic over it.

Keeping the constants and formulas here means the two can never disagree
about what a cache format costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.gpu.arch import ArchSpec
from repro.model.config import ModelConfig

#: Fraction of device memory usable for weights+cache (allocator slack,
#: activations, CUDA context).
USABLE_MEMORY_FRACTION = 0.9


@dataclass(frozen=True)
class CacheFormat:
    """Storage cost of one KV-cache format."""

    name: str
    bits_per_value: float
    #: Metadata bytes per token per layer (scales/zeros across heads).
    meta_bytes_per_token_layer: float = 0.0
    #: Extra resident workspace the system needs, as a function of
    #: (batch, seq_len) -> bytes (e.g. KIVI's materialized score matrix).
    workspace_bytes: Optional[Callable[[int, int], float]] = None
    #: FP16 residual window kept per sequence (Sec. IV-A(2)): the newest
    #: tokens stay unquantized until a block of ``N_r`` fills up, so each
    #: resident sequence pins this many full-precision tokens on top of its
    #: packed pages.
    residual_window_tokens: int = 0

    def __post_init__(self) -> None:
        if self.residual_window_tokens < 0:
            raise ValueError(
                f"residual_window_tokens must be non-negative (got {self.residual_window_tokens})"
            )


def fp16_format() -> CacheFormat:
    return CacheFormat(name="FP16", bits_per_value=16.0)


def int_format(
    bits: int,
    model: ModelConfig,
    group_size: int = 64,
    residual_window: int = 0,
) -> CacheFormat:
    """Integer cache with channel-wise keys + per-token values (half2)."""
    k_meta = model.hkv * model.head_dim / group_size * 4.0
    v_meta = model.hkv * 4.0
    return CacheFormat(
        name=f"INT{bits}",
        bits_per_value=float(bits),
        meta_bytes_per_token_layer=k_meta + v_meta,
        residual_window_tokens=residual_window,
    )


def cache_bytes_per_token(model: ModelConfig, fmt: CacheFormat) -> float:
    """Bytes one cached token costs across all layers (packed + metadata)."""
    per_layer = (
        2.0 * model.hkv * model.head_dim * fmt.bits_per_value / 8.0
        + fmt.meta_bytes_per_token_layer
    )
    return model.n_layers * per_layer


def residual_bytes_per_seq(model: ModelConfig, fmt: CacheFormat) -> float:
    """Fixed FP16 residual-buffer bytes each resident sequence pins."""
    return fmt.residual_window_tokens * model.kv_bytes_per_token(16.0)


def memory_required_bytes(
    model: ModelConfig,
    fmt: CacheFormat,
    batch: int,
    seq_len: int,
    n_gpus: int = 1,
) -> float:
    """Device-resident bytes at a serving point (per GPU)."""
    total = model.weights_bytes() / n_gpus
    total += batch * seq_len * cache_bytes_per_token(model, fmt) / n_gpus
    total += batch * residual_bytes_per_seq(model, fmt) / n_gpus
    if fmt.workspace_bytes is not None:
        total += fmt.workspace_bytes(batch, seq_len) / n_gpus
    return total


def memory_budget_bytes(arch: ArchSpec) -> float:
    """Usable device bytes (HBM minus the reserved fraction)."""
    return arch.memory_gb * (1024**3) * USABLE_MEMORY_FRACTION


def kv_budget_bytes(model: ModelConfig, arch: ArchSpec, n_gpus: int = 1) -> float:
    """Bytes left for the KV cache once weights are resident (per GPU)."""
    return max(0.0, memory_budget_bytes(arch) - model.weights_bytes() / n_gpus)


def page_bytes(model: ModelConfig, fmt: CacheFormat, page_size: int) -> float:
    """Physical bytes of one ``page_size``-token page in this format."""
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    return page_size * cache_bytes_per_token(model, fmt)


def pages_in_budget(
    model: ModelConfig, fmt: CacheFormat, page_size: int, budget_bytes: float
) -> int:
    """Pages a byte budget holds — the knob that makes "same memory,
    different bit width" comparable: lower-bit formats get more pages."""
    return int(budget_bytes // page_bytes(model, fmt, page_size))


#: The three places a physical page can live in the tiered store.
MEMORY_TIERS = ("device", "host", "disk")


@dataclass(frozen=True)
class MemoryTierModel:
    """Analytical bandwidth/latency model of page migration between tiers.

    Device <-> host transfers ride PCIe (one DMA per page migration);
    host <-> disk transfers ride NVMe, whose read and write bandwidths
    differ.  A device <-> disk migration stages through host memory and
    pays both legs.  Defaults approximate PCIe 4.0 x16 and a datacenter
    NVMe drive — deliberately round numbers, since every consumer prices
    *relative* costs (swap vs recompute), not absolute hardware truth.
    """

    pcie_gbs: float = 25.0
    pcie_latency_us: float = 10.0
    nvme_read_gbs: float = 7.0
    nvme_write_gbs: float = 3.5
    nvme_latency_us: float = 80.0

    def _leg_ms(self, nbytes: float, gbs: float, latency_us: float) -> float:
        return latency_us * 1e-3 + nbytes / (gbs * 1e9) * 1e3

    def transfer_ms(self, nbytes: float, src: str, dst: str) -> float:
        """Milliseconds to move ``nbytes`` from tier ``src`` to ``dst``."""
        for tier in (src, dst):
            if tier not in MEMORY_TIERS:
                raise ValueError(f"unknown memory tier {tier!r}; expected {MEMORY_TIERS}")
        if src == dst:
            return 0.0
        ms = 0.0
        if "device" in (src, dst):
            ms += self._leg_ms(nbytes, self.pcie_gbs, self.pcie_latency_us)
        if "disk" in (src, dst):
            gbs = self.nvme_read_gbs if src == "disk" else self.nvme_write_gbs
            ms += self._leg_ms(nbytes, gbs, self.nvme_latency_us)
        return ms


def page_pool_size(
    model: ModelConfig,
    arch: ArchSpec,
    fmt: CacheFormat,
    page_size: int = 64,
    n_gpus: int = 1,
    reserved_seqs: int = 0,
) -> int:
    """Size of the system-wide page pool the device(s) can back.

    KV pages are sharded across tensor-parallel ranks exactly like
    :func:`memory_required_bytes` assumes, so the pool is sized from the
    *total* KV budget (per-GPU budget times ``n_gpus``) against the full
    per-page byte cost — the static and dynamic models stay consistent.

    ``reserved_seqs`` preallocates FP16 residual buffers for that many
    batch slots (the serving engine reserves its max-batch worth), so the
    page pool never eats the residual working set.
    """
    budget = kv_budget_bytes(model, arch, n_gpus) * n_gpus
    budget -= reserved_seqs * residual_bytes_per_seq(model, fmt)
    if budget <= 0:
        return 0
    return pages_in_budget(model, fmt, page_size, budget)
