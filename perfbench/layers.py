"""Which library calls each layer's spans cover, and the per-layer metrics.

Layers are named after the ``repro.*`` modules.  Every wrapped target is
a public function or method; private helpers (the engine's conservation
walk, for one) count toward the self time of the public call that runs
them.  Sub-microsecond bookkeeping calls are counted, never timed.
"""

from __future__ import annotations

import weakref
from typing import Dict, List

import repro.attn.paged as attn_paged
import repro.baselines.flash_decoding as flash_decoding
import repro.core.attention as core_attention
from repro.attn.paged import PagedBitBackend, PagedBitKVCache
from repro.attn.protocol import AttentionBackend
from repro.attn.runner import ModelRunner
from repro.cluster.router import Router
from repro.core.attention import BitDecoding
from repro.faults.audit import InvariantAuditor
from repro.model.transformer import TinyTransformer
from repro.pages.allocator import PageAllocator
from repro.pages.page_table import PageTable
from repro.pages.prefix_cache import PrefixCache
from repro.pages.tiers import TieredPageStore
from repro.serving.engine import ContinuousBatchingEngine

from tracer import Tracer
from workloads import percentile


def _lifecycle_rid(args):
    return args[1].request.req_id


def _request_rid(args):
    return args[1].req_id


#: ``(layer, owner, attribute, request-id extractor)`` of every timed call.
SPANS = [
    ("serving", ContinuousBatchingEngine, "run", None),
    ("serving", ContinuousBatchingEngine, "advance_until", None),
    ("serving", ContinuousBatchingEngine, "finish", None),
    ("serving", ContinuousBatchingEngine, "submit", _request_rid),
    ("cluster", Router, "dispatch", _request_rid),
    ("cluster", Router, "run", None),
    ("pages", PageTable, "add_sequence", None),
    ("pages", PageTable, "extend_sequence", None),
    ("pages", PageTable, "append_token", None),
    ("pages", PageTable, "release_sequence", None),
    ("pages", PageTable, "fork_sequence", None),
    ("pages", PageTable, "ensure_exclusive", None),
    ("pages", PrefixCache, "match", None),
    ("pages", PrefixCache, "insert", None),
    ("pages.tiers", TieredPageStore, "start_step", None),
    ("pages.tiers", TieredPageStore, "ensure_resident", None),
    ("pages.tiers", TieredPageStore, "fault_in", None),
    ("pages.tiers", TieredPageStore, "demote", None),
    ("pages.tiers", TieredPageStore, "absorb_prefetch", None),
    ("pages.tiers", TieredPageStore, "touch", None),
    ("pages.tiers", TieredPageStore, "pin", None),
    ("pages.tiers", TieredPageStore, "drain_bad_pages", None),
    ("model", AttentionBackend, "decode_step_ms", None),
    ("model", AttentionBackend, "mixed_step_ms", None),
    ("model", AttentionBackend, "prefill_time_ms", None),
    ("model", TinyTransformer, "decode_step", None),
    ("model", TinyTransformer, "prefill", None),
    ("model", TinyTransformer, "prefill_chunk", None),
    ("gpu", core_attention, "simulate_kernel", None),
    ("gpu", flash_decoding, "simulate_kernel", None),
    ("attn", PagedBitBackend, "decode_step", None),
    ("attn", PagedBitBackend, "decode_step_looped", None),
    ("attn", PagedBitBackend, "prefill", None),
    ("attn", PagedBitBackend, "append_kv", None),
    ("attn", PagedBitKVCache, "reserve", None),
    ("attn", PagedBitKVCache, "write_rows", None),
    ("attn", PagedBitKVCache, "append_rows", None),
    ("attn", PagedBitKVCache, "write_rows_group", None),
    ("attn", PagedBitKVCache, "dequant_seq", None),
    ("attn", PagedBitKVCache, "dequant_group", None),
    ("attn", ModelRunner, "on_admit", _lifecycle_rid),
    ("attn", ModelRunner, "prefill", _lifecycle_rid),
    ("attn", ModelRunner, "decode", _lifecycle_rid),
    ("attn", ModelRunner, "decode_batch", None),
    ("attn", ModelRunner, "on_preempt", _lifecycle_rid),
    ("attn", ModelRunner, "on_abort", _lifecycle_rid),
    ("attn", ModelRunner, "on_swap_out", _lifecycle_rid),
    ("attn", ModelRunner, "on_swap_in", _lifecycle_rid),
    ("attn", ModelRunner, "on_finish", _lifecycle_rid),
    ("core", BitDecoding, "decode", None),
    ("core", attn_paged, "flush_blocks", None),
    ("core", core_attention, "flush_blocks", None),
    ("faults", InvariantAuditor, "audit", None),
]

#: ``(counter, owner, attribute)`` of every counted-only call.
COUNTS = [
    ("pages.refcount_calls", PageAllocator, "refcount"),
    ("pages.alloc_calls", PageAllocator, "allocate"),
    ("pages.release_calls", PageAllocator, "release"),
]

_RUNNER = {name for layer, owner, name, _ in SPANS if owner is ModelRunner}
_DECODE = {"decode_step", "decode_step_looped"}
_PRICING = {"decode_step_ms", "mixed_step_ms", "prefill_time_ms"}
_WRITE = {"prefill", "append_kv", "reserve", "write_rows", "append_rows", "write_rows_group"}


class DequantBytes:
    """Distinct bytes of the arrays the dequant calls return.

    Memoized calls hand back the same arrays again; only an array not
    seen before (checked by identity through a weak reference, so the
    probe keeps nothing alive) adds its ``nbytes``.
    """

    def __init__(self) -> None:
        self.nbytes = 0
        self._seen: Dict[int, weakref.ref] = {}

    def wrap(self, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            for arr in out:
                ref = self._seen.get(id(arr))
                if ref is None or ref() is not arr:
                    self._seen[id(arr)] = weakref.ref(arr)
                    self.nbytes += arr.nbytes
            return out

        return recorded


def instrument(tracer: Tracer) -> DequantBytes:
    """Patch every layer target for one traced round (undo with
    ``tracer.restore()``)."""
    dequant = DequantBytes()
    for layer, owner, attr, rid in SPANS:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if attr.startswith("dequant_"):
            tracer.patch(
                owner, attr, lambda fn, label=label: tracer.span("attn", label, dequant.wrap(fn))
            )
        else:
            tracer.patch(
                owner,
                attr,
                lambda fn, layer=layer, label=label, rid=rid: tracer.span(layer, label, fn, rid),
            )
    for counter, owner, attr in COUNTS:
        tracer.patch(owner, attr, lambda fn, counter=counter: tracer.counter(counter, fn))
    return dequant


def per_layer_metrics(tracer: Tracer, dequant: DequantBytes, modeled, state) -> Dict[str, float]:
    """Per-layer metrics of one traced round plus its modeled values."""
    layers = tracer.layer_table()
    names = tracer.name_table()

    def layer(name, field="self_s"):
        return layers.get(name, {}).get(field, 0.0)

    def by_name(layer_name, attrs, field="self_s", owners=None):
        return sum(
            row[field]
            for (lay, label), row in names.items()
            if lay == layer_name
            and label.split(".")[-1] in attrs
            and (owners is None or label.split(".")[0] in owners)
        )

    counts = tracer.counts
    kernel_steps = state.get("step_ms", [])
    steps = modeled.get("serving.steps", 0)
    attn_decode_calls = tracer.outer_calls(
        lambda key: key[0] == "attn" and key[1].split(".")[-1] in _DECODE
    )
    core_decode_calls = by_name("core", {"decode"}, "calls")
    packed_mb = modeled.get("attn.packed_mb", 0.0)
    # Kernel launches per decode step and layer: the runner's batched
    # decode steps when tokens execute, else the backend's decode calls.
    runner_steps = by_name("attn", {"decode_batch"}, "calls", owners={"ModelRunner"})
    steps_x_layers = runner_steps * state.get("layers", 1) if runner_steps else attn_decode_calls
    launches_per_step = core_decode_calls / steps_x_layers if steps_x_layers else 0.0
    out = {
        "serving.self_s": layer("serving"),
        "serving.wall_per_step_us": layer("serving", "incl_s") / steps * 1e6 if steps else 0.0,
        "pages.self_s": layer("pages"),
        "pages.refcount_calls": counts["pages.refcount_calls"],
        "pages.alloc_calls": counts["pages.alloc_calls"],
        "pages.release_calls": counts["pages.release_calls"],
        "pages.extend_calls": by_name("pages", {"extend_sequence"}, "calls"),
        "pages.tiers.self_s": layer("pages.tiers"),
        "cluster.self_s": layer("cluster"),
        "model.pricing_calls": by_name("model", _PRICING, "calls"),
        "model.pricing_self_s": by_name("model", _PRICING),
        "model.transformer_decode_self_s": by_name("model", {"decode_step"}),
        "model.transformer_prefill_self_s": by_name("model", {"prefill", "prefill_chunk"}),
        "gpu.simulate_calls": layers.get("gpu", {}).get("calls", 0),
        "gpu.simulate_self_s": layer("gpu"),
        "attn.decode_calls": attn_decode_calls,
        "attn.decode_self_s": by_name("attn", _DECODE),
        "attn.launches_per_step": launches_per_step,
        "attn.dequant_calls": by_name("attn", {"dequant_seq", "dequant_group"}, "calls"),
        "attn.dequant_self_s": by_name("attn", {"dequant_seq", "dequant_group"}),
        "attn.dequant_out_mb": dequant.nbytes / 1e6,
        "attn.memo_ratio": dequant.nbytes / 1e6 / packed_mb if packed_mb else 0.0,
        "attn.write_self_s": by_name(
            "attn", _WRITE, owners={"PagedBitBackend", "PagedBitKVCache"}
        ),
        "attn.runner_self_s": by_name("attn", _RUNNER, owners={"ModelRunner"}),
        "attn.cold_step_ms": state.get("cold_ms", 0.0),
        "attn.step_wall_ms.p50": percentile(kernel_steps, 50) if kernel_steps else 0.0,
        "attn.step_wall_ms.p90": percentile(kernel_steps, 90) if kernel_steps else 0.0,
        "core.decode_calls": core_decode_calls,
        "core.decode_self_s": by_name("core", {"decode"}),
        "core.flush_self_s": by_name("core", {"flush_blocks"}),
        "faults.audit_calls": layers.get("faults", {}).get("calls", 0),
        "faults.audit_self_s": layer("faults"),
    }
    return out


def layer_rows(tracer: Tracer, wall_s: float) -> List[tuple]:
    """``(layer, calls, self_s, share of wall)`` rows, largest self first."""
    rows = [
        (name, int(row["calls"]), row["self_s"], row["self_s"] / wall_s if wall_s else 0.0)
        for name, row in tracer.layer_table().items()
    ]
    for counter, value in sorted(tracer.counts.items()):
        rows.append((counter + " (count only)", int(value), 0.0, 0.0))
    return sorted(rows, key=lambda r: -r[2])
