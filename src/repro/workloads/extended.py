"""Extended workload set: modern GPU applications beyond Table VII.

The paper's intro motivates secure GPU memory with cloud ML and
scientific computing; its evaluation uses 2009-2015-era suites.  These
models extend the evaluation to the workload classes the motivation
names, using the same generator substrate — a check that the adaptive
design generalises (weights/embeddings are read-only and streaming;
attention KV-caches and sort buffers are not).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.workloads import patterns as pat
from repro.workloads.base import Workload, WorkloadBuilder

MB = 1 << 20
KB = 1 << 10

EXTENDED_NAMES = ["transformer-infer", "pagerank", "radix-sort"]


def _n(count: float) -> int:
    return max(1, int(count))


def transformer_infer(scale: float = 1.0) -> Workload:
    """Transformer inference: huge read-only weights streamed per
    layer, a growing read-write KV cache, small activations.

    The paper's best case generalised: weight traffic (the bulk) rides
    the shared counter + chunk MACs; only the KV cache pays freshness.
    """
    b = WorkloadBuilder("transformer-infer", bandwidth_utilization=0.85,
                        seed=21, description="LLM decoder inference")
    weights = b.alloc("weights", _n(4.5 * MB * scale))
    embed = b.alloc("embeddings", _n(0.75 * MB * scale))
    kv = b.alloc("kv_cache", _n(0.75 * MB * scale), host_init=False)
    act = b.alloc("activations", 192 * KB, host_init=False)
    for layer in range(2):
        half = weights.size // 2
        trace = pat.interleave(b.rng, [
            pat.stream_read(weights.address + layer * half, half),
            pat.gather_read(b.rng, embed.address, embed.size,
                            _n(1500 * scale), locality=0.3),
            # Attention: read the KV prefix, append new entries.
            pat.stream_read(kv.address, max(128, kv.size // 2)),
            pat.stream_write(kv.address + kv.size // 2, kv.size // 4),
            pat.stream_write(act.address, 64 * KB),
        ])
        b.kernel(f"decoder_layer{layer}", trace)
    return b.build()


def pagerank(scale: float = 1.0) -> Workload:
    """PageRank iterations: read-only graph structure gathered
    randomly, dense rank vectors ping-ponged each iteration."""
    b = WorkloadBuilder("pagerank", bandwidth_utilization=0.45,
                        seed=22, description="graph analytics")
    edges = b.alloc("edges", _n(3 * MB * scale))
    offsets = b.alloc("offsets", _n(0.375 * MB * scale))
    ranks_a = b.alloc("ranks_a", _n(0.375 * MB * scale))
    ranks_b = b.alloc("ranks_b", _n(0.375 * MB * scale), host_init=False)
    src_buf, dst_buf = ranks_a, ranks_b
    for it in range(3):
        trace = pat.interleave(b.rng, [
            pat.gather_read(b.rng, edges.address, edges.size,
                            _n(5000 * scale), locality=0.5),
            pat.stream_read(offsets.address, offsets.size),
            pat.random_read(b.rng, src_buf.address, src_buf.size,
                            _n(2500 * scale)),
            pat.stream_write(dst_buf.address, dst_buf.size),
        ])
        b.kernel(f"pagerank_it{it}", trace)
        src_buf, dst_buf = dst_buf, src_buf
    return b.build()


def radix_sort(scale: float = 1.0) -> Workload:
    """Radix sort passes: streaming reads, scattered writes into the
    destination — a freshness-heavy worst case for the read-only
    optimisation (nothing stays read-only for long)."""
    b = WorkloadBuilder("radix-sort", bandwidth_utilization=0.70,
                        seed=23, description="key-value sorting")
    keys_a = b.alloc("keys_a", _n(1.5 * MB * scale))
    keys_b = b.alloc("keys_b", _n(1.5 * MB * scale), host_init=False)
    hist = b.alloc("histogram", 192 * KB, host_init=False)
    src_buf, dst_buf = keys_a, keys_b
    for digit in range(2):
        count = pat.interleave(b.rng, [
            pat.stream_read(src_buf.address, src_buf.size),
            pat.random_write(b.rng, hist.address, hist.size, _n(2000 * scale)),
        ])
        scatter = pat.interleave(b.rng, [
            pat.stream_read(src_buf.address, src_buf.size),
            pat.hotspot_read(b.rng, hist.address, hist.size,
                             _n(1000 * scale), 8 * KB),
            pat.random_write(b.rng, dst_buf.address, dst_buf.size,
                             _n(src_buf.size // 128 * scale ** 0)),
        ])
        b.kernel(f"count_d{digit}", count)
        b.kernel(f"scatter_d{digit}", scatter)
        src_buf, dst_buf = dst_buf, src_buf
    return b.build()


EXTENDED: Dict[str, Callable[[float], Workload]] = {
    "transformer-infer": transformer_infer,
    "pagerank": pagerank,
    "radix-sort": radix_sort,
}


def build_extended(name: str, scale: float = 1.0) -> Workload:
    try:
        return EXTENDED[name](scale)
    except KeyError:
        raise KeyError(f"unknown extended workload {name!r}; "
                       f"known: {sorted(EXTENDED)}") from None
