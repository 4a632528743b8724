"""The pinned micro+macro benchmark matrix behind ``repro bench``.

Micro benchmarks time the simulator's hot primitives in isolation —
histogram recording, MDC lookups, each scheme's policy stack through a
:class:`~repro.core.mee.MemoryEncryptionEngine` on FIFO DRAM channels,
and each registered DRAM scheduler through a bare
:class:`~repro.memory.dram.DRAMChannel`.  Macro benchmarks are short
full simulator runs (calibration excluded: it happens once in setup)
for a pinned schemes x workloads grid at a pinned scale, so numbers
stay comparable across baselines.

Methodology: per benchmark, ``warmup`` untimed operations, then
``repeats`` timed samples (each ``rounds`` operations) on
``time.perf_counter``; reported statistics are the *robust* set —
min / median / MAD (median absolute deviation) — plus mean and max.
Min and median are the stable estimators for "how fast can this go";
MAD bounds run-to-run noise without assuming normality.

The emitted document (``BENCH_<shortsha>.json``) is validated by
:mod:`repro.perf.schema` and compared against baselines by
:mod:`repro.perf.compare`.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.perf.schema import BENCH_FORMAT

#: The pinned macro grid (schemes x workloads, Table VIII subset):
#: the paper's headline designs over three short, distinct-access-mix
#: workloads.  Changing these renames the benchmarks, which breaks
#: baseline comparison — treat as append-only.
MACRO_SCHEMES = ("naive", "pssm", "shm", "shm_cctr")
MACRO_WORKLOADS = ("atax", "mvt", "bfs")
#: Workload scale of every macro cell (kept tiny so the full matrix
#: stays in CI territory; identical across baselines by construction).
MACRO_SCALE = 0.05
#: Scheme policy stacks pinned into the micro matrix.
POLICY_SCHEMES = ("naive", "common_ctr", "pssm", "shm", "shm_cctr")

#: Primitive operations per micro op() call.
_BATCH = 512


class BenchCase:
    """One named benchmark: ``setup()`` returns ``(op, units)`` where
    one ``op()`` call performs ``units`` primitive operations."""

    def __init__(self, name: str, kind: str, unit: str,
                 setup: Callable[[], Tuple[Callable[[], Any], int]],
                 value_scale: float) -> None:
        self.name = name
        self.kind = kind
        self.unit = unit
        self.setup = setup
        #: seconds-per-primitive-op -> reported unit (1e9 for ns/op).
        self.value_scale = value_scale


# ----------------------------------------------------------------------
# Micro benchmark setups
# ----------------------------------------------------------------------

def _setup_hist() -> Tuple[Callable[[], Any], int]:
    from repro.obs.metrics import LogHistogram

    hist = LogHistogram("bench")
    values = [float((i * 37) % 4096) + 0.5 for i in range(_BATCH)]

    def op() -> None:
        record = hist.record
        for value in values:
            record(value)

    return op, len(values)


def _setup_mdc_lookup() -> Tuple[Callable[[], Any], int]:
    from repro.common.config import MDCConfig
    from repro.metadata.caches import KIND_CTR, MetadataCaches

    def place(kind, line_key, size, is_write, critical, booked=None):
        return 0.0  # the warm-up misses' fetches go nowhere

    caches = MetadataCaches(MDCConfig(), partition_id=0, place=place)
    keys = [i % 8 for i in range(_BATCH)]  # resident working set
    for key in set(keys):
        caches.access(KIND_CTR, key, 0, False, True)

    def op() -> None:
        access = caches.access
        for key in keys:
            access(KIND_CTR, key, 0, False, True)

    return op, len(keys)


def _setup_policy(scheme: str, **overrides: Any) -> Callable[[], Tuple[Callable[[], Any], int]]:
    def setup() -> Tuple[Callable[[], Any], int]:
        from repro.common import constants
        from repro.common.address import AddressMapper
        from repro.common.config import SimConfig
        from repro.common.types import TrafficCounters
        from repro.core.mee import MemoryEncryptionEngine
        from repro.memory.dram import DRAMChannel
        from repro.metadata.counters import SharedCounter

        config = SimConfig().with_scheme(scheme, **overrides)
        gpu = config.gpu
        mapper = AddressMapper(gpu.num_partitions, gpu.interleave_bytes)
        mee = MemoryEncryptionEngine(0, config, mapper, SharedCounter())
        # Real FIFO channels, so the cells time the inlined occupancy
        # an unobserved run takes (transfers placed as they are emitted).
        mee.attach_channels(
            [DRAMChannel(gpu.dram_bytes_per_cycle, gpu.dram_latency,
                         gpu.dram_request_overhead, gpu.dram_turnaround,
                         partition=p)
             for p in range(gpu.num_partitions)],
            TrafficCounters())
        # A partition-0 address stream mixing reads with write-backs.
        accesses: List[Tuple[int, int, bool]] = []
        addr = 0
        while len(accesses) < _BATCH:
            local = mapper.to_local(addr)
            if local.partition == 0:
                accesses.append(
                    (addr, local.offset, len(accesses) % 4 == 3)
                )
            addr += constants.BLOCK_SIZE

        def op() -> None:
            on_read_miss = mee.on_read_miss
            on_writeback = mee.on_writeback
            for physical, offset, is_write in accesses:
                if is_write:
                    on_writeback(0.0, physical, offset)
                else:
                    on_read_miss(0.0, physical, offset)

        return op, len(accesses)

    return setup


def _setup_sched(name: str) -> Callable[[], Tuple[Callable[[], Any], int]]:
    def setup() -> Tuple[Callable[[], Any], int]:
        from dataclasses import replace

        from repro.common.config import GPUConfig
        from repro.memory.dram import DRAMChannel
        from repro.memory.sched import SCHEDULERS

        gpu = replace(GPUConfig(), dram_scheduler=name)
        channel = DRAMChannel(gpu.dram_bytes_per_cycle, gpu.dram_latency,
                              gpu.dram_request_overhead, gpu.dram_turnaround,
                              partition=0, scheduler=SCHEDULERS[name](gpu))
        kinds = ("data", "ctr", "mac", "bmt")
        requests = [
            (float(i * 4), 32 if i % 3 else 128, i % 5 == 4,
             (i * 416) % (1 << 20), kinds[i % 4], i % 4 == 1)
            for i in range(_BATCH)
        ]

        def op() -> None:
            service = channel.service
            for arrival, size, is_write, address, kind, critical in requests:
                service(arrival, size, is_write, address=address,
                        kind=kind, critical=critical)

        return op, len(requests)

    return setup


def _setup_macro(workload: str,
                 scheme: str) -> Callable[[], Tuple[Callable[[], Any], int]]:
    def setup() -> Tuple[Callable[[], Any], int]:
        from repro.sim.runner import Runner

        runner = Runner(scale=MACRO_SCALE)
        runner.calibration(workload)  # excluded from the timed region

        def op() -> None:
            runner.clear_results()  # re-simulate, don't serve a copy
            runner.run(workload, scheme)

        return op, 1

    return setup


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

def build_cases(smoke: bool = False,
                pattern: Optional[str] = None) -> List[BenchCase]:
    """The pinned benchmark list; ``smoke`` keeps the full micro
    matrix but only one macro cell, ``pattern`` is a substring filter
    on benchmark names."""
    from repro.memory.sched import available_schedulers

    cases = [
        BenchCase("micro.hist.record", "micro", "ns/op", _setup_hist, 1e9),
        BenchCase("micro.mdc.lookup", "micro", "ns/op", _setup_mdc_lookup, 1e9),
    ]
    for scheme in POLICY_SCHEMES:
        cases.append(BenchCase(f"micro.policy.{scheme}", "micro", "ns/op",
                               _setup_policy(scheme), 1e9))
    # The non-default integrity walker, exercised explicitly.
    cases.append(BenchCase("micro.policy.pssm_ctree", "micro", "ns/op",
                           _setup_policy("pssm",
                                         integrity_tree="counter_tree"),
                           1e9))
    for sched in available_schedulers():
        cases.append(BenchCase(f"micro.sched.{sched}", "micro", "ns/op",
                               _setup_sched(sched), 1e9))

    macro_grid = ([("atax", "shm")] if smoke else
                  [(w, s) for w in MACRO_WORKLOADS for s in MACRO_SCHEMES])
    for workload, scheme in macro_grid:
        cases.append(BenchCase(f"macro.{workload}.{scheme}", "macro",
                               "ms/run",
                               _setup_macro(workload, scheme),
                               1e3))

    if pattern:
        cases = [case for case in cases if pattern in case.name]
    return cases


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def robust_stats(samples: List[float]) -> Dict[str, float]:
    """min / median / MAD (plus mean and max) over the samples."""
    ordered = sorted(samples)
    median = statistics.median(ordered)
    mad = statistics.median([abs(value - median) for value in ordered])
    return {
        "min": ordered[0],
        "max": ordered[-1],
        "median": median,
        "mad": mad,
        "mean": sum(ordered) / len(ordered),
    }


def run_case(case: BenchCase, warmup: int, repeats: int,
             rounds: int) -> dict:
    """Run one benchmark; returns its document entry."""
    op, units = case.setup()
    if case.kind == "macro":
        rounds = 1  # one op is already a full simulator run
    for _ in range(warmup):
        op()
    samples = []
    per_sample_units = units * rounds
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(rounds):
            op()
        elapsed = perf_counter() - start
        samples.append(elapsed / per_sample_units * case.value_scale)
    return {
        "kind": case.kind,
        "unit": case.unit,
        "units_per_op": units,
        "rounds": rounds,
        "samples": samples,
        "stats": robust_stats(samples),
    }


def git_dirty(path: Path) -> Optional[bool]:
    """Whether tracked files in the checkout holding ``path`` differ
    from its commit (untracked files do not count); None outside a git
    checkout."""
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=path, capture_output=True, text=True, timeout=5, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(status.strip())


def environment_fingerprint() -> dict:
    from repro.eval.results_io import code_version

    return {
        "git_sha": code_version(),
        # A benchmark of uncommitted edits must not pass as git_sha's.
        "git_dirty": git_dirty(Path(__file__).resolve().parent),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def run_bench(
    smoke: bool = False,
    pattern: Optional[str] = None,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the matrix and return the ``bench_format`` document."""
    if repeats is None:
        repeats = 3 if smoke else 5
    if warmup is None:
        warmup = 1 if smoke else 2
    rounds = 1 if smoke else 3
    cases = build_cases(smoke=smoke, pattern=pattern)
    if not cases:
        raise ValueError(f"no benchmarks match filter {pattern!r}")
    benchmarks = {}
    for case in cases:
        if progress is not None:
            progress(case.name)
        benchmarks[case.name] = run_case(case, warmup, repeats, rounds)
    return {
        "bench_format": BENCH_FORMAT,
        "environment": environment_fingerprint(),
        "config": {
            "smoke": smoke,
            "repeats": repeats,
            "warmup": warmup,
            "rounds": rounds,
            "macro_scale": MACRO_SCALE,
        },
        "benchmarks": benchmarks,
    }


def measure_ledger_overhead(workload: str = "atax", scheme: str = "shm",
                            scale: float = MACRO_SCALE,
                            repeats: int = 3) -> dict:
    """Measure the decision ledger's host-time overhead on one macro
    cell: the cell is simulated ``repeats`` times with the NULL ledger
    and ``repeats`` times with a :class:`~repro.obs.decisions.
    DecisionLedger` attached, on one shared calibration.

    The result is *reported, never gated*: ledger overhead is an
    explicit opt-in cost, and CI archives this document as an artifact
    so the trend is visible without failing builds over it.
    """
    from repro.obs.decisions import NULL_LEDGER, DecisionLedger
    from repro.sim.runner import Runner

    runner = Runner(scale=scale)
    runner.calibration(workload)  # shared, excluded from timing

    def timed() -> float:
        runner.clear_results()
        start = perf_counter()
        runner.run(workload, scheme)
        return (perf_counter() - start) * 1e3

    runner.run(workload, scheme)  # warmup
    null_samples = [timed() for _ in range(repeats)]
    ledger = DecisionLedger()
    runner.ledger = ledger
    decisions = 0
    ledger_samples = []
    for _ in range(repeats):
        ledger.reset()
        ledger.begin_run(f"{workload}/{scheme}")
        ledger_samples.append(timed())
        decisions = len(ledger.rows)
    runner.ledger = NULL_LEDGER
    null_stats = robust_stats(null_samples)
    ledger_stats = robust_stats(ledger_samples)
    delta = (ledger_stats["median"] / null_stats["median"] - 1.0
             if null_stats["median"] else 0.0)
    return {
        "ledger_overhead_format": 1,
        "environment": environment_fingerprint(),
        "config": {"workload": workload, "scheme": scheme,
                   "scale": scale, "repeats": repeats},
        "decisions": decisions,
        "null_ms": null_stats,
        "ledger_ms": ledger_stats,
        "median_delta": delta,
    }


def default_output_name(doc: dict) -> str:
    """``BENCH_<shortsha>.json`` (``BENCH_local.json`` without git)."""
    sha = doc.get("environment", {}).get("git_sha", "")
    short = sha[:8] if sha and all(c in "0123456789abcdef" for c in sha) \
        else "local"
    return f"BENCH_{short}.json"
