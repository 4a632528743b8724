"""Learned adaptive security policies (the ROADMAP's ML-guided item).

The paper's detectors are fixed heuristics — an all-ones streaming bit
vector, K = 32 monitor accesses, a 6 K-cycle timeout, host-copy-only
read-only marking — that thrash under phase churn and multi-tenant
contention.  This module swaps them for *online learned* predictors
trained on exactly the substrate the decision ledger
(:mod:`repro.obs.decisions`) records: the stable per-region 11-float
feature vector, with sample weights derived from the misprediction
cost measured by the MEE's ``_led_begin``/``_led_end`` emission scope.

Two policy families, each one ``register_scheme`` entry away from the
whole stack (SimConfig / Runner / campaign / CLI):

* ``pssm_learned`` (``learned_policy="logit"``) — the adaptive
  machinery of SHM (shared read-only counter, dual-granularity MACs)
  driven by online logistic regression instead of the paper's bit
  vectors.  The streaming model is *cost-sensitive*: it only ever
  vetoes the heuristic toward RANDOM, when the measured expected cost
  of a wrong STREAM prediction exceeds the expected value of the
  coarse-MAC path — so on stable workloads it converges to the
  heuristic, and under churn it stops paying the expensive
  predicted-STREAM/verdict-RANDOM remediation.  The read-only model
  *promotes* regions the host never marked after a long store-free
  read streak, and demotions train it with the measured propagation
  cost as the sample weight.

* ``shm_bandit`` (``learned_policy="bandit"``) — per-region
  epsilon-greedy contextual bandit over protection *arms*: the cross
  product of counter mode (shared read-only counter + BMT exclusion
  vs. plain split counters under the full BMT) and MAC granularity
  (dual vs. block-only).  Every region re-chooses its arm each epoch
  from measured reward = proxy savings − charged misprediction stall.

Determinism: all arithmetic is plain int/float, exploration is seeded
by ``zlib.crc32`` over ``(partition, region, epoch)`` — no ``random``
module state, no ``hash()`` — so learned-scheme runs are byte-identical
between serial and pool campaigns and under any ``PYTHONHASHSEED``
(pinned by the determinism suite).

The taps are the same shared decision sites the ledger uses, and the
exact-type fusion check in
:class:`~repro.core.mee.MemoryEncryptionEngine` routes learned
subclasses onto the generic (shared) policy path.
"""

from __future__ import annotations

import zlib
from math import exp
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.config import DetectorConfig
from repro.common.types import Pattern, Scheme
from repro.core.policies.base import CounterPolicy, MACPolicy
from repro.core.policies.counter import (
    CommonCounterPolicy,
    SharedReadonlyCounterPolicy,
    SplitCounterPolicy,
)
from repro.core.policies.mac import DualGranularityMACPolicy
from repro.core.policies.registry import SCHEME_REGISTRY, register_scheme
from repro.core.readonly import ReadOnlyDetector
from repro.core.streaming import StreamingDetector, Verdict
from repro.obs.decisions import _GAP_BUCKETS, _RegionState

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.core.mee import MemoryEncryptionEngine

#: Length of the ledger's per-region feature vector.
FEATURES = 3 + _GAP_BUCKETS

#: SGD step for the online logistic models.
LEARNING_RATE = 0.15

#: Stall cycles mapped to one extra unit of sample weight.
COST_NORM = 256.0

#: Cap on a single sample's weight (a catastrophic mispredict teaches
#: hard, but must not blow the weights up).
MAX_SAMPLE_WEIGHT = 8.0

#: Chunk verdicts before a chunk's own features outrank the
#: partition-global fallback, and model updates before the streaming
#: model may veto the heuristic (cold start = the paper's detector).
MIN_REGION_OBS = 2
MIN_MODEL_UPDATES = 8

#: Proxy stall cycles one STREAM verdict's worth of coarse chunk-MAC
#: reads saves over the per-block path (~K monitored accesses each
#: skipping a block-MAC probe; reward shaping — the measured
#: misprediction costs dominate the veto decision).
CHUNK_READ_SAVING = 32.0

#: Proxy stall cycles one shared-counter read saves (skipped counter
#: fetch + BMT walk when the metadata missed on chip).
SHARED_READ_SAVING = 2.0

#: Proxy stall cycles a single coarse chunk-MAC read saves over one
#: block-MAC probe (the bandit's per-access reward unit).
COARSE_READ_SAVING = 2.0

#: Store-free reads of a region before the learned read-only model
#: considers promoting it.
PROMOTE_STREAK = 64

#: Minimum model score to promote (once the model has been trained).
PROMOTE_THRESHOLD = 0.5

#: Bandit: accesses per region epoch, and the exploration rate.
EPOCH_ACCESSES = 256
EPSILON = 0.1

#: The bandit's protection arms: (counter mode, MAC granularity).
#: "shared" keeps predicted-read-only reads on the shared counter and
#: out of the BMT (the paper's design); "split" folds the region back
#: under split counters + the full BMT.  "dual" allows the coarse
#: chunk-MAC read path; "block" pins the region to per-block MACs.
#: Arm 0 is the paper's composition — the cold-start default.
ARMS: Tuple[Tuple[str, str], ...] = (
    ("shared", "dual"),
    ("shared", "block"),
    ("split", "dual"),
    ("split", "block"),
)


def crc_unit(*parts: object) -> float:
    """Deterministic pseudo-uniform draw in [0, 1): ``crc32`` of the
    stringified parts.  No RNG state, immune to ``PYTHONHASHSEED``."""
    key = ":".join(str(p) for p in parts).encode("ascii")
    return zlib.crc32(key) / 4294967296.0


def _policy_stall(mee: "MemoryEncryptionEngine", cost_bytes: float,
                  cost_transfers: int) -> float:
    """The ledger's analytic stall model, computed policy-side so the
    learned feedback works with or without a ledger attached."""
    gpu = mee.config.gpu
    return (cost_transfers * gpu.dram_request_overhead
            + cost_bytes / gpu.dram_bytes_per_cycle)


class OnlineLogit:
    """Online logistic regression over the ledger's 11-float fv.

    Plain-float SGD on the log loss; ``weight`` scales one sample's
    step (misprediction cost makes expensive mistakes teach harder).
    """

    __slots__ = ("weights", "bias", "lr", "updates")

    def __init__(self, lr: float = LEARNING_RATE, bias: float = 0.0) -> None:
        self.weights = [0.0] * FEATURES
        self.bias = bias
        self.lr = lr
        self.updates = 0

    def score(self, fv: List[float]) -> float:
        """P(label = 1) for one feature vector."""
        z = self.bias
        weights = self.weights
        for i in range(FEATURES):
            z += weights[i] * fv[i]
        if z >= 30.0:
            return 1.0
        if z <= -30.0:
            return 0.0
        return 1.0 / (1.0 + exp(-z))

    def update(self, fv: List[float], label: float,
               weight: float = 1.0) -> None:
        if weight > MAX_SAMPLE_WEIGHT:
            weight = MAX_SAMPLE_WEIGHT
        step = (label - self.score(fv)) * self.lr * weight
        self.bias += step
        weights = self.weights
        for i in range(FEATURES):
            weights[i] += step * fv[i]
        self.updates += 1


# ---------------------------------------------------------------------------
# Learned detectors
# ---------------------------------------------------------------------------

class LearnedStreamingDetector(StreamingDetector):
    """The paper's streaming detector plus a cost-sensitive logistic
    veto.

    The bit vector stays the baseline prediction, and the veto applies
    at *predict* time: when the partition-global verdict context says
    the measured expected cost of predicting STREAM (probability of a
    RANDOM verdict x the mean charged cost of that remediation)
    exceeds its expected value (probability of a STREAM verdict x the
    mild random->stream remedy plus the foregone coarse-read saving),
    every STREAM prediction is vetoed to RANDOM — *before* the first
    misprediction of a freshly churned chunk is paid, which a
    verdict-time override can never do (by verdict delivery the bit
    vector has already learned the same fact).  Chunks with enough
    history of their own get a per-chunk decision instead: a RANDOM
    override, or a STREAM exemption from the global veto.  The veto
    only ever turns STREAM into RANDOM: forcing STREAM against the
    heuristic has no measured upside, and the one-sided rule keeps
    stable workloads byte-close to the paper's behaviour.
    """

    def __init__(self, config: DetectorConfig, model: OnlineLogit) -> None:
        super().__init__(config)
        self.model = model
        self._bank: Dict[int, _RegionState] = {}
        # Partition-global verdict features: the fallback context for
        # chunks with thin history.  Under heavy churn a chunk's own
        # past says little about its re-rolled pattern, but the
        # partition-wide verdict mix says a lot — without the fallback
        # the veto arrives only after MIN_REGION_OBS verdicts per
        # chunk, long after the misprediction cost was paid.
        self._global = _RegionState()
        # Veto the bit vector's STREAM predictions by default?  Set
        # from the global context at verdict granularity, read O(1)
        # on the per-access predict path.
        self._veto_default = False
        # Per-chunk decisions for chunks with rich history: RANDOM
        # vetoes the heuristic, STREAM exempts the chunk from the
        # global veto.  Only consulted when the bit vector says STREAM.
        self._override: Dict[int, Pattern] = {}
        # Measured mean remediation stall per error direction.
        self._cost_sr = 0.0   # predicted STREAM, verdict RANDOM
        self._n_sr = 0
        self._cost_rs = 0.0   # predicted RANDOM, verdict STREAM
        self._n_rs = 0
        self.vetoes = 0       # RANDOM overrides installed

    def predict(self, chunk_id: int) -> Pattern:
        base = super().predict(chunk_id)
        if base is Pattern.STREAM:
            override = self._override.get(chunk_id)
            if override is not None:
                return override
            if self._veto_default:
                return Pattern.RANDOM
        return base

    def observe_verdict(self, cycle: float, verdict: Verdict,
                        stall: float) -> float:
        """Train on one delivered verdict and refresh the chunk's
        override.  Returns the model's pre-update streaming score for
        ledger provenance (-1.0 while the chunk had no history)."""
        chunk = verdict.chunk_id
        state = self._bank.get(chunk)
        if state is None:
            state = self._bank[chunk] = _RegionState()
        score = -1.0
        label = 1.0 if verdict.pattern is Pattern.STREAM else 0.0
        fv = None
        if state.decisions >= MIN_REGION_OBS:
            fv = state.features()
        elif self._global.decisions:
            fv = self._global.features()
        if fv is not None:
            score = self.model.score(fv)
            self.model.update(fv, label, 1.0 + stall / COST_NORM)
        if verdict.pattern is not verdict.predicted and stall > 0.0:
            if verdict.predicted is Pattern.STREAM:
                self._cost_sr += stall
                self._n_sr += 1
            else:
                self._cost_rs += stall
                self._n_rs += 1
        had_write = bool(verdict.had_write)
        blocks = self.config.blocks_per_chunk
        state.observe(cycle, had_write, verdict.touched_mask, blocks)
        self._global.observe(cycle, had_write, verdict.touched_mask, blocks)
        self._refresh_override(chunk, state)
        return score

    def _veto_pays(self, p_stream: float) -> bool:
        """Cost-sensitive decision: is predicting RANDOM cheaper in
        expectation than trusting a STREAM prediction, at this
        streaming probability and the measured remediation costs?"""
        risk_stream = (1.0 - p_stream) * (self._cost_sr / self._n_sr)
        risk_random = p_stream * (
            CHUNK_READ_SAVING
            + (self._cost_rs / self._n_rs if self._n_rs else 0.0))
        return risk_stream > risk_random

    def _refresh_override(self, chunk: int, state: _RegionState) -> None:
        if self.model.updates < MIN_MODEL_UPDATES or not self._n_sr:
            self._veto_default = False
            self._override.pop(chunk, None)
            return
        self._veto_default = self._veto_pays(
            self.model.score(self._global.features()))
        if self._veto_default:
            self.vetoes += 1
        if state.decisions >= MIN_REGION_OBS:
            self._override[chunk] = (
                Pattern.RANDOM
                if self._veto_pays(self.model.score(state.features()))
                else Pattern.STREAM)
        else:
            self._override.pop(chunk, None)


class LearnedReadOnlyDetector(ReadOnlyDetector):
    """The paper's read-only detector plus model-driven promotion.

    The host-copy bit vector stays authoritative; the learned layer
    adds promotions for regions the host never marked.  A store to a
    promoted region demotes it (and still triggers shared-counter
    propagation — the same remediation path a host-marked region's
    first store takes, so promotion can only cost bandwidth, never
    correctness)."""

    def __init__(self, config: DetectorConfig, model: OnlineLogit) -> None:
        super().__init__(config)
        self.model = model
        self._promoted: Dict[int, bool] = {}
        self.promotions = 0
        self.demotions = 0

    def predict(self, region_id: int) -> bool:
        if region_id in self._promoted:
            return True
        return super().predict(region_id)

    def is_promoted(self, region_id: int) -> bool:
        return region_id in self._promoted

    def promote(self, region_id: int) -> None:
        self._promoted[region_id] = True
        self.promotions += 1

    def on_store(self, region_id: int) -> bool:
        promoted = self._promoted.pop(region_id, False)
        if promoted:
            self.demotions += 1
            self.transitions += 1
        # After the pop, super's predict() sees only the bit vector.
        was_read_only = super().on_store(region_id)
        return was_read_only or promoted

    def mark_written(self, region_ids) -> None:
        regions = list(region_ids)
        for region in regions:
            if self._promoted.pop(region, False):
                self.demotions += 1
        super().mark_written(regions)


# ---------------------------------------------------------------------------
# Logit-driven policies (pssm_learned)
# ---------------------------------------------------------------------------

class LearnedReadonlyCounterPolicy(SharedReadonlyCounterPolicy):
    """Shared read-only counters with learned promotion.

    Reads of not-yet-read-only regions feed a per-region
    :class:`_RegionState`; after :data:`PROMOTE_STREAK` store-free
    reads the model scores the region's fv and, above
    :data:`PROMOTE_THRESHOLD`, promotes it onto the shared counter.  A
    store to a promoted region measures the propagation cost (the
    scope works with or without a ledger) and trains the model with it
    as a negative, cost-weighted sample."""

    def __init__(self, mee: "MemoryEncryptionEngine", inner: CounterPolicy,
                 detector: LearnedReadOnlyDetector) -> None:
        super().__init__(mee, inner)
        self.detector = detector
        self._bank: Dict[int, _RegionState] = {}
        self._streak: Dict[int, int] = {}

    def access(self, cycle: float, block_id: int,
               region_id: int, is_write: bool) -> bool:
        mee = self.mee
        detector = self.detector
        predicted_ro = detector.predict(region_id)
        mee._record_readonly_stat(region_id, predicted_ro)
        if is_write:
            evicted = (detector.aliased_clearer(region_id)
                       if mee._led else -1)
            was_promoted = detector.is_promoted(region_id)
            state = self._bank.get(region_id)
            if state is None:
                state = self._bank[region_id] = _RegionState()
            self._streak[region_id] = 0
            transitioned = detector.on_store(region_id)
            if transitioned:
                mee._led_begin()
                mee._propagate_shared_counter(region_id)
                cost_bytes, cost_transfers = mee._led_end()
                if was_promoted:
                    stall = _policy_stall(mee, cost_bytes, cost_transfers)
                    detector.model.update(state.features(), 0.0,
                                          1.0 + stall / COST_NORM)
                if mee._led:
                    if was_promoted:
                        mee.led.learned_demote(cycle, mee.partition_id,
                                               mee.kernel_idx, region_id)
                    mee.led.ro_transition(
                        cycle, mee.partition_id, mee.kernel_idx,
                        region_id, evicted, cost_bytes, cost_transfers)
            state.observe(cycle, True, -1, 1)
        elif predicted_ro:
            mee.shared_counter_reads += 1
            if mee._observe:
                mee.obs.mee_event(mee.partition_id,
                                  "shared_counter_read", cycle)
            return True
        else:
            state = self._bank.get(region_id)
            if state is None:
                state = self._bank[region_id] = _RegionState()
            state.observe(cycle, False, -1, 1)
            streak = self._streak.get(region_id, 0) + 1
            if streak >= PROMOTE_STREAK:
                streak = 0  # re-arm instead of re-scoring every access
                model = detector.model
                fv = state.features()
                # Optimistic until the model has seen a demotion.
                score = model.score(fv) if model.updates else 1.0
                if score >= PROMOTE_THRESHOLD:
                    detector.promote(region_id)
                    if mee._led:
                        mee.led.learned_promote(
                            cycle, mee.partition_id, mee.kernel_idx,
                            region_id, round(score, 6))
            self._streak[region_id] = streak
        return self.inner.access(cycle, block_id, region_id, is_write)


class LearnedStreamingMACPolicy(DualGranularityMACPolicy):
    """Dual-granularity MACs whose verdicts train the learned
    streaming detector: every verdict's remediation is bracketed by
    the cost scope unconditionally (ledger or not), the measured stall
    weights the model update, and a ``learned_verdict`` provenance row
    scores the model when a ledger is attached."""

    def __init__(self, mee: "MemoryEncryptionEngine",
                 detector: LearnedStreamingDetector) -> None:
        super().__init__(mee)
        self.detector = detector

    def _process_verdicts(self, cycle: float, verdicts) -> None:
        mee = self.mee
        for verdict in verdicts:
            if mee._observe:
                mee.obs.mee_event(
                    mee.partition_id,
                    f"verdict_{verdict.pattern.value}", cycle, instant=True,
                )
            mee._led_begin()
            self._handle_verdict(verdict)
            cost_bytes, cost_transfers = mee._led_end()
            stall = _policy_stall(mee, cost_bytes, cost_transfers)
            score = self.detector.observe_verdict(cycle, verdict, stall)
            if mee._led:
                mee.led.stream_verdict(
                    cycle, mee.partition_id, mee.kernel_idx, verdict,
                    cost_bytes, cost_transfers)
                mee.led.learned_verdict(
                    cycle, mee.partition_id, mee.kernel_idx,
                    verdict.chunk_id, verdict.predicted.value,
                    verdict.pattern.value, round(score, 6))


# ---------------------------------------------------------------------------
# Bandit-driven policies (shm_bandit)
# ---------------------------------------------------------------------------

class BanditArmSelector:
    """Per-region epsilon-greedy bandit over :data:`ARMS`.

    One selector is shared by a partition's counter and MAC policies.
    The counter policy counts region accesses; every
    :data:`EPOCH_ACCESSES` of them close an epoch: the active arm's
    running mean reward absorbs (proxy savings − charged stall) /
    epoch length, and the next arm is the greedy best — except with
    probability :data:`EPSILON` (a crc32 coin over partition, region
    and epoch) a crc32-chosen arm explores instead."""

    __slots__ = ("partition", "epsilon", "epoch_accesses", "_arm",
                 "_epoch", "_acc", "_charge", "_save", "_reward",
                 "_count", "pulls", "explores")

    def __init__(self, partition: int, epsilon: float = EPSILON,
                 epoch_accesses: int = EPOCH_ACCESSES) -> None:
        self.partition = partition
        self.epsilon = epsilon
        self.epoch_accesses = epoch_accesses
        self._arm: Dict[int, int] = {}
        self._epoch: Dict[int, int] = {}
        self._acc: Dict[int, int] = {}
        self._charge: Dict[int, float] = {}
        self._save: Dict[int, float] = {}
        self._reward: Dict[int, List[float]] = {}
        self._count: Dict[int, List[int]] = {}
        self.pulls = 0
        self.explores = 0

    def arm(self, region: int) -> Tuple[str, str]:
        return ARMS[self._arm.get(region, 0)]

    def charge(self, region: int, stall: float) -> None:
        if stall:
            self._charge[region] = self._charge.get(region, 0.0) + stall

    def save(self, region: int, amount: float) -> None:
        self._save[region] = self._save.get(region, 0.0) + amount

    def on_access(self, region: int) -> Optional[Tuple[str, float]]:
        """Count one region access.  At an epoch boundary, settle the
        closing arm's reward and pick the next arm; returns ``(arm
        label, closing reward)`` then (for provenance), else None."""
        count = self._acc.get(region, 0) + 1
        if count < self.epoch_accesses:
            self._acc[region] = count
            return None
        self._acc[region] = 0
        epoch = self._epoch.get(region, 0)
        self._epoch[region] = epoch + 1
        current = self._arm.get(region, 0)
        reward = (self._save.pop(region, 0.0)
                  - self._charge.pop(region, 0.0)) / self.epoch_accesses
        rewards = self._reward.get(region)
        if rewards is None:
            # Prior: every arm starts at one observed reward of 0.0,
            # so exploration is epsilon-driven (no forced round robin)
            # and the cold-start greedy pick is arm 0, the paper's
            # composition.
            rewards = self._reward[region] = [0.0] * len(ARMS)
            self._count[region] = [1] * len(ARMS)
        counts = self._count[region]
        counts[current] += 1
        rewards[current] += (reward - rewards[current]) / counts[current]
        if crc_unit("arm", self.partition, region, epoch) < self.epsilon:
            nxt = int(crc_unit("explore", self.partition, region, epoch)
                      * len(ARMS))
            if nxt >= len(ARMS):
                nxt = len(ARMS) - 1
            self.explores += 1
        else:
            nxt = 0
            for i in range(1, len(ARMS)):
                if rewards[i] > rewards[nxt]:
                    nxt = i
        self._arm[region] = nxt
        self.pulls += 1
        return "/".join(ARMS[nxt]), round(reward, 6)


class BanditCounterPolicy(SharedReadonlyCounterPolicy):
    """Shared read-only counters gated per region by the bandit's
    counter-mode arm.  Store-transition handling is always the base
    behaviour (arm switches must never skip a propagation the shared
    counter's prior use requires); the arm only gates the read
    fast path, so every arm is trivially sound."""

    def __init__(self, mee: "MemoryEncryptionEngine", inner: CounterPolicy,
                 selector: BanditArmSelector) -> None:
        super().__init__(mee, inner)
        self.selector = selector

    def access(self, cycle: float, block_id: int,
               region_id: int, is_write: bool) -> bool:
        mee = self.mee
        selector = self.selector
        decision = selector.on_access(region_id)
        if decision is not None and mee._led:
            mee.led.arm_select(cycle, mee.partition_id, mee.kernel_idx,
                               region_id, decision[0], decision[1])
        predicted_ro = mee.readonly.predict(region_id)
        mee._record_readonly_stat(region_id, predicted_ro)
        if is_write:
            evicted = (mee.readonly.aliased_clearer(region_id)
                       if mee._led else -1)
            transitioned = mee.readonly.on_store(region_id)
            if transitioned:
                mee._led_begin()
                mee._propagate_shared_counter(region_id)
                cost_bytes, cost_transfers = mee._led_end()
                selector.charge(
                    region_id, _policy_stall(mee, cost_bytes, cost_transfers))
                if mee._led:
                    mee.led.ro_transition(
                        cycle, mee.partition_id, mee.kernel_idx,
                        region_id, evicted, cost_bytes, cost_transfers)
        elif predicted_ro and selector.arm(region_id)[0] == "shared":
            mee.shared_counter_reads += 1
            selector.save(region_id, SHARED_READ_SAVING)
            if mee._observe:
                mee.obs.mee_event(mee.partition_id,
                                  "shared_counter_read", cycle)
            return True
        return self.inner.access(cycle, block_id, region_id, is_write)


class BanditMACPolicy(DualGranularityMACPolicy):
    """Dual-granularity MACs gated per region by the bandit's MAC arm:
    a "block" region never takes the coarse chunk-MAC read path (its
    MAT keeps monitoring, so verdict remediation stays consistent).
    Mispredict rechecks and verdict remediation charge their measured
    stall to the region's running epoch."""

    def __init__(self, mee: "MemoryEncryptionEngine",
                 selector: BanditArmSelector) -> None:
        super().__init__(mee)
        self.selector = selector
        detectors = mee.scheme.detectors
        self._region_shift = max(
            1, detectors.readonly_region_size // detectors.stream_chunk_size)

    def _region_of(self, chunk_id: int) -> int:
        return chunk_id // self._region_shift

    def access(self, cycle: float, block_id: int,
               chunk_id: int, block_offset: int, region_id: int,
               read_only: bool, is_write: bool) -> None:
        mee = self.mee
        selector = self.selector
        predicted = mee.streaming.predict(chunk_id)
        mee._record_streaming_stat(chunk_id, predicted, region_id)
        tracked, verdicts = mee.streaming.on_access(
            cycle, chunk_id, block_offset, is_write
        )

        if is_write:
            mee._blk_mac_access(block_id, is_write=True)
            self._chunk_mac_stale[chunk_id] = True
            if mee.scheme.mac_conflict_policy == "update_both":
                mee._chunk_mac_access(chunk_id, is_write=True)
                self._chunk_mac_stale.pop(chunk_id, None)
        elif (predicted is Pattern.STREAM and tracked
                and selector.arm(region_id)[1] == "dual"):
            mee._chunk_mac_access(chunk_id, is_write=False)
            selector.save(region_id, COARSE_READ_SAVING)
            if self._chunk_mac_stale.get(chunk_id, False):
                mee.rechecks += 1
                if mee._observe:
                    mee.obs.mee_event(mee.partition_id, "mac_recheck",
                                      cycle)
                mee._led_begin()
                mee._blk_mac_access(block_id, is_write=False,
                                    as_mispred=True)
                cost_bytes, cost_transfers = mee._led_end()
                selector.charge(
                    region_id, _policy_stall(mee, cost_bytes, cost_transfers))
                if mee._led:
                    mee.led.mac_recheck(
                        cycle, mee.partition_id, mee.kernel_idx, chunk_id,
                        "stale_chunk_mac", cost_bytes, cost_transfers)
        else:
            mee._blk_mac_access(block_id, is_write=False)
            if self._blk_macs_stale.get(chunk_id, False):
                mee.rechecks += 1
                if mee._observe:
                    mee.obs.mee_event(mee.partition_id, "mac_recheck",
                                      cycle)
                mee._led_begin()
                mee._chunk_mac_access(chunk_id, is_write=False,
                                      as_mispred=True)
                cost_bytes, cost_transfers = mee._led_end()
                selector.charge(
                    region_id, _policy_stall(mee, cost_bytes, cost_transfers))
                if mee._led:
                    mee.led.mac_recheck(
                        cycle, mee.partition_id, mee.kernel_idx, chunk_id,
                        "stale_block_macs", cost_bytes, cost_transfers)

        if verdicts:
            self._process_verdicts(cycle, verdicts)

    def _process_verdicts(self, cycle: float, verdicts) -> None:
        mee = self.mee
        selector = self.selector
        for verdict in verdicts:
            if mee._observe:
                mee.obs.mee_event(
                    mee.partition_id,
                    f"verdict_{verdict.pattern.value}", cycle, instant=True,
                )
            mee._led_begin()
            self._handle_verdict(verdict)
            cost_bytes, cost_transfers = mee._led_end()
            selector.charge(
                self._region_of(verdict.chunk_id),
                _policy_stall(mee, cost_bytes, cost_transfers))
            if mee._led:
                mee.led.stream_verdict(
                    cycle, mee.partition_id, mee.kernel_idx, verdict,
                    cost_bytes, cost_transfers)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def build_learned_policies(
    mee: "MemoryEncryptionEngine",
) -> Tuple[CounterPolicy, MACPolicy]:
    """Compose the learned counter/MAC stack named by
    ``scheme.learned_policy`` ("logit" or "bandit"), replacing the
    MEE's detectors where the policy learns its own.  Called from
    :func:`repro.core.policies.build_policies` — before the MEE binds
    its policy entry points, so the replacement is complete."""
    scheme = mee.scheme
    kind = scheme.learned_policy
    if not (scheme.readonly_optimization and scheme.dual_granularity_mac):
        raise ValueError(
            "learned_policy requires readonly_optimization and "
            "dual_granularity_mac (the learned layer drives the "
            "adaptive machinery)")
    inner: CounterPolicy = SplitCounterPolicy(mee)
    if scheme.common_counters:
        inner = CommonCounterPolicy(mee, inner)
    if kind == "logit":
        streaming = LearnedStreamingDetector(scheme.detectors, OnlineLogit())
        readonly = LearnedReadOnlyDetector(scheme.detectors, OnlineLogit())
        mee.streaming = streaming
        mee.readonly = readonly
        return (LearnedReadonlyCounterPolicy(mee, inner, readonly),
                LearnedStreamingMACPolicy(mee, streaming))
    if kind == "bandit":
        selector = BanditArmSelector(mee.partition_id)
        return (BanditCounterPolicy(mee, inner, selector),
                BanditMACPolicy(mee, selector))
    raise ValueError(
        f"unknown learned_policy {kind!r} (expected 'logit' or 'bandit')")


# ---------------------------------------------------------------------------
# Registry entries: each learned design is one registration away from
# SimConfig / Runner / campaign / CLI.  Guarded so re-imports (pool
# workers, test reloads) stay idempotent.
# ---------------------------------------------------------------------------

if "pssm_learned" not in SCHEME_REGISTRY:
    register_scheme(
        "pssm_learned", base=Scheme.PSSM,
        description=("PSSM + the adaptive machinery driven by "
                     "ledger-trained online logistic detectors"),
        readonly_optimization=True,
        dual_granularity_mac=True,
        learned_policy="logit",
    )

if "shm_bandit" not in SCHEME_REGISTRY:
    register_scheme(
        "shm_bandit", base=Scheme.SHM,
        description=("SHM with per-region epsilon-greedy arm selection "
                     "over {counter mode, MAC granularity, BMT coverage}"),
        learned_policy="bandit",
    )
