"""The paper's contribution: adaptive secure-memory support for GPUs."""

from repro.core.api import Allocation, SecureGPUContext
from repro.core.functional import SecureMemoryDevice
from repro.core.mee import MemoryEncryptionEngine, TruthProvider
from repro.core.readonly import ReadOnlyDetector
from repro.core.schemes import (
    FIG12_SCHEMES,
    FIG13_SCHEMES,
    FIG14_SCHEMES,
    SCHEME_DESCRIPTIONS,
    all_schemes,
    describe,
)
from repro.core.streaming import AccessTracker, StreamingDetector, Verdict
from repro.core.victim import VictimController

__all__ = [
    "Allocation",
    "SecureGPUContext",
    "SecureMemoryDevice",
    "MemoryEncryptionEngine",
    "TruthProvider",
    "ReadOnlyDetector",
    "FIG12_SCHEMES",
    "FIG13_SCHEMES",
    "FIG14_SCHEMES",
    "SCHEME_DESCRIPTIONS",
    "all_schemes",
    "describe",
    "AccessTracker",
    "StreamingDetector",
    "Verdict",
    "VictimController",
]
