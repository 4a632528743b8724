"""The zero-overhead guard for disabled observability: the NULL
observer path must not add host time.

Disabled-path runs must never execute any hook body: the hot path is
one local boolean branch.  The two spellings of "off" — a default
``Runner()`` and ``Runner(observer=NULL_OBSERVER)`` — are one runner
state, so they run the same code and cost the same by construction.
"""

from repro.common.types import Scheme
from repro.obs.observer import NULL_OBSERVER
from repro.sim.gpu import GPUSimulator
from repro.sim.runner import Runner


class TestCountingProxies:
    def test_default_construction_uses_shared_nulls(self):
        sim = GPUSimulator(Runner().config.with_scheme(Scheme.SHM))
        assert sim.obs is NULL_OBSERVER
        assert sim._observe is False


class TestNullPathIdentity:
    def test_default_and_explicit_null_runners_take_one_path(self):
        """Both spellings hold the one shared ``NULL_OBSERVER``, and the
        simulator each builds for a run has observation switched off."""
        runners = [Runner(), Runner(observer=NULL_OBSERVER)]
        for runner in runners:
            assert runner.observer is NULL_OBSERVER
            sim = GPUSimulator(runner.config.with_scheme(Scheme.PSSM),
                               observer=runner.observer)
            assert sim.obs is NULL_OBSERVER
            assert sim._observe is False
