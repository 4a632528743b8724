"""A kernel's :class:`Trace` behaves as the list of access tuples it was
built from, and both trace formats carry it exactly."""

import copy
import json
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workloads import trace_io
from repro.workloads.base import Buffer, Kernel, Trace, Workload
from repro.workloads.trace_io import (load_workload, save_workload,
                                      workload_from_dict, workload_to_dict)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_address = st.one_of(
    st.integers(0, 1 << 48),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, INT64_MAX - 1,
                     INT64_MAX]))
_access = st.tuples(_address, st.booleans(), st.integers(-1, 6))
#: Empty kernels included.
_accesses = st.lists(_access, max_size=40)
_step = st.none() | st.integers(-5, 5).filter(bool)
_bound = st.none() | st.integers(-50, 50)


@given(_accesses)
def test_a_kernel_holds_exactly_its_list(accesses):
    trace = Kernel("k", accesses).accesses
    assert isinstance(trace, Trace)
    items = list(trace)
    assert items == accesses
    assert all(type(address) is int and type(is_write) is bool
               and type(n_sectors) is int
               for address, is_write, n_sectors in items)
    assert len(trace) == len(accesses)


@given(_accesses, _accesses, st.data())
def test_sequence_operations_agree_with_the_list(accesses, other, data):
    trace = Trace(accesses)
    for index in range(-len(accesses), len(accesses)):
        assert trace[index] == accesses[index]
    with pytest.raises(IndexError):
        trace[len(accesses)]
    window = slice(data.draw(_bound), data.draw(_bound), data.draw(_step))
    assert isinstance(trace[window], Trace)
    assert trace[window] == accesses[window]
    assert accesses[window] == trace[window]

    assert trace == accesses and accesses == trace
    assert not (trace != accesses or accesses != trace)
    assert trace == Trace(accesses)
    assert (trace == other) == (accesses == other) == (other == trace)
    assert (trace != other) == (accesses != other) == (other != trace)
    assert (trace == Trace(other)) == (accesses == other)

    extended = Trace(accesses)
    extended.extend(other)
    assert extended == accesses + other
    extended = Trace(accesses)
    extended.extend(Trace(other))
    assert extended == accesses + other

    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(trace, protocol)) == accesses
    copied = copy.deepcopy(trace)
    assert copied == accesses
    copied.extend(other)
    assert trace == accesses


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_accesses, min_size=1, max_size=4))
def test_both_trace_formats_round_trip(tmp_path, monkeypatch, kernels):
    # Small v2 chunks, so kernels span several ``accesses`` records.
    monkeypatch.setattr(trace_io, "CHUNK_ACCESSES", 3)
    workload = Workload(
        name="generated",
        kernels=[Kernel(f"k{i}", accesses)
                 for i, accesses in enumerate(kernels)],
        buffers=[Buffer("everything", INT64_MIN, 1 << 64)],
        bandwidth_utilization=0.5)
    document = json.loads(json.dumps(workload_to_dict(workload)))
    assert workload_from_dict(document) == workload
    for name in ("trace.json", "trace.json.gz"):
        save_workload(workload, tmp_path / name)
        loaded = load_workload(tmp_path / name)
        assert loaded == workload
        assert [list(k.accesses) for k in loaded.kernels] == kernels


OUT_OF_RANGE = pytest.mark.parametrize("access, field", [
    ((INT64_MAX + 1, False, 1), "address"),
    ((INT64_MIN - 1, True, 1), "address"),
    ((0, False, 128), "n_sectors"),
    ((0, True, -129), "n_sectors"),
], ids=["address-above", "address-below", "sectors-above", "sectors-below"])


@OUT_OF_RANGE
def test_a_value_outside_its_column_names_the_field(access, field):
    value = access[0] if field == "address" else access[2]
    with pytest.raises(ValueError, match=f"^trace {field} {value} is outside"):
        Kernel("k", [(0, False, 1), access])
    trace = Trace([(0, False, 1)])
    with pytest.raises(ValueError, match=f"^trace {field} "):
        trace.extend([(128, True, 4), access])
    # The access that did not fit is not half added.
    assert trace == [(0, False, 1), (128, True, 4)]


@OUT_OF_RANGE
def test_a_trace_file_with_a_value_outside_its_column_is_refused(access,
                                                                 field):
    workload = Workload("w", [Kernel("k", [(0, False, 1)])],
                        [Buffer("b", 0, 128)], 0.5)
    document = workload_to_dict(workload)
    address, is_write, n_sectors = access
    kernel = document["kernels"][0]
    kernel["addresses"], kernel["writes"], kernel["sectors"] = (
        [address], [int(is_write)], [n_sectors])
    with pytest.raises(ValueError, match=f"^trace {field} "):
        workload_from_dict(document)
