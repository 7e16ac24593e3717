"""Tests for conformance and metric reduction."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.specweb.conformance import connection_conforms
from repro.specweb.metrics import MetricsCollector, OpRecord


def test_conformance_rule_bitrate():
    # 10 s window: 320 kbit/s needs 400_000 bytes.
    assert connection_conforms(400_000, 10.0, ops=10, errors=0)
    assert not connection_conforms(399_000, 10.0, ops=10, errors=0)


def test_conformance_rule_errors():
    assert not connection_conforms(10**6, 10.0, ops=100, errors=1)
    assert connection_conforms(10**6, 10.0, ops=101, errors=1)


def test_conformance_requires_activity():
    assert not connection_conforms(0, 10.0, ops=0, errors=0)
    assert not connection_conforms(10**6, 0.0, ops=10, errors=0)


def _record(t, conn=0, ok=True, latency=0.2, nbytes=50_000, kind=""):
    return OpRecord(
        completed_at=t, connection_id=conn, ok=ok, latency=latency,
        bytes_received=nbytes, error_kind=kind,
    )


def _collector(records, connections=2):
    collector = MetricsCollector(connections)
    for record in records:
        collector.record(record)
    return collector


def test_op_record_is_an_immutable_picklable_record():
    record = OpRecord(
        completed_at=1.5, connection_id=3, ok=True, latency=0.25,
        bytes_received=900,
    )
    assert record.error_kind == ""
    assert record.connection_id == 3
    restored = pickle.loads(
        pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert type(restored) is OpRecord
    assert restored == record
    with pytest.raises(AttributeError):
        record.ok = False


def test_records_between_bounds():
    collector = _collector([_record(1.0), _record(2.0), _record(3.0)])
    assert len(collector.records_between(0.0, 1.0)) == 1  # (0, 1]
    assert len(collector.records_between(1.0, 3.0)) == 2


def test_compute_basic_metrics():
    records = [
        _record(t, conn=t_index % 2, latency=0.25, nbytes=45_000)
        for t_index, t in enumerate(
            [i * 0.1 for i in range(1, 101)]
        )
    ]
    collector = _collector(records)
    metrics = collector.compute([(0.0, 10.0)])
    assert metrics.total_ops == 100
    assert metrics.thr == pytest.approx(10.0)
    assert metrics.rtm_ms == pytest.approx(250.0)
    assert metrics.er_percent == 0.0
    # Each conn moved ~2.25 MB over 10 s: conforming.
    assert metrics.spc == 2
    assert metrics.cc_percent == 100.0


def test_errors_disqualify_connection():
    records = [_record(i * 0.1, conn=0, nbytes=45_000)
               for i in range(1, 50)]
    records.append(_record(4.95, conn=0, ok=False, nbytes=0,
                           kind="status_500"))
    records += [_record(i * 0.1, conn=1, nbytes=45_000)
                for i in range(1, 50)]
    metrics = _collector(records).compute([(0.0, 5.0)])
    assert metrics.spc == 1  # conn 0 exceeded the 1% error rule
    assert metrics.total_errors == 1


def test_empty_windows_skipped_for_spc():
    records = [_record(0.5, nbytes=800_000), _record(0.9, nbytes=800_000)]
    metrics = _collector(records, connections=1).compute(
        [(0.0, 1.0), (5.0, 6.0)]
    )
    assert metrics.spc == 1  # the silent window does not average in
    assert metrics.measured_seconds == 2.0


def test_conformance_grouping_pools_windows():
    """One bad slot poisons its whole conformance group."""
    good = [_record(0.5 + i, conn=0, nbytes=500_000) for i in range(6)]
    bad = [_record(3.2, conn=0, ok=False, nbytes=0, kind="timeout")]
    collector = _collector(good + bad, connections=1)
    windows = [(float(i), float(i + 1)) for i in range(6)]
    grouped = collector.compute(windows, conformance_group=6)
    assert grouped.spc == 0  # 1 error / 7 ops >= 1%
    per_slot = collector.compute(windows, conformance_group=1)
    assert per_slot.spc > 0  # only the bad slot fails individually


def test_bytes_spread_across_windows():
    """A long transfer spanning two windows credits both."""
    # 10 s op ending at t=10 moved 800 kB: 400 kB in each 5 s window.
    collector = _collector(
        [_record(10.0, conn=0, latency=10.0, nbytes=800_000)],
        connections=1,
    )
    metrics = collector.compute([(0.0, 5.0), (5.0, 10.0)])
    # 400 kB / 5 s = 640 kbit/s in the completion window: conforming.
    assert metrics.spc == pytest.approx(1.0)


def test_timeouts_count_as_errors_in_er():
    records = [_record(1.0), _record(2.0, ok=False, kind="timeout")]
    metrics = _collector(records).compute([(0.0, 3.0)])
    assert metrics.er_percent == pytest.approx(50.0)


def test_rtm_only_over_successes():
    records = [
        _record(1.0, latency=0.1),
        _record(2.0, ok=False, latency=30.0, kind="timeout"),
    ]
    metrics = _collector(records).compute([(0.0, 3.0)])
    assert metrics.rtm_ms == pytest.approx(100.0)


def test_error_kind_tally():
    collector = _collector([
        _record(1.0, ok=False, kind="timeout"),
        _record(2.0, ok=False, kind="timeout"),
        _record(3.0, ok=False, kind="content"),
    ])
    assert collector.error_kinds == {"timeout": 2, "content": 1}


def test_metrics_as_dict_and_str():
    metrics = _collector([_record(1.0)]).compute([(0.0, 2.0)])
    data = metrics.as_dict()
    assert set(data) >= {"SPC", "CC%", "THR", "RTM", "ER%"}
    assert "SPC=" in str(metrics)


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=9.99),
            st.booleans(),
            st.integers(min_value=0, max_value=100_000),
        ),
        min_size=1, max_size=60,
    )
)
def test_property_er_and_thr_consistent(op_specs):
    collector = MetricsCollector(4)
    for index, (t, ok, nbytes) in enumerate(sorted(op_specs)):
        collector.record(OpRecord(
            completed_at=t, connection_id=index % 4, ok=ok,
            latency=min(t, 0.2), bytes_received=nbytes if ok else 0,
            error_kind="" if ok else "status_500",
        ))
    metrics = collector.compute([(0.0, 10.0)])
    assert metrics.total_ops == len(op_specs)
    expected_errors = sum(1 for _t, ok, _b in op_specs if not ok)
    assert metrics.total_errors == expected_errors
    assert metrics.thr == pytest.approx(len(op_specs) / 10.0)
    assert 0.0 <= metrics.er_percent <= 100.0
    assert 0.0 <= metrics.spc <= 4
