"""The bounded telemetry ring buffer."""

from repro.service.telemetry import TelemetryBuffer


def test_append_and_snapshot_oldest_first():
    buffer = TelemetryBuffer(capacity=4)
    for index in range(3):
        buffer.append({"time": float(index)})
    assert [s["time"] for s in buffer.snapshot()] == [0.0, 1.0, 2.0]
    assert buffer.total == 3
    assert buffer.dropped == 0


def test_capacity_drops_oldest_samples():
    buffer = TelemetryBuffer(capacity=2)
    for index in range(5):
        buffer.append({"time": float(index)})
    assert [s["time"] for s in buffer.snapshot()] == [3.0, 4.0]
    assert buffer.total == 5
    assert buffer.dropped == 3
    assert len(buffer) == 2


def test_snapshot_limit_returns_most_recent():
    buffer = TelemetryBuffer(capacity=10)
    for index in range(6):
        buffer.append({"time": float(index)})
    assert [s["time"] for s in buffer.snapshot(limit=2)] == [4.0, 5.0]


def test_zero_capacity_is_rejected():
    import pytest

    with pytest.raises(ValueError):
        TelemetryBuffer(capacity=0)
