import pytest

import stats
import workloads
from feddrift import engine


@pytest.mark.parametrize(
    "n, pct",
    [(1, None), (19, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_summarize_reports_median_count_and_tail():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    out = stats.summarize(values)
    assert out == {"n": 100, "median": 50.5, "tail_pct": 90.0, "tail": 90}


def test_summarize_omits_an_unsupported_tail():
    assert stats.summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
    with pytest.raises(ValueError):
        stats.summarize([])


def _records(acc, wall):
    return [
        engine.RoundRecord(round=1, test_accuracy=None, train_loss=None, bytes_up=8,
                           bytes_down=16, grad_variance=0.5, wall_ms=wall),
        engine.RoundRecord(round=2, test_accuracy=acc, train_loss=0.25, bytes_up=8,
                           bytes_down=16, grad_variance=None, wall_ms=wall + 1),
    ]


def _digest(tmp_path, name, records):
    path = tmp_path / name
    engine.write_records_csv(path, records, "feddc", "synthetic(0;0)", 0)
    return stats.records_digest(path)


def test_digest_ignores_wall_ms_only(tmp_path):
    ref = _digest(tmp_path, "a.csv", _records(0.875, 10))
    assert _digest(tmp_path, "b.csv", _records(0.875, 999)) == ref
    assert _digest(tmp_path, "c.csv", _records(0.8750000000000001, 10)) != ref


def test_digest_check_fails_on_a_perturbed_record(tmp_path):
    ref = _digest(tmp_path, "a.csv", _records(0.875, 10))
    wl = workloads.SynthFeddcFull(tmp_path, 0, reference=ref)
    assert wl._check_digest(_digest(tmp_path, "b.csv", _records(0.875, 42))) == []
    errors = wl._check_digest(_digest(tmp_path, "c.csv", _records(0.876, 10)))
    assert errors and "reference" in errors[0]
    assert workloads.SynthFeddcFull(tmp_path, 0, reference="")._check_digest(ref)


def test_traffic_check_wants_exactly_one_and_a_half_fedavg():
    rows = [{"round": "1", "bytes_up": "8", "bytes_down": "16"}]
    assert workloads.check_feddc_traffic(rows, [16]) == []
    assert workloads.check_feddc_traffic(rows, [17])


def test_accuracy_check_wants_better_than_chance():
    assert workloads.check_accuracy(0.21, 5, "x") == []
    assert workloads.check_accuracy(0.2, 5, "x")
    assert workloads.check_accuracy(float("nan"), 5, "x")
