"""Host-speed correction of segment times."""

import pytest

import hostclock


@pytest.fixture
def fake_time(monkeypatch):
    """A perf_counter the test advances by hand; each probe costs 1 s of it."""
    now = [0.0]
    probes = []

    def probe(kind):
        now[0] += 1.0  # probe time must never land in a segment
        return probes.pop(0)

    monkeypatch.setattr(hostclock, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hostclock, "probe", probe)
    return now, probes


def run_segments(clock, now, seconds, timed=()):
    """Segments of the given wall seconds; those listed in timed are intervals."""
    clock.start()
    for i, sec in enumerate(seconds):
        if i:
            clock.lap()
        if i in timed:
            with clock.interval():
                now[0] += sec
        else:
            now[0] += sec
    return clock.stop()


def test_a_steady_slow_host_scales_every_segment(fake_time):
    now, probes = fake_time
    ref = hostclock.REF_S["sgd"]
    probes += [2 * ref] * 3  # half the reference speed throughout
    clock = hostclock.HostClock("sgd")
    assert run_segments(clock, now, [4.0, 2.0], timed={1}) == pytest.approx(3.0)
    assert clock.wall == pytest.approx(6.0)  # probe time is not in it
    assert clock.intervals == pytest.approx([1.0])


def test_each_segment_takes_the_median_of_the_probes_around_it(fake_time):
    now, probes = fake_time
    ref = hostclock.REF_S["mlp"]
    probes += [k * ref for k in (1, 2, 3, 4, 5)]
    clock = hostclock.HostClock("mlp")
    run_segments(clock, now, [1.0, 1.0, 1.0, 1.0], timed={0, 3})
    # windows: probes 0-2, 0-3, 1-4, 2-4
    assert [clock.factor(i) for i in range(4)] == pytest.approx([1 / 2, 1 / 2.5, 1 / 3.5, 1 / 4])
    assert clock.intervals == pytest.approx([1 / 2, 1 / 4])
    assert clock.total == pytest.approx(1 / 2 + 1 / 2.5 + 1 / 3.5 + 1 / 4)


def test_one_stray_probe_does_not_move_the_result(fake_time):
    now, probes = fake_time
    ref = hostclock.REF_S["sgd"]
    probes += [ref, ref, 9 * ref, ref, ref]
    clock = hostclock.HostClock("sgd")
    assert run_segments(clock, now, [1.0] * 4) == pytest.approx(4.0)


def test_without_a_probe_kind_it_is_plain_wall_time(fake_time):
    now, _ = fake_time
    clock = hostclock.HostClock(None)
    assert run_segments(clock, now, [2.5, 0.5], timed={0}) == pytest.approx(3.0)
    assert clock.wall == pytest.approx(3.0)
    assert clock.intervals == pytest.approx([2.5])


@pytest.mark.parametrize("kind", sorted(hostclock.KERNELS))
def test_every_probe_kind_runs_and_has_a_reference(kind):
    assert 0 < hostclock.probe(kind) < 1.0
    assert hostclock.REF_S[kind] > 0
