import numpy as np
import pytest

from feddrift.errors import ParameterError
from feddrift.rng import PURPOSES, _stream_id, stream


def test_same_identity_replays_identically():
    a = stream(123, "testing", client=4, round_index=56)
    b = stream(123, "testing", client=4, round_index=56)
    assert np.array_equal(a.permutation(4), b.permutation(4))
    assert a.standard_normal(16).tobytes() == b.standard_normal(16).tobytes()
    assert a.random(8).tobytes() == b.random(8).tobytes()
    assert np.array_equal(a.dirichlet(np.full(5, 0.3)), b.dirichlet(np.full(5, 0.3)))


def test_permutation_fixed_seed_twice_identical():
    p1 = stream(9, "testing", client=1).permutation(4)
    p2 = stream(9, "testing", client=1).permutation(4)
    assert np.array_equal(p1, p2)
    assert sorted(p1) == [0, 1, 2, 3]


def test_distinct_streams_differ():
    a = stream(123, "testing", client=1).standard_normal(64)
    b = stream(123, "testing", client=2).standard_normal(64)
    c = stream(124, "testing", client=1).standard_normal(64)
    d = stream(123, "global-init", client=1).standard_normal(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_dirichlet_is_probability_vector():
    for conc in (0.1, 0.6, 3.0):
        draw = stream(0, "testing").dirichlet(np.full(7, conc))
        assert abs(draw.sum() - 1.0) <= 1e-12
        assert np.all(draw >= 0) and np.all(draw <= 1)


def test_dirichlet_concentration_limit():
    draw = stream(5, "testing", client=5).dirichlet(np.full(3, 1e6))
    assert np.all(np.abs(draw - 1.0 / 3.0) < 1e-2)


def test_lognormal():
    s = stream(0, "testing", client=3)
    assert s.lognormal(1.5, 0.0) == pytest.approx(np.exp(1.5))
    draws = stream(0, "testing", client=4).lognormal(0.0, np.sqrt(0.3), 4000)
    assert np.all(draws > 0)
    assert abs(np.log(draws).std() - np.sqrt(0.3)) < 0.05


def test_stream_id_packing_unique():
    seen = set()
    for purpose in PURPOSES[:4]:
        for client in (0, 1, 1000):
            for rnd in (0, 1, 999):
                seen.add(_stream_id(purpose, client, rnd))
    assert len(seen) == 4 * 3 * 3


def test_stream_id_validation():
    with pytest.raises(ParameterError):
        _stream_id("nope")
    with pytest.raises(ParameterError):
        _stream_id("global-init", client=-1)
    with pytest.raises(ParameterError):
        _stream_id("global-init", round_index=1 << 24)
    with pytest.raises(ParameterError):
        stream(-1, "testing")
    with pytest.raises(ParameterError):
        stream(1 << 64, "testing")
    stream((1 << 64) - 1, "testing")


@pytest.mark.parametrize("seed", [1.5, True, np.float64(2.0)], ids=["float", "bool", "numpy-float"])
def test_stream_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ParameterError, match="seed must be an integer"):
        stream(seed, "testing")


def test_numpy_integer_seed_keys_the_same_stream():
    a = stream(np.uint64(7), "testing").standard_normal(4)
    assert a.tobytes() == stream(7, "testing").standard_normal(4).tobytes()


def test_purpose_keying_matches_manual_id():
    a = stream(7, "batch-shuffle", client=3, round_index=11)
    key = (7 << 64) | _stream_id("batch-shuffle", 3, 11)
    b = np.random.Generator(np.random.Philox(key=key))
    assert a.standard_normal(8).tobytes() == b.standard_normal(8).tobytes()
