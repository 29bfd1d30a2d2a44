import numpy as np
import pytest

from feddrift.errors import ParameterError
from feddrift.rng import PURPOSES, RngStream, stream, stream_id_for


def test_same_identity_replays_identically():
    a = RngStream(123, 456)
    b = RngStream(123, 456)
    assert np.array_equal(a.permutation(4), b.permutation(4))
    assert a.gaussian(16).tobytes() == b.gaussian(16).tobytes()
    assert a.uniform01(8).tobytes() == b.uniform01(8).tobytes()
    assert np.array_equal(a.dirichlet(5, 0.3), b.dirichlet(5, 0.3))


def test_permutation_fixed_seed_twice_identical():
    p1 = RngStream(9, 1).permutation(4)
    p2 = RngStream(9, 1).permutation(4)
    assert np.array_equal(p1, p2)
    assert sorted(p1) == [0, 1, 2, 3]


def test_distinct_streams_differ():
    a = RngStream(123, 1).gaussian(64)
    b = RngStream(123, 2).gaussian(64)
    c = RngStream(124, 1).gaussian(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dirichlet_is_probability_vector():
    for conc in (0.1, 0.6, 3.0):
        draw = RngStream(0, 0).dirichlet(7, conc)
        assert abs(draw.sum() - 1.0) <= 1e-12
        assert np.all(draw >= 0) and np.all(draw <= 1)


def test_dirichlet_concentration_limit():
    draw = RngStream(5, 5).dirichlet(3, 1e6)
    assert np.all(np.abs(draw - 1.0 / 3.0) < 1e-2)


def test_dirichlet_bad_params():
    s = RngStream(0, 0)
    with pytest.raises(ParameterError):
        s.dirichlet(0, 1.0)
    with pytest.raises(ParameterError):
        s.dirichlet(3, 0.0)
    with pytest.raises(ParameterError):
        s.dirichlet(3, -1.0)




def test_lognormal():
    s = RngStream(0, 3)
    assert s.lognormal(1.5, 0.0) == pytest.approx(np.exp(1.5))
    draws = RngStream(0, 4).lognormal(0.0, 0.3, 4000)
    assert np.all(draws > 0)
    assert abs(np.log(draws).std() - np.sqrt(0.3)) < 0.05
    with pytest.raises(ParameterError):
        s.lognormal(0.0, -0.1)


def test_stream_id_packing_unique():
    seen = set()
    for purpose in PURPOSES[:4]:
        for client in (0, 1, 1000):
            for rnd in (0, 1, 999):
                seen.add(stream_id_for(purpose, client, rnd))
    assert len(seen) == 4 * 3 * 3


def test_stream_id_validation():
    with pytest.raises(ParameterError):
        stream_id_for("nope")
    with pytest.raises(ParameterError):
        stream_id_for("global-init", client=-1)
    with pytest.raises(ParameterError):
        stream_id_for("global-init", round_index=1 << 24)
    with pytest.raises(ParameterError):
        RngStream(-1)
    with pytest.raises(ParameterError):
        RngStream(0, 1 << 64)


def test_purpose_keying_matches_manual_id():
    a = stream(7, "batch-shuffle", client=3, round_index=11)
    b = RngStream(7, stream_id_for("batch-shuffle", 3, 11))
    assert a.gaussian(8).tobytes() == b.gaussian(8).tobytes()
