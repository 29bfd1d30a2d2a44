import pickle

import pytest

from feddrift.errors import (
    ConfigError,
    DimensionError,
    FedDriftError,
    FormatError,
    NumericError,
    ParameterError,
    RunError,
)


@pytest.mark.parametrize("error", [
    FedDriftError("base"),
    DimensionError("3 != 4"),
    NumericError("not finite"),
    ParameterError("expected lr > 0, got 0", "lr"),
    ParameterError("expected lr > 0, got 0"),
    FormatError("bad magic"),
    ConfigError("algorithm.alpha", "expected a number, got string"),
    RunError("round 3: overflow"),
])
def test_every_error_survives_pickling(error):
    """A sweep's worker processes send their runs' errors to the caller pickled."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert getattr(copy, "field", None) == getattr(error, "field", None)

