import os

import numpy as np
import pytest


def bits_equal(a, b) -> bool:
    """Bit-level equality of two float64 arrays, stricter than == (distinguishes -0.0 from 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def bits():
    return bits_equal


def find_mnist_dir():
    """Directory holding the real IDX files, or None.

    Looked up via FEDDRIFT_DATA_DIR; the acceptance checks that need the
    actual dataset skip with instructions when it is absent.
    """
    root = os.environ.get("FEDDRIFT_DATA_DIR")
    if not root:
        return None
    names = [
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    ]
    for name in names:
        if not (
            os.path.exists(os.path.join(root, name))
            or os.path.exists(os.path.join(root, name + ".gz"))
        ):
            return None
    return root


def mnist_paths(root):
    def pick(name):
        p = os.path.join(root, name)
        return p if os.path.exists(p) else p + ".gz"

    return {
        "train_images": pick("train-images-idx3-ubyte"),
        "train_labels": pick("train-labels-idx1-ubyte"),
        "test_images": pick("t10k-images-idx3-ubyte"),
        "test_labels": pick("t10k-labels-idx1-ubyte"),
    }


@pytest.fixture
def tiny_idx_pair(tmp_path):
    """A 100-sample IDX fixture pair written through the library's writer."""
    from feddrift.data import save_mnist_idx

    rng = np.random.default_rng(7)
    x = rng.integers(0, 256, size=(100, 784)).astype(np.float64) / 255.0
    y = rng.integers(0, 10, size=100).astype(np.int64)
    img = tmp_path / "images-idx3-ubyte"
    lab = tmp_path / "labels-idx1-ubyte"
    save_mnist_idx(x, y, img, lab)
    return img, lab, x, y
