import gzip
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


def store_rows(store, name: str, ids) -> np.ndarray:
    """A copy of field `name`'s rows of clients `ids` of a ClientStore, in the order of
    `ids` (also for a single id); a client never written reads +0.0."""
    arr, s = getattr(store, name), store.slot[ids]
    written = s < store.used
    if written.all():
        return arr.take(s, axis=0)  # a copy also for a scalar id, where arr[s] is a view
    out = np.zeros(np.shape(s) + arr.shape[1:])
    out[written] = arr[s[written]]
    return out


def seed_rows(store, ids, blocks: dict) -> None:
    """Admit clients `ids` to a ClientStore, then set their rows of each field to
    `blocks`, a field name -> (len(ids), P) map (or anything that broadcasts)."""
    slots = store.admit(ids)
    for name, block in blocks.items():
        getattr(store, name)[slots] = block


def planned_update(ids, n_samples, k_steps, theta, lr_t, cap=None, workers=0):
    """A RoundUpdate of these rows with the plan a round sets: `lr_t`, chunks of
    `cap` rows (max(1, BUDGET // P) by default) and `workers` pool threads."""
    from feddrift import federation

    theta = np.asarray(theta, dtype=np.float64)
    cap = cap or max(1, federation.BUDGET // theta.shape[1])
    slices = [slice(lo, lo + cap) for lo in range(0, len(theta), cap)]
    return federation.RoundUpdate(np.asarray(ids), np.asarray(n_samples), np.asarray(k_steps),
                                  theta, lr_t, slices, workers)


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


def damage_gzip(raw: bytes, damage: str) -> bytes:
    """`raw` gzipped, then cut off halfway or with one byte flipped.

    Byte 10, the first of the deflate stream, is a block header that zlib
    rejects once flipped; a flipped byte in the middle fails the CRC.
    """
    gz = bytearray(gzip.compress(raw, mtime=0))
    if damage == "cut-halfway":
        return bytes(gz[: len(gz) // 2])
    gz[10 if damage == "flipped-block-header" else len(gz) // 2] ^= 0xFF
    return bytes(gz)


@pytest.fixture
def mnist_gz_dir(tiny_idx_pair, tmp_path):
    """A data_dir holding the tiny IDX pair, gzipped, as train and test files."""
    img, lab, _, _ = tiny_idx_pair
    root = tmp_path / "mnist"
    root.mkdir()
    for split in ("train", "t10k"):
        (root / f"{split}-images-idx3-ubyte.gz").write_bytes(gzip.compress(img.read_bytes()))
        (root / f"{split}-labels-idx1-ubyte.gz").write_bytes(gzip.compress(lab.read_bytes()))
    return root
