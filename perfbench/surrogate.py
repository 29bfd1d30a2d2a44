"""An MNIST-shaped stand-in dataset, written as IDX files.

The real MNIST files are not part of the repository, so the MNIST-shaped
workload trains on 28x28 uint8 images whose labels come from a fixed
random linear teacher. Like real digits, the images lie near a
low-dimensional subspace of pixel space (LATENT fixed random
directions), and the labels are a function of the stored pixels, so the
task can be learned well above chance from a few hundred samples. The
subspace and the teacher are the same for every seed; the images are
drawn from the given seed. The files are written with the program's own
``save_mnist_idx``.
"""

from __future__ import annotations

import os

import numpy as np

from feddrift.data import save_mnist_idx

PIXELS = 28 * 28
CLASSES = 10
LATENT = 8
CONTRAST = 0.25  # pixel std around mid-grey; about 5% of pixels clip
TASK_KEY = 0x5EED  # Philox key of the fixed subspace and teacher
FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _split(rng, basis, teacher, n: int):
    latent = rng.standard_normal((n, LATENT))
    pixels = np.rint(np.clip(0.5 + CONTRAST * (latent @ basis), 0.0, 1.0) * 255.0) / 255.0
    labels = np.argmax((pixels - 0.5) @ teacher, axis=1)
    return pixels, labels


def write_surrogate(out_dir, seed: int, n_train: int, n_test: int) -> dict:
    """Write the four IDX files into out_dir; returns their paths by config key."""
    os.makedirs(out_dir, exist_ok=True)
    task = np.random.Generator(np.random.Philox(key=TASK_KEY))
    basis = task.standard_normal((LATENT, PIXELS)) / np.sqrt(LATENT)
    teacher = task.standard_normal((PIXELS, CLASSES))
    rng = np.random.Generator(np.random.Philox(key=seed))
    paths = {key: os.path.join(out_dir, name) for key, name in FILES.items()}
    for prefix, n in (("train", n_train), ("test", n_test)):
        x, y = _split(rng, basis, teacher, n)
        save_mnist_idx(x, y, paths[f"{prefix}_images"], paths[f"{prefix}_labels"])
    return paths
