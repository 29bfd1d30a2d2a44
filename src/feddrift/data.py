"""Dataset construction and heterogeneity induction.

Three concerns live here: the synthetic linear-argmax benchmark with its
two heterogeneity dials, ingestion of image datasets stored in the IDX
binary format, and the IID / Dirichlet / size-unbalanced partitioners
that assign training indices to clients.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .rng import _MAX_CLIENT, stream

__all__ = [
    "FederatedDataset",
    "SyntheticConfig",
    "PartitionPlan",
    "DIRICHLET_NAMED",
    "generate_synthetic",
    "load_mnist_idx",
    "save_mnist_idx",
    "partition",
]

# Named non-IID settings: moderate and strong label skew.
DIRICHLET_NAMED = {"d1": 0.6, "d2": 0.3}

TEST_FRACTION = 0.2  # synthetic test samples per train sample of each client

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class FederatedDataset:
    """Samples, labels, and the per-client index partition.

    Inputs are (n, d) arrays, n >= 1 and one d, with (n,) labels each.
    uint8 inputs are pixels, which a model reads divided by 255 (as
    float64), one training batch or evaluation slice at a time; inputs
    of any other dtype are read as float64 values.
    Train partitions are pairwise disjoint, each nonempty, and together
    they cover every training sample; labels are integer class indices
    in [0, num_classes). Construction checks all three. `label` names
    the dataset in records.csv.
    """

    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray
    partitions: tuple
    num_classes: int
    label: str = "custom"

    def __post_init__(self):
        cols = np.shape(self.train_inputs)[1:]
        for xname, yname in (("train_inputs", "train_labels"), ("test_inputs", "test_labels")):
            shape, y = np.shape(getattr(self, xname)), np.asarray(getattr(self, yname))
            if len(shape) != 2 or not shape[0] or shape[1:] != cols or y.shape != shape[:1]:
                raise DimensionError(f"{xname} {shape} and {yname} {y.shape}: expected (n, d) "
                                     "and (n,), n >= 1 and one d for train and test")
            if not np.issubdtype(y.dtype, np.integer) or ((y < 0) | (y >= self.num_classes)).any():
                raise ParameterError(f"{yname} must be integer class indices < {self.num_classes}")
        parts = tuple(np.asarray(p, dtype=np.int64) for p in self.partitions)
        object.__setattr__(self, "partitions", parts)
        n = self.train_inputs.shape[0]
        seen = np.zeros(n, dtype=bool)
        for i, p in enumerate(parts):
            if p.size == 0:
                raise ParameterError(f"client {i} has an empty partition")
            if p.min() < 0 or p.max() >= n:
                raise ParameterError(f"client {i} holds out-of-range indices")
            if seen[p].any():
                raise ParameterError(f"client {i} overlaps another partition")
            seen[p] = True
        if not seen.all():
            raise ParameterError(f"sample {int(np.argmin(seen))} is in no partition")

    @property
    def n_clients(self) -> int:
        return len(self.partitions)

    def client_arrays(self, i: int):
        idx = self.partitions[i]
        return self.train_inputs[idx], self.train_labels[idx]


@dataclass(frozen=True)
class SyntheticConfig:
    """Linear-argmax data: y = argmax(theta_i @ x + b_i) per client.

    gamma2 shifts each client's input distribution by a per-coordinate
    mean ~ N(0, gamma2). gamma1 is meant to spread the per-client label
    models: each client's (theta_i, b_i) is one shared core plus its own
    scalar mu_i ~ N(0, gamma1) added to every entry. Both are variances.

    gamma1 has no effect on the data. mu_i adds the same amount to every
    class logit, and argmax cancels it, so any gamma1 generates the
    bitwise gamma1 == 0 data at every gamma2: the "synthetic-10" preset
    trains the homogeneous task of "synthetic-00". FedProx's generator
    (arXiv:1812.06127) draws each entry from N(u_k, 1) instead, which
    does move the labels.
    """

    gamma1: float = 0.0
    gamma2: float = 0.0
    n_clients: int = 20
    samples_per_client_mean: int = 200
    input_dim: int = 30
    num_classes: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("n_clients", 1), ("samples_per_client_mean", 1),
                         ("input_dim", 1), ("num_classes", 2)):
            if getattr(self, name) < lo:
                raise ParameterError(f"expected {name} >= {lo}, got {getattr(self, name)}", name)
        if self.n_clients > _MAX_CLIENT:  # each client owns streams keyed by its id
            raise ParameterError(
                f"expected n_clients <= {_MAX_CLIENT}, got {self.n_clients}", "n_clients"
            )
        for name in ("gamma1", "gamma2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"expected {name} >= 0, got {v!r}", name)

    @property
    def label(self) -> str:
        """The dataset's name in records.csv; a semicolon, not a comma, keeps it one cell."""
        return f"synthetic({self.gamma1:g};{self.gamma2:g})"


def _client_label_model(cfg: SyntheticConfig, client: int):
    """The (theta, b) pair labeling client's samples.

    One unit-Gaussian core (theta, b) is drawn once and shared; each
    client's pair is that core plus its own scalar mu_i ~ N(0, gamma1)
    added to every entry, so entries are marginally N(mu_i, 1) and
    gamma1 == 0 makes all clients bitwise identical. A uniform shift of
    theta rows and b cancels inside argmax, so the labels themselves
    match the homogeneous setting; the dial moves the client models
    apart without making the pooled task unlearnable.
    """
    c, d = cfg.num_classes, cfg.input_dim
    base = stream(cfg.seed, "synthetic-model", client=0)
    theta = base.standard_normal((c, d))
    b = base.standard_normal(c)
    if cfg.gamma1 > 0.0:
        personal = stream(cfg.seed, "synthetic-model", client=client + 1)
        mu = float(personal.standard_normal()) * math.sqrt(cfg.gamma1)
        theta = theta + mu
        b = b + mu
    return theta, b


def generate_synthetic(cfg: SyntheticConfig) -> FederatedDataset:
    """Deterministic per-seed dataset with per-client index ranges.

    Every client contributes `samples_per_client_mean` train samples and
    a TEST_FRACTION share of extra samples drawn from its own law and
    pooled into one global test set.
    """
    d = cfg.input_dim
    n_per = cfg.samples_per_client_mean
    n_test_per = max(1, round(TEST_FRACTION * n_per))

    train_x, train_y, test_x, test_y, parts = [], [], [], [], []
    offset = 0
    for i in range(cfg.n_clients):
        theta, b = _client_label_model(cfg, i)
        shift = stream(cfg.seed, "synthetic-shift", client=i).standard_normal(d)
        shift *= math.sqrt(cfg.gamma2)
        x = shift + stream(cfg.seed, "synthetic-train", client=i).standard_normal((n_per, d))
        xt = shift + stream(cfg.seed, "synthetic-test", client=i).standard_normal((n_test_per, d))
        train_x.append(x)
        train_y.append(np.argmax(x @ theta.T + b, axis=1))
        test_x.append(xt)
        test_y.append(np.argmax(xt @ theta.T + b, axis=1))
        parts.append(np.arange(offset, offset + n_per, dtype=np.int64))
        offset += n_per

    return FederatedDataset(
        train_inputs=np.concatenate(train_x),
        train_labels=np.concatenate(train_y).astype(np.int64),
        test_inputs=np.concatenate(test_x),
        test_labels=np.concatenate(test_y).astype(np.int64),
        partitions=tuple(parts),
        num_classes=cfg.num_classes,
        label=cfg.label,
    )


def _read_maybe_gzip(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:  # cut off or corrupt
        raise FormatError(f"{path}: unreadable gzip file: {exc}") from exc


def load_mnist_idx(images_path, labels_path):
    """Parse an IDX image/label file pair into (inputs, labels).

    Inputs come back as the (n, rows*cols) uint8 pixels, a read-only view
    of the file's bytes, and labels as (n,) int64. A model reads the
    pixels scaled to [0, 1] (see :class:`FederatedDataset`). Gzipped
    files are accepted.
    """
    img = _read_maybe_gzip(images_path)
    if len(img) < 16:
        raise FormatError(f"{images_path}: too short for an IDX image header")
    magic, n, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != _IDX_IMAGES_MAGIC:
        raise FormatError(
            f"{images_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}"
        )
    if len(img) != 16 + n * rows * cols:
        raise FormatError(
            f"{images_path}: declares {n} images of {rows}x{cols} "
            f"({16 + n * rows * cols} bytes) but holds {len(img)}"
        )
    lab = _read_maybe_gzip(labels_path)
    if len(lab) < 8:
        raise FormatError(f"{labels_path}: too short for an IDX label header")
    lmagic, ln = struct.unpack(">II", lab[:8])
    if lmagic != _IDX_LABELS_MAGIC:
        raise FormatError(
            f"{labels_path}: bad magic 0x{lmagic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}"
        )
    if len(lab) != 8 + ln:
        raise FormatError(f"{labels_path}: declares {ln} labels but holds {len(lab) - 8}")
    if ln != n:
        raise FormatError(f"{n} images but {ln} labels")
    inputs = np.frombuffer(img, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(lab, dtype=np.uint8, offset=8).astype(np.int64)
    return inputs, labels


def save_mnist_idx(inputs, labels, images_path, labels_path, rows=28, cols=28):
    """Write inputs/labels as an IDX pair; inverse of :func:`load_mnist_idx`.

    uint8 inputs are written as they are; float inputs in [0, 1] are
    scaled by 255 and rounded to the nearest byte.
    """
    x = np.asarray(inputs)
    y = np.asarray(labels)
    n = x.shape[0]
    if x.shape[1] != rows * cols:
        raise ParameterError(f"inputs have {x.shape[1]} pixels, expected {rows * cols}")
    if y.shape[0] != n:
        raise DimensionError(f"{n} images but {y.shape[0]} labels")
    pixels = x if x.dtype == np.uint8 else np.rint(x * 255.0).clip(0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", _IDX_LABELS_MAGIC, n))
        fh.write(y.astype(np.uint8).tobytes())


@dataclass(frozen=True)
class PartitionPlan:
    """How training indices are dealt to clients.

    mode "iid" deals a random permutation; "dirichlet" draws each client
    a label-ratio vector with concentration `conc` and fills its quota
    by label. balance "equal" gives every client the same count (+/-1);
    "lognormal" draws client quotas proportional to lognormal(0, var).
    """

    mode: str = "iid"
    conc: float | None = None
    balance: str = "equal"
    lognormal_var: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("iid", "dirichlet"):
            raise ParameterError(f"expected mode 'iid' or 'dirichlet', got {self.mode!r}", "mode")
        if self.mode == "dirichlet":
            if self.conc is None or not (np.isfinite(self.conc) and self.conc > 0):
                raise ParameterError(f"expected conc > 0 for dirichlet, got {self.conc!r}", "conc")
        if self.balance not in ("equal", "lognormal"):
            raise ParameterError(
                f"expected balance 'equal' or 'lognormal', got {self.balance!r}", "balance"
            )
        if not (np.isfinite(self.lognormal_var) and self.lognormal_var >= 0):
            raise ParameterError(
                f"expected lognormal_var >= 0, got {self.lognormal_var!r}", "lognormal_var"
            )


def _client_quotas(n: int, m: int, plan: PartitionPlan) -> np.ndarray:
    if n < m:
        raise ParameterError(
            f"cannot give {m} clients nonempty partitions from {n} samples "
            f"(short by {m - n})"
        )
    if plan.balance == "equal":
        base, extra = divmod(n, m)
        return np.array([base + (1 if i < extra else 0) for i in range(m)], dtype=np.int64)
    sigma = np.sqrt(plan.lognormal_var)
    draws = stream(plan.seed, "partition-balance").lognormal(0.0, sigma, m)
    target = n * draws / draws.sum()
    sizes = np.maximum(1, np.floor(target).astype(np.int64))
    # Largest-remainder rounding, never dropping a client below one sample.
    gap = n - int(sizes.sum())
    order = np.argsort(-(target - np.floor(target)), kind="stable")
    j = 0
    while gap > 0:
        sizes[order[j % m]] += 1
        gap -= 1
        j += 1
    j = 0
    big = np.argsort(-sizes, kind="stable")
    while gap < 0:
        k = big[j % m]
        if sizes[k] > 1:
            sizes[k] -= 1
            gap += 1
        j += 1
    return sizes


def partition(labels, n_clients: int, plan: PartitionPlan):
    """Per-client train index lists, disjoint and covering the pool."""
    y = np.asarray(labels)
    n = y.shape[0]
    if n_clients < 1:
        raise ParameterError(f"n_clients must be >= 1, got {n_clients}")
    quotas = _client_quotas(n, n_clients, plan)

    if plan.mode == "iid":
        perm = stream(plan.seed, "partition-permute").permutation(n)
        out, off = [], 0
        for q in quotas:
            out.append(np.sort(perm[off : off + q]).astype(np.int64))
            off += q
        return out

    classes = np.unique(y)
    num_classes = classes.shape[0]
    pools = []
    for ci, c in enumerate(classes):
        idx = np.flatnonzero(y == c)
        order = stream(plan.seed, "partition-pool", client=ci).permutation(idx.shape[0])
        pools.append(idx[order])
    # Class ci's undealt indices are pool[base[ci] : base[ci] + stock[ci]],
    # dealt from the end.
    pool = np.concatenate(pools)
    stock = np.array([p.size for p in pools], dtype=np.int64)
    base = np.cumsum(stock) - stock

    out = []
    for i in range(n_clients):
        ratios = stream(plan.seed, "partition-ratio", client=i).dirichlet(
            np.full(num_classes, plan.conc)
        )
        u = stream(plan.seed, "partition-fill", client=i).random(int(quotas[i]))
        mine = np.empty(quotas[i], dtype=np.int64)
        j = 0
        while j < u.size:
            avail = stock > 0
            p = ratios * avail
            total = p.sum()
            if total <= 0.0:
                # This client's preferred classes ran out; fall back to
                # uniform over whatever is still in stock.
                p = avail / avail.sum()
            else:
                p = p / total
            # Inverse CDF, one uniform per sample. The probabilities hold
            # until a draw exhausts a class, so map draws in prefixes
            # that end at such a draw. p is normalised a second time, as
            # the per-sample draw always did: partitions depend on its bits.
            cls = np.searchsorted(np.cumsum(p / p.sum()), u[j:], side="right")
            cls = cls.clip(0, num_classes - 1)
            taken = np.cumsum(cls[:, None] == np.arange(num_classes), axis=0)
            taken = taken[np.arange(cls.size), cls]  # the k-th draw of its class, from 1
            ends = np.flatnonzero(taken >= stock[cls])
            m = ends[0] + 1 if ends.size else cls.size
            cls, taken = cls[:m], taken[:m]
            if (taken > stock[cls]).any():
                raise ParameterError(f"client {i} drew from an exhausted class")
            mine[j : j + m] = pool[base[cls] + stock[cls] - taken]
            stock -= np.bincount(cls, minlength=num_classes)
            j += m
        out.append(np.sort(mine))
    return out
