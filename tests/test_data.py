import numpy as np
import pytest

from feddrift.data import (
    DIRICHLET_NAMED,
    _client_quotas,
    FederatedDataset,
    PartitionPlan,
    SyntheticConfig,
    generate_synthetic,
    load_mnist_idx,
    partition,
    save_mnist_idx,
)
from feddrift.errors import (
    ConsistencyError,
    FormatError,
    LengthError,
    ParameterError,
    PartitionError,
)
from feddrift.models import Batch, ModelSpec, accuracy, loss_and_grad
from feddrift.rng import stream


def train_centrally(ds, epochs=300, lr=1.0, seed=99):
    """Independent plain-SGD oracle: full-batch descent on the pooled data."""
    spec = ModelSpec("logistic", ds.train_inputs.shape[1], ds.num_classes)
    theta = np.zeros(spec.param_count)
    batch = Batch(ds.train_inputs, ds.train_labels)
    for _ in range(epochs):
        _, g = loss_and_grad(spec, theta, batch)
        theta -= lr * g
    return spec, theta


class TestSynthetic:
    def test_deterministic_bytes(self):
        cfg = SyntheticConfig(seed=5)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a.train_inputs.tobytes() == b.train_inputs.tobytes()
        assert a.train_labels.tobytes() == b.train_labels.tobytes()
        assert a.test_inputs.tobytes() == b.test_inputs.tobytes()
        c = generate_synthetic(SyntheticConfig(seed=6))
        assert a.train_inputs.tobytes() != c.train_inputs.tobytes()

    def test_labels_in_range(self):
        ds = generate_synthetic(SyntheticConfig(gamma1=1.0, gamma2=1.0, seed=1))
        for y in (ds.train_labels, ds.test_labels):
            assert y.min() >= 0 and y.max() < 5

    def test_homogeneous_shares_label_model(self):
        from feddrift.data import _client_label_model

        cfg = SyntheticConfig(gamma1=0.0, gamma2=0.0, seed=2)
        t0, b0 = _client_label_model(cfg, 0)
        t7, b7 = _client_label_model(cfg, 7)
        assert np.array_equal(t0, t7) and np.array_equal(b0, b7)
        het = SyntheticConfig(gamma1=1.0, seed=2)
        ta, _ = _client_label_model(het, 0)
        tb, _ = _client_label_model(het, 7)
        assert not np.array_equal(ta, tb)

    def test_gamma1_shifts_cancel_in_labels(self):
        # Uniform per-client shifts move the client models apart but are
        # invisible to argmax, so the labels match the homogeneous case.
        hom = generate_synthetic(SyntheticConfig(gamma1=0.0, seed=11))
        het = generate_synthetic(SyntheticConfig(gamma1=1.0, seed=11))
        assert np.array_equal(hom.train_labels, het.train_labels)
        assert np.array_equal(hom.train_inputs, het.train_inputs)

    def test_homogeneous_centrally_learnable(self):
        ds = generate_synthetic(SyntheticConfig(gamma1=0.0, gamma2=0.0, seed=3))
        spec, params = train_centrally(ds)
        acc = accuracy(spec, params, ds.test_inputs, ds.test_labels)
        assert acc > 0.95

    def test_partition_shape(self):
        cfg = SyntheticConfig(n_clients=4, samples_per_client_mean=50, seed=0)
        ds = generate_synthetic(cfg)
        assert ds.n_clients == 4
        assert all(len(p) == 50 for p in ds.partitions)
        assert ds.train_inputs.shape == (200, 30)
        assert ds.test_inputs.shape == (40, 30)

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            SyntheticConfig(n_clients=0)
        with pytest.raises(ParameterError):
            SyntheticConfig(gamma1=-0.5)


@pytest.mark.parametrize(
    "parts,message",
    [
        (([0, 1], [2, 4]), "sample 3 is in no partition"),
        (([0, 1, 2], [2, 3, 4]), "client 1 overlaps"),
        (([0, 1, 2], [3, 4, 5]), "client 1 holds out-of-range"),
        (([0, 1, 2, 3, 4], []), "client 1 has an empty partition"),
    ],
)
def test_dataset_partitions_cover_every_sample_once(parts, message):
    x = np.zeros((5, 2))
    with pytest.raises(PartitionError, match=message):
        FederatedDataset(x, np.zeros(5, dtype=np.int64), x, np.zeros(5, dtype=np.int64),
                         partitions=parts, num_classes=2)


class TestIdx:
    def test_round_trip_bitwise(self, tiny_idx_pair, tmp_path):
        img, lab, x, y = tiny_idx_pair
        lx, ly = load_mnist_idx(img, lab)
        assert np.array_equal(ly, y)
        assert np.allclose(lx, x)
        img2 = tmp_path / "again-images"
        lab2 = tmp_path / "again-labels"
        save_mnist_idx(lx, ly, img2, lab2)
        assert img2.read_bytes() == img.read_bytes()
        assert lab2.read_bytes() == lab.read_bytes()

    def test_scaling_to_unit_interval(self, tiny_idx_pair):
        img, lab, _, _ = tiny_idx_pair
        x, _ = load_mnist_idx(img, lab)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert x.shape == (100, 784)

    def test_gzip_transparent(self, tiny_idx_pair, tmp_path):
        import gzip

        img, lab, _, y = tiny_idx_pair
        gz_img = tmp_path / "images.gz"
        gz_lab = tmp_path / "labels.gz"
        gz_img.write_bytes(gzip.compress(img.read_bytes()))
        gz_lab.write_bytes(gzip.compress(lab.read_bytes()))
        _, ly = load_mnist_idx(gz_img, gz_lab)
        assert np.array_equal(ly, y)

    def test_bad_magic(self, tiny_idx_pair, tmp_path):
        img, lab, _, _ = tiny_idx_pair
        raw = bytearray(img.read_bytes())
        raw[:4] = b"\x00\x00\x00\x00"
        bad = tmp_path / "bad-images"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_mnist_idx(bad, lab)
        rawl = bytearray(lab.read_bytes())
        rawl[:4] = b"\xff\xff\xff\xff"
        badl = tmp_path / "bad-labels"
        badl.write_bytes(bytes(rawl))
        with pytest.raises(FormatError):
            load_mnist_idx(img, badl)

    def test_truncated(self, tiny_idx_pair, tmp_path):
        img, lab, _, _ = tiny_idx_pair
        cut = tmp_path / "cut-images"
        cut.write_bytes(img.read_bytes()[:-10])
        with pytest.raises(LengthError):
            load_mnist_idx(cut, lab)
        tiny = tmp_path / "tiny"
        tiny.write_bytes(b"\x00\x00")
        with pytest.raises(LengthError):
            load_mnist_idx(tiny, lab)

    def test_count_mismatch(self, tiny_idx_pair, tmp_path):
        import struct

        img, lab, x, y = tiny_idx_pair
        short_lab = tmp_path / "short-labels"
        short_lab.write_bytes(
            struct.pack(">II", 0x00000801, 50) + y[:50].astype(np.uint8).tobytes()
        )
        with pytest.raises(ConsistencyError):
            load_mnist_idx(img, short_lab)


def test_real_mnist_counts_when_available():
    from conftest import find_mnist_dir, mnist_paths

    root = find_mnist_dir()
    if root is None:
        pytest.skip("set FEDDRIFT_DATA_DIR to check the official file counts")
    paths = mnist_paths(root)
    x, y = load_mnist_idx(paths["train_images"], paths["train_labels"])
    assert x.shape == (60_000, 784) and y.shape == (60_000,)
    xt, yt = load_mnist_idx(paths["test_images"], paths["test_labels"])
    assert xt.shape == (10_000, 784) and yt.shape == (10_000,)


def fake_labels(n=60_000, num_classes=10, seed=0):
    return np.asarray(stream(seed, "testing").uniform01(n) * num_classes, dtype=np.int64)


def per_sample_dirichlet(labels, n_clients, plan):
    """The Dirichlet fill as one categorical draw per sample: the reference."""
    y = np.asarray(labels)
    quotas = _client_quotas(y.shape[0], n_clients, plan)
    classes = np.unique(y)
    pools = []
    for ci, c in enumerate(classes):
        idx = np.flatnonzero(y == c)
        order = stream(plan.seed, "partition-pool", client=ci).permutation(idx.shape[0])
        pools.append(list(idx[order]))
    stock = np.array([len(p) for p in pools], dtype=np.int64)
    out = []
    for i in range(n_clients):
        ratios = stream(plan.seed, "partition-ratio", client=i).dirichlet(
            classes.shape[0], plan.conc
        )
        fill = stream(plan.seed, "partition-fill", client=i)
        mine = np.empty(quotas[i], dtype=np.int64)
        for j in range(quotas[i]):
            avail = stock > 0
            p = ratios * avail
            total = p.sum()
            p = avail / avail.sum() if total <= 0.0 else p / total
            u = fill.uniform01()  # inverse CDF on one uniform
            c = int(np.searchsorted(np.cumsum(p / p.sum()), u, side="right").clip(0, p.size - 1))
            mine[j] = pools[c].pop()
            stock[c] -= 1
        out.append(np.sort(mine))
    return out


class TestPartition:
    @pytest.mark.parametrize(
        "n,n_clients,conc,balance,skew",
        [
            (3_000, 50, 0.05, "equal", False),
            (6_000, 30, 0.3, "lognormal", False),
            (2_000, 20, 0.6, "equal", True),
            (1_500, 40, 0.003, "lognormal", True),  # ratios of 0: the uniform fallback
        ],
    )
    def test_dirichlet_matches_per_sample_draws(self, n, n_clients, conc, balance, skew):
        y = fake_labels(n, seed=11)
        if skew:  # rare classes and gaps in the label values exhaust classes early
            y = np.where(y < 7, 9, 3 * y)
        plan = PartitionPlan(mode="dirichlet", conc=conc, balance=balance, seed=12)
        got = partition(y, n_clients, plan)
        want = per_sample_dirichlet(y, n_clients, plan)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_iid_equal_split(self):
        y = fake_labels(100)
        parts = partition(y, 10, PartitionPlan(mode="iid", seed=1))
        assert sorted(len(p) for p in parts) == [10] * 10
        joined = np.sort(np.concatenate(parts))
        assert np.array_equal(joined, np.arange(100))

    def test_iid_uneven_sizes_differ_by_at_most_one(self):
        parts = partition(fake_labels(103), 10, PartitionPlan(mode="iid", seed=2))
        sizes = sorted(len(p) for p in parts)
        assert sizes[-1] - sizes[0] <= 1
        assert sum(sizes) == 103

    @pytest.mark.parametrize("conc", [0.3, 0.6, 10.0])
    def test_dirichlet_disjoint_cover(self, conc):
        y = fake_labels(5_000)
        parts = partition(y, 25, PartitionPlan(mode="dirichlet", conc=conc, seed=3))
        joined = np.concatenate(parts)
        assert joined.shape[0] == 5_000
        assert np.unique(joined).shape[0] == 5_000
        assert all(len(p) >= 1 for p in parts)

    def test_dirichlet_concentration_limit_is_iid_like(self):
        y = fake_labels(60_000)
        parts = partition(y, 10, PartitionPlan(mode="dirichlet", conc=1e6, seed=4))
        global_share = np.bincount(y, minlength=10) / y.shape[0]
        for p in parts:
            share = np.bincount(y[p], minlength=10) / p.shape[0]
            assert np.all(np.abs(share - global_share) < 0.05)

    def test_stronger_skew_has_lower_label_entropy(self):
        y = fake_labels(30_000)

        def mean_entropy(conc, seed):
            parts = partition(y, 100, PartitionPlan(mode="dirichlet", conc=conc, seed=seed))
            ents = []
            for p in parts:
                q = np.bincount(y[p], minlength=10) / p.shape[0]
                q = q[q > 0]
                ents.append(-(q * np.log(q)).sum())
            return float(np.mean(ents))

        d1, d2 = DIRICHLET_NAMED["d1"], DIRICHLET_NAMED["d2"]
        gaps = [mean_entropy(d1, s) - mean_entropy(d2, s) for s in range(5)]
        assert np.median(gaps) > 0

    def test_lognormal_sizes(self):
        y = fake_labels(10_000)
        plan = PartitionPlan(mode="iid", balance="lognormal", lognormal_var=0.3, seed=5)
        parts = partition(y, 100, plan)
        sizes = np.array([len(p) for p in parts])
        assert sizes.min() >= 1
        assert sizes.sum() == 10_000
        assert sizes.std() > 0  # actually unbalanced

    def test_lognormal_dirichlet_combined(self):
        y = fake_labels(8_000)
        plan = PartitionPlan(mode="dirichlet", conc=0.3, balance="lognormal", seed=6)
        parts = partition(y, 50, plan)
        joined = np.concatenate(parts)
        assert np.unique(joined).shape[0] == 8_000

    def test_deterministic(self):
        y = fake_labels(2_000)
        plan = PartitionPlan(mode="dirichlet", conc=0.3, seed=7)
        a = partition(y, 10, plan)
        b = partition(y, 10, plan)
        assert all(np.array_equal(pa, pb) for pa, pb in zip(a, b))

    def test_infeasible(self):
        with pytest.raises(PartitionError, match="short by"):
            partition(fake_labels(5), 10, PartitionPlan(mode="iid", seed=0))

    def test_plan_validation(self):
        with pytest.raises(ParameterError):
            PartitionPlan(mode="dirichlet")
        with pytest.raises(ParameterError):
            PartitionPlan(mode="sorted")
        with pytest.raises(ParameterError):
            PartitionPlan(balance="zipf")
