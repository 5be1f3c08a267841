import numpy as np
import pytest

from splal.errors import ConfigurationError, InputDomainError
from splal.prototypes import PrototypeBank


def test_single_push_sets_prototype():
    bank = PrototypeBank(num_classes=2, feature_dim=3)
    f = np.array([1.0, 2.0, 3.0])
    bank.push(0, f)
    bank.push(1, -f)
    np.testing.assert_array_equal(bank.prototypes()[0], f)


def test_mean_of_two():
    bank = PrototypeBank(num_classes=1, feature_dim=2)
    bank.push(0, np.array([1.0, 0.0]))
    bank.push(0, np.array([0.0, 1.0]))
    np.testing.assert_allclose(bank.prototypes()[0], [0.5, 0.5], atol=1e-15)


def test_fifo_eviction_hand_trace():
    bank = PrototypeBank(num_classes=1, feature_dim=1, capacity=2)
    for v in (1.0, 2.0, 3.0):
        bank.push(0, np.array([v]))
    # capacity 2: f1 evicted, mean of (2, 3)
    assert bank.prototypes()[0][0] == pytest.approx(2.5, abs=1e-15)
    assert [f[0] for f in bank.queue_contents(0)] == [2.0, 3.0]


def test_pushing_current_mean_is_fixed_point():
    bank = PrototypeBank(num_classes=1, feature_dim=2, capacity=8)
    bank.push(0, np.array([2.0, 4.0]))
    bank.push(0, np.array([4.0, 2.0]))
    mean = bank.prototypes()[0].copy()
    bank.push(0, mean)
    np.testing.assert_allclose(bank.prototypes()[0], mean, atol=1e-15)


def test_class_out_of_range_rejected():
    bank = PrototypeBank(num_classes=2, feature_dim=1)
    with pytest.raises(InputDomainError):
        bank.push(2, np.array([1.0]))
    with pytest.raises(InputDomainError):
        bank.push(-1, np.array([1.0]))


def test_dimension_mismatch_rejected():
    bank = PrototypeBank(num_classes=1, feature_dim=3)
    with pytest.raises(InputDomainError):
        bank.push(0, np.ones(4))


def test_capacity_past_a_deque_rejected():
    with pytest.raises(ConfigurationError, match="^capacity: "):
        PrototypeBank(num_classes=2, feature_dim=1, capacity=2**63)


def test_unseeded_class_error():
    bank = PrototypeBank(num_classes=3, feature_dim=1)
    bank.push(0, np.array([1.0]))
    with pytest.raises(ConfigurationError, match="unseeded"):
        bank.prototypes()


def test_randomized_pushes_match_brute_force_oracle():
    rng = np.random.default_rng(11)
    capacity = 16
    bank = PrototypeBank(num_classes=3, feature_dim=4, capacity=capacity)
    shadow: dict[int, list[np.ndarray]] = {0: [], 1: [], 2: []}
    for _ in range(2000):
        k = int(rng.integers(0, 3))
        f = rng.normal(size=4)
        bank.push(k, f)
        shadow[k].append(f.copy())
    for k in range(3):
        trailing = shadow[k][-capacity:]
        contents = bank.queue_contents(k)
        assert len(contents) == len(trailing)
        for got, want in zip(contents, trailing):
            np.testing.assert_array_equal(got, want)
        brute = np.mean(np.stack(trailing), axis=0)
        np.testing.assert_allclose(bank.prototypes()[k], brute, atol=1e-12)


def test_pushed_feature_is_copied():
    bank = PrototypeBank(num_classes=1, feature_dim=2)
    f = np.array([1.0, 1.0])
    bank.push(0, f)
    f[0] = 99.0
    np.testing.assert_array_equal(bank.prototypes()[0], [1.0, 1.0])


@pytest.mark.parametrize("batch", [1, 7, 40, 300])
def test_batch_push_matches_one_row_pushes(batch):
    # batches larger than the capacity evict within one push
    rng = np.random.default_rng(batch)
    bulk = PrototypeBank(num_classes=3, feature_dim=4, capacity=16)
    rows = PrototypeBank(num_classes=3, feature_dim=4, capacity=16)
    for _ in range(900 // batch):
        ids = rng.integers(0, 3, size=batch)
        feats = rng.normal(size=(batch, 4))
        bulk.push(ids, feats)
        for k, f in zip(ids, feats):
            rows.push(int(k), f)
    for k in range(3):
        got, want = bulk.queue_contents(k), rows.queue_contents(k)
        assert len(got) == len(want) == 16
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(bulk.prototypes(), rows.prototypes())


def test_empty_batch_push_is_a_no_op():
    bank = PrototypeBank(num_classes=1, feature_dim=2)
    bank.push(np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    assert bank.queue_contents(0) == []


def test_bad_batch_rejected_whole():
    bank = PrototypeBank(num_classes=2, feature_dim=2)
    with pytest.raises(InputDomainError):
        bank.push(np.array([0, 2]), np.ones((2, 2)))
    with pytest.raises(InputDomainError):
        bank.push(np.array([0, 1]), np.ones((3, 2)))
    with pytest.raises(InputDomainError):
        bank.push(np.array([0.0, 1.0]), np.ones((2, 2)))
    assert bank.queue_contents(0) == bank.queue_contents(1) == []
