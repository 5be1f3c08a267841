import numpy as np
import pytest

from splal.augment import _KERNEL, FLIP_PROB, _gaussian_kernel_3x3, strong_augment, weak_augment
from splal.errors import InputDomainError
from splal.loss import make_views

from helpers import replay_views


class TestWeakAugment:
    def test_hand_indexed_horizontal_flip(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(
            weak_augment(x, flip_h=[True], flip_v=[False]), [[[2.0, 1.0], [4.0, 3.0]]]
        )

    def test_double_flip_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(1, 5, 7))
        once = weak_augment(x, [True], [True])
        twice = weak_augment(once, [True], [True])
        np.testing.assert_array_equal(twice, x)

    def test_constant_image_unchanged(self):
        x = np.full((1, 4, 4), 0.3)
        np.testing.assert_array_equal(weak_augment(x, [True], [True]), x)

    def test_pixel_multiset_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(1, 6, 6))
        for fh in (False, True):
            for fv in (False, True):
                out = weak_augment(x, [fh], [fv])
                np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


class TestStrongAugment:
    def test_kernel_normalized(self):
        assert abs(_gaussian_kernel_3x3().sum() - 1.0) <= 1e-12

    def test_constant_image_fixed_point(self):
        x = np.full((1, 5, 5), 0.42)
        np.testing.assert_allclose(strong_augment(x), x, atol=1e-12)

    def test_centered_impulse_gives_kernel_center(self):
        # hand-normalized sigma=1 kernel: center weight 1 / (1 + 4e^-0.5 + 4e^-1)
        x = np.zeros((1, 3, 3))
        x[0, 1, 1] = 1.0
        center = 1.0 / (1.0 + 4 * np.exp(-0.5) + 4 * np.exp(-1.0))
        assert strong_augment(x)[0, 1, 1] == pytest.approx(center, abs=1e-12)

    def test_sum_preserved_on_constant_border(self):
        rng = np.random.default_rng(2)
        x = np.full((1, 8, 8), 0.5)
        x[0, 3:5, 3:5] = rng.uniform(size=(2, 2))
        assert strong_augment(x).sum() == pytest.approx(x.sum(), abs=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(1, 6, 6))
        y = rng.uniform(size=(1, 6, 6))
        lhs = strong_augment(2.5 * x - 0.7 * y)
        rhs = 2.5 * strong_augment(x) - 0.7 * strong_augment(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_too_small_rejected(self):
        with pytest.raises(InputDomainError):
            strong_augment(np.ones((1, 2, 5)))

    @pytest.mark.parametrize("shape", [(1, 5, 7), (6, 16, 16), (1, 3, 3), (2, 3, 3)])
    def test_matches_np_pad_oracle(self, shape):
        # np.pad(mode="reflect") builds the padding; taps summed in row-major order.
        x = np.random.default_rng(4).uniform(size=shape)
        h, w = shape[-2:]
        padded = np.pad(x, [(0, 0), (1, 1), (1, 1)], mode="reflect")
        expected = np.zeros_like(x)
        for di in range(3):
            for dj in range(3):
                expected += _KERNEL[di, dj] * padded[..., di : di + h, dj : dj + w]
        assert np.array_equal(strong_augment(x), expected)


class TestStacks:
    def test_stack_matches_grid_by_grid(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(9, 5, 7))
        fh, fv = rng.random(9) < 0.5, rng.random(9) < 0.5
        weak = weak_augment(x, fh, fv)
        strong = strong_augment(x)
        for i in range(len(x)):
            one = slice(i, i + 1)  # a stack of one grid
            np.testing.assert_array_equal(weak[one], weak_augment(x[one], fh[one], fv[one]))
            np.testing.assert_array_equal(strong[one], strong_augment(x[one]))

    @pytest.mark.parametrize("chunk", [1, 3, 10])
    def test_chunked_blur_matches_whole_stack(self, chunk):
        # every output pixel takes the same nine multiply-adds whatever the stack size
        x = np.random.default_rng(8).uniform(size=(10, 6, 5))
        parts = np.concatenate([strong_augment(x[i : i + chunk]) for i in range(0, len(x), chunk)])
        assert np.array_equal(parts, strong_augment(x))

    def test_input_stack_untouched(self):
        x = np.random.default_rng(7).uniform(size=(3, 4, 4))
        before = x.copy()
        weak_augment(x, np.ones(3, bool), np.ones(3, bool))
        strong_augment(x)
        np.testing.assert_array_equal(x, before)

    def test_one_flip_bit_per_grid_and_stacks_only(self):
        with pytest.raises(InputDomainError):
            weak_augment(np.zeros((3, 4, 4)), np.ones(2, bool), np.ones(3, bool))
        for x in (np.zeros((2, 3, 4, 4)), np.zeros((4, 4))):  # a lone (H, W) grid is not a stack
            with pytest.raises(InputDomainError, match=r"^x: "):
                strong_augment(x)
        with pytest.raises(InputDomainError, match=r"^x: "):
            weak_augment(np.zeros((4, 4)), True, True)


class TestPairReplay:
    def test_replay_reproduces_pair_exactly(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(5, 8, 8))
        weak, strong, flips = make_views(x, np.random.default_rng(99))
        again_weak, again_strong = replay_views(x, flips)
        np.testing.assert_array_equal(again_weak, weak)
        np.testing.assert_array_equal(again_strong, strong)

    def test_same_stream_same_pair(self):
        x = np.random.default_rng(5).uniform(size=(6, 4, 4))
        a = make_views(x, np.random.default_rng(7))
        b = make_views(x, np.random.default_rng(7))
        np.testing.assert_array_equal(a[2], b[2])
        np.testing.assert_array_equal(a[0], b[0])

    def test_shapes_preserved(self):
        x = np.zeros((3, 9, 5))
        weak, strong, flips = make_views(x, np.random.default_rng(0))
        assert weak.shape == x.shape
        assert strong.shape == x.shape
        assert flips.shape == (3, 2) and flips.dtype == bool

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_grid_oracle(self, seed):
        # oracle: the views grid by grid, two scalar draws per grid (h, then v)
        # from a twin generator
        x = np.random.default_rng(seed).uniform(size=(33, 6, 7))
        rng, twin = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        weak, strong, flips = make_views(x, rng)
        for i, g in enumerate(x):
            fh, fv = twin.random() < FLIP_PROB, twin.random() < FLIP_PROB
            assert (flips[i, 0], flips[i, 1]) == (fh, fv)
            np.testing.assert_array_equal(weak[i], weak_augment(g[None], [fh], [fv])[0])
            np.testing.assert_array_equal(strong[i], strong_augment(g[None])[0])
        assert rng.bit_generator.state == twin.bit_generator.state
