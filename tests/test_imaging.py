import numpy as np
import pytest

from trpca import imaging, t_algebra
from trpca.solver import SolverConfig
from trpca.synth import gen_low_rank


def make_color_stack(rng, h=16, w=16):
    return imaging.ImageStack(
        frames=rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8), color=True
    )


class TestImageStack:
    def test_rejects_non_uint8(self):
        with pytest.raises(ValueError):
            imaging.ImageStack(frames=np.zeros((4, 4, 2)))

    def test_rejects_color_with_wrong_channels(self):
        with pytest.raises(ValueError):
            imaging.ImageStack(frames=np.zeros((4, 4, 2), dtype=np.uint8), color=True)


class TestNetpbm:
    def test_ppm_round_trip(self, rng, tmp_path):
        stack = make_color_stack(rng)
        path = tmp_path / "img.ppm"
        imaging.write_netpbm(path, stack)
        back = imaging.read_netpbm(path)
        assert back.color
        assert np.array_equal(back.frames, stack.frames)

    def test_pgm_round_trip(self, rng, tmp_path):
        frames = rng.integers(0, 256, size=(5, 7, 1), dtype=np.uint8)
        stack = imaging.ImageStack(frames=frames)
        path = tmp_path / "img.pgm"
        imaging.write_netpbm(path, stack)
        back = imaging.read_netpbm(path)
        assert not back.color
        assert np.array_equal(back.frames, frames)

    def test_reads_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        stack = imaging.read_netpbm(path)
        assert np.array_equal(stack.frames[:, :, 0], [[0, 1], [2, 3]])

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="maxval"):
            imaging.read_netpbm(path)

    def test_rejects_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="raster"):
            imaging.read_netpbm(path)

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "x.pbm"
        path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
        with pytest.raises(ValueError, match="PGM/PPM"):
            imaging.read_netpbm(path)


class TestStackTensor:
    def test_single_frame(self, rng):
        frames = rng.integers(0, 256, size=(4, 5, 1), dtype=np.uint8)
        X = imaging.stack_to_tensor(imaging.ImageStack(frames=frames))
        assert X.shape == (4, 5, 1)
        assert X.min() >= 0.0 and X.max() <= 1.0

    def test_identical_frames_tubal_rank_one(self, rng):
        frame = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        frames = np.repeat(frame[:, :, None], 32, axis=2)
        X = imaging.stack_to_tensor(imaging.ImageStack(frames=frames))
        assert t_algebra.tubal_rank(X) <= min(8, np.linalg.matrix_rank(frame / 255.0))
        assert t_algebra.tubal_rank(X) == np.linalg.matrix_rank(frame / 255.0)

    def test_round_trip_quantization(self, rng):
        stack = make_color_stack(rng)
        back = imaging.tensor_to_stack(imaging.stack_to_tensor(stack), color=True)
        assert np.array_equal(back.frames, stack.frames)


class TestCorruptPixels:
    def test_zero_fraction(self, rng):
        X = rng.random((6, 6, 3))
        Y, mask = imaging.corrupt_pixels(X, 0.0, 0)
        assert np.array_equal(Y, X)
        assert not mask.any()

    def test_mask_cardinality_per_slice(self, rng):
        X = rng.random((10, 10, 4))
        _, mask = imaging.corrupt_pixels(X, 0.13, 1)
        for k in range(4):
            assert mask[:, :, k].sum() == round(0.13 * 100)

    def test_unmasked_entries_bit_identical(self, rng):
        X = rng.random((8, 8, 3))
        Y, mask = imaging.corrupt_pixels(X, 0.2, 2)
        assert np.array_equal(Y[~mask], X[~mask])
        assert (Y[mask] != X[mask]).all()

    def test_per_channel_union_fraction(self):
        # independent 10% per channel touches ~1 - 0.9^3 of pixel sites
        X = np.zeros((60, 60, 3))
        _, mask = imaging.corrupt_pixels(X, 0.1, 3)
        touched = mask.any(axis=2).mean()
        assert touched == pytest.approx(1 - 0.9**3, abs=0.03)

    def test_fraction_out_of_range(self, rng):
        with pytest.raises(ValueError):
            imaging.corrupt_pixels(rng.random((4, 4, 2)), 1.5, 0)

    def test_deterministic(self, rng):
        X = rng.random((8, 8, 2))
        Y1, m1 = imaging.corrupt_pixels(X, 0.25, 77)
        Y2, m2 = imaging.corrupt_pixels(X, 0.25, 77)
        assert np.array_equal(Y1, Y2) and np.array_equal(m1, m2)


class TestPsnr:
    def test_constant_offset(self):
        R = np.zeros((4, 4, 2))
        assert imaging.psnr(R, R + 0.1) == pytest.approx(20.0)

    def test_identical_is_infinite(self, rng):
        R = rng.random((3, 3, 3))
        assert imaging.psnr(R, R.copy()) == imaging.PSNR_INFINITE

    def test_matches_direct_mse(self, rng):
        R = rng.random((5, 4, 3))
        E = rng.random((5, 4, 3))
        mse = np.mean((R - E) ** 2)
        assert imaging.psnr(R, E) == pytest.approx(10 * np.log10(1.0 / mse), abs=1e-10)

    def test_symmetric_in_difference(self, rng):
        R = rng.random((4, 4, 2))
        E = rng.random((4, 4, 2))
        assert imaging.psnr(R, E) == pytest.approx(imaging.psnr(E, R), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            imaging.psnr(np.zeros((2, 2, 1)), np.zeros((2, 2, 2)))


class TestDenoise:
    def test_no_corruption_low_rank_input(self):
        # exact low-tubal-rank stack, no corruption: essentially perfect
        L = gen_low_rank((24, 24, 6), 1, 5)
        L = (L - L.min()) / (L.max() - L.min())
        stack = imaging.tensor_to_stack(L)
        report, rec, _, mask = imaging.denoise(stack, 0.0, seed=0)
        assert not mask.any()
        assert report.psnr_trpca > 60.0

    def test_synthetic_low_rank_recovery(self):
        L = gen_low_rank((40, 40, 8), 2, 9)
        L = 0.05 + 0.9 * (L - L.min()) / (L.max() - L.min())
        stack = imaging.tensor_to_stack(L)
        clean = imaging.stack_to_tensor(stack)
        report, rec, _, _ = imaging.denoise(stack, 0.1, seed=1)
        rel = np.linalg.norm(rec - clean) / np.linalg.norm(clean)
        assert rel <= 1e-2
        assert report.psnr_trpca >= 40.0

    def test_deterministic(self, rng):
        stack = make_color_stack(rng)
        cfg = SolverConfig(max_iter=40)
        r1 = imaging.denoise(stack, 0.1, seed=3, config=cfg)
        r2 = imaging.denoise(stack, 0.1, seed=3, config=cfg)
        assert r1[0].psnr_trpca == r2[0].psnr_trpca
        assert np.array_equal(r1[1], r2[1])


class TestChannelwiseBaseline:
    def test_svd_nonconvergence_is_retried(self):
        # this image and corruption make LAPACK's gesdd fail to converge on
        # one 64x64 slice of a channelwise solve
        from test_acceptance import make_test_image

        stack = imaging.tensor_to_stack(make_test_image(50800), color=True)
        report, _, _, _ = imaging.denoise(stack, 0.1, seed=508008, baseline=True)
        assert np.isfinite(report.psnr_trpca)
        assert report.psnr_trpca > report.psnr_baseline


    def test_single_slice_matches_tensor_path(self, rng):
        # n3 = 1: the baseline and the tensor solver are the same problem
        frames = rng.integers(0, 256, size=(20, 20, 1), dtype=np.uint8)
        stack = imaging.ImageStack(frames=frames)
        report, _, _, _ = imaging.denoise(stack, 0.1, 0, SolverConfig(max_iter=100), baseline=True)
        assert report.psnr_baseline == report.psnr_trpca

    def test_cross_frame_structure_beats_baseline(self):
        # identical frames: tensor route can exploit the shared structure
        L = gen_low_rank((24, 24, 1), 1, 13)[:, :, 0]
        L = 0.05 + 0.9 * (L - L.min()) / (L.max() - L.min())
        frames = np.repeat(
            np.rint(L * 255).astype(np.uint8)[:, :, None], 16, axis=2
        )
        stack = imaging.ImageStack(frames=frames)
        report, _, _, _ = imaging.denoise(stack, 0.1, seed=2, baseline=True)
        assert report.psnr_baseline is not None
        assert report.psnr_trpca > report.psnr_baseline
