import io

import numpy as np
import pytest

from trpca import tensor_core as tc
from trpca.t_algebra import bcirc, tprod, ttranspose

from random_tensors import basis_column, identity_tensor, random_tensor


class TestZeros:
    """The zero tensor and tensor extents through ``as_tensor`` and ``TensorDims``."""

    def test_small(self):
        A = tc.as_tensor(np.zeros((2, 2, 2), dtype=np.int64))
        assert A.shape == (2, 2, 2) and A.dtype == np.float64
        assert np.all(A == 0)

    def test_scalar_like(self):
        assert tc.as_tensor(np.zeros((1, 1, 1))).item() == 0.0

    def test_fro_norm_zero(self):
        assert tc.norm_fro(np.zeros((3, 2, 4))) == 0.0

    @pytest.mark.parametrize("dims", [(0, 2, 2), (2, -1, 2), (2, 2, 0)])
    def test_bad_extent(self, dims):
        with pytest.raises(ValueError, match="extents"):
            tc.TensorDims(*dims).validate()


class TestValidation:
    def test_rejects_nan(self):
        A = np.zeros((2, 2, 2))
        A[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            tc.as_tensor(A)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            tc.as_tensor(np.zeros((2, 2)))


class TestFrontalSlice:
    """Frontal slice k is ``A[:, :, k]``: in the identity tensor, in ``bcirc``'s first
    block column, and as a view that ``as_tensor`` does not copy."""

    def test_identity_first_slice(self):
        assert np.array_equal(identity_tensor(2, 3)[:, :, 0], np.eye(2))

    def test_identity_other_slice(self):
        assert np.array_equal(identity_tensor(2, 3)[:, :, 1], np.zeros((2, 2)))

    def test_index_readback(self, rng):
        A = random_tensor(rng, 3, 4, 3)
        first_block_column = bcirc(A)[:, :4]
        for k in range(3):
            assert np.array_equal(first_block_column[3 * k : 3 * (k + 1)], A[:, :, k])

    def test_writes_through(self, rng):
        A = random_tensor(rng, 2, 2, 2)
        tc.as_tensor(A)[:, :, 0][0, 0] = 7.0
        assert A[0, 0, 0] == 7.0


class TestInnerProduct:
    def test_self_is_fro_squared(self, rng):
        A = random_tensor(rng, 3, 3, 4)
        assert np.vdot(A, A) == pytest.approx(tc.norm_fro(A) ** 2, rel=1e-12)


class TestNorms:
    def test_all_ones(self):
        A = np.ones((2, 2, 2))
        assert tc.norm_l1(A) == 8.0
        assert tc.norm_inf(A) == 1.0
        assert tc.norm_fro(A) == pytest.approx(np.sqrt(8.0))

    def test_zeros(self):
        Z = np.zeros((2, 2, 2))
        assert (tc.norm_l1(Z), tc.norm_inf(Z), tc.norm_fro(Z)) == (0.0, 0.0, 0.0)

    def test_matches_flattened_vector_norms(self, rng):
        A = random_tensor(rng, 3, 3, 3)
        v = A.ravel()
        assert tc.norm_l1(A) == pytest.approx(np.abs(v).sum(), rel=1e-12)
        assert tc.norm_inf(A) == pytest.approx(np.abs(v).max(), rel=1e-12)
        assert tc.norm_fro(A) == pytest.approx(np.sqrt((v**2).sum()), rel=1e-12)

    def test_norm_ordering(self, rng):
        for _ in range(20):
            A = random_tensor(rng, 3, 2, 4)
            assert tc.norm_l1(A) >= tc.norm_fro(A) >= tc.norm_inf(A)


class TestBasis:
    """The standard basis under the t-product (Kilmer and Martin): column basis e_i,
    tube basis t_k, and e_i * t_k * e_j^T the unit tensor at (i, j, k)."""

    def test_column_basis_entries(self):
        e = basis_column(0, 2, 2)
        assert e.shape == (2, 1, 2)
        assert e[0, 0, 0] == 1.0 and np.abs(e).sum() == 1.0

    def test_unit_matches_tproduct_of_bases(self):
        dims = (3, 2, 4)
        for i, j, k in [(0, 0, 0), (2, 1, 3), (1, 0, 2)]:
            tube = np.zeros((1, 1, 4))
            tube[0, 0, k] = 1.0
            built = tprod(tprod(basis_column(i, 3, 4), tube), ttranspose(basis_column(j, 2, 4)))
            unit = np.zeros(dims)
            unit[i, j, k] = 1.0
            assert np.allclose(built, unit, atol=1e-12)

    def test_readback_inner_product(self, rng):
        # e_i^T * A * e_j is the tube A[i, j, :]
        A = random_tensor(rng, 2, 3, 2)
        for i in range(2):
            for j in range(3):
                tube = tprod(tprod(ttranspose(basis_column(i, 2, 2)), A), basis_column(j, 3, 2))
                assert np.allclose(tube, A[i : i + 1, j : j + 1, :], atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4), (3, 4, 2)])
    def test_basis_reconstruction(self, rng, dims):
        # A is the sum over (i, j) of e_i * a_ij * e_j^T, a_ij its tube at (i, j)
        A = random_tensor(rng, *dims)
        recon = np.zeros_like(A)
        n1, n2, n3 = dims
        for i in range(n1):
            for j in range(n2):
                tube = A[i : i + 1, j : j + 1, :]
                e_i, e_j = basis_column(i, n1, n3), basis_column(j, n2, n3)
                recon += tprod(tprod(e_i, tube), ttranspose(e_j))
        assert tc.norm_fro(A - recon) <= 1e-12 * tc.norm_fro(A)


class TestFileFormat:
    def test_round_trip(self, rng, tmp_path):
        A = random_tensor(rng, 3, 4, 5)
        path = tmp_path / "a.tns3"
        tc.save_tensor(path, A)
        B = tc.load_tensor(path)
        assert np.array_equal(B, A)
        assert B.flags.writeable

    def test_layout(self):
        # header then slice-major float64 payload
        A = np.arange(12, dtype=float).reshape(2, 3, 2)
        buf = io.BytesIO()
        tc.write_tensor(buf, A)
        raw = buf.getvalue()
        assert raw[:4] == b"TNS3"
        assert np.frombuffer(raw[4:28], dtype="<u8").tolist() == [2, 3, 2]
        payload = np.frombuffer(raw[28:], dtype="<f8")
        assert np.array_equal(payload.reshape(2, 2, 3), np.moveaxis(A, 2, 0))

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            tc.read_tensor(io.BytesIO(b"XXXX" + b"\0" * 32))

    def test_rejects_size_mismatch(self, rng):
        A = random_tensor(rng, 2, 2, 2)
        buf = io.BytesIO()
        tc.write_tensor(buf, A)
        truncated = buf.getvalue()[:-8]
        with pytest.raises(ValueError, match="size mismatch"):
            tc.read_tensor(io.BytesIO(truncated))

    def test_rejects_trailing_bytes(self, rng):
        A = random_tensor(rng, 2, 2, 2)
        buf = io.BytesIO()
        tc.write_tensor(buf, A)
        with pytest.raises(ValueError, match="size mismatch"):
            tc.read_tensor(io.BytesIO(buf.getvalue() + b"\0"))

    def test_unseekable_stream_round_trip(self, rng):
        # more than one read chunk, through a stream that cannot report its length
        A = random_tensor(rng, 64, 64, 40)
        buf = io.BytesIO()
        tc.write_tensor(buf, A)
        assert np.array_equal(tc.read_tensor(_pipe(buf.getvalue())), A)
        with pytest.raises(ValueError, match="size mismatch"):
            tc.read_tensor(_pipe(buf.getvalue() + b"\0"))
        with pytest.raises(ValueError, match="size mismatch"):
            tc.read_tensor(_pipe(buf.getvalue()[:-8]))

    def test_unseekable_stream_oversized_header(self):
        # 2^38 declared entries (2 TiB) followed by 100 bytes
        header = b"TNS3" + np.array([1 << 14, 1 << 14, 1 << 10], dtype="<u8").tobytes()
        with pytest.raises(ValueError, match="size mismatch"):
            tc.read_tensor(_pipe(header + b"\0" * 100))


class _RawPipe(io.RawIOBase):
    """In-memory raw stream that, like a pipe, cannot seek."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self._data.readinto(b)


def _pipe(data: bytes) -> io.BufferedReader:
    """A buffered reader over ``data`` as ``open`` returns one for a pipe."""
    return io.BufferedReader(_RawPipe(data))
