"""Image-domain pipeline: Netpbm I/O, tensor construction from image
stacks, random pixel corruption, PSNR scoring, and the tensor vs
channelwise denoisers.

Pixels are stored as 8-bit values and solved as floats in [0, 1]; the
conversion happens only at the stack/tensor boundary.  PSNR is computed on
the working range with peak 1.0 (equivalent to peak 255 on byte data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .solver import SolverConfig, default_lambda, solve
from .t_algebra import _fork_map
from .tensor_core import as_tensor

__all__ = [
    "ImageStack",
    "DenoiseReport",
    "read_netpbm",
    "write_netpbm",
    "stack_to_tensor",
    "tensor_to_stack",
    "corrupt_pixels",
    "psnr",
    "denoise",
]

PSNR_INFINITE = math.inf


@dataclass(frozen=True)
class ImageStack:
    """A stack of same-sized 8-bit grayscale frames or one color image.

    ``frames`` has shape (height, width, n) with uint8 values; ``color``
    marks the n == 3 channel interpretation (from a PPM) as opposed to a
    multi-frame grayscale stack.
    """

    frames: np.ndarray
    color: bool = False

    def __post_init__(self):
        f = np.asarray(self.frames)
        if f.ndim != 3 or f.dtype != np.uint8:
            raise ValueError("frames must be a (h, w, n) uint8 array")
        if self.color and f.shape[2] != 3:
            raise ValueError("color stacks must have exactly 3 channels")
        object.__setattr__(self, "frames", f)

    @property
    def height(self) -> int:
        return self.frames.shape[0]

    @property
    def width(self) -> int:
        return self.frames.shape[1]

    @property
    def n_frames(self) -> int:
        return self.frames.shape[2]


@dataclass
class DenoiseReport:
    """Quality summary of one denoising run."""

    psnr_trpca: float
    psnr_baseline: float | None
    solver_iterations: int


# ---------------------------------------------------------------------------
# Netpbm (binary PGM / PPM, maxval 255)
# ---------------------------------------------------------------------------


def _read_netpbm_tokens(data: bytes, count: int):
    """Yield `count` whitespace/comment-delimited header tokens and the
    offset just past them."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise ValueError("truncated Netpbm header")
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            pos = data.index(b"\n", pos) + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    return tokens, pos + 1  # single whitespace after maxval


def read_netpbm(path) -> ImageStack:
    """Read a binary PGM (P5) or PPM (P6) with maxval 255."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"P5", b"P6"):
        raise ValueError(f"{path}: not a binary PGM/PPM file")
    color = data[:2] == b"P6"
    (_, w, h, maxval), offset = _read_netpbm_tokens(data, 4)
    width, height, maxval = int(w), int(h), int(maxval)
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}, expected 255")
    channels = 3 if color else 1
    expected = width * height * channels
    raster = data[offset : offset + expected]
    if len(raster) != expected:
        raise ValueError(f"{path}: raster has {len(raster)} bytes, expected {expected}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return ImageStack(frames=np.ascontiguousarray(pixels), color=color)


def write_netpbm(f, stack: ImageStack) -> None:
    """Write a color stack as binary PPM, a single frame as binary PGM, to the binary
    stream ``f``."""
    if stack.color:
        header = f"P6\n{stack.width} {stack.height}\n255\n"
        raster = stack.frames
    else:
        if stack.n_frames != 1:
            raise ValueError("PGM output requires a single-frame stack")
        header = f"P5\n{stack.width} {stack.height}\n255\n"
        raster = stack.frames[:, :, 0]
    f.write(header.encode("ascii"))
    f.write(np.ascontiguousarray(raster).tobytes())


# ---------------------------------------------------------------------------
# Stack <-> tensor conversion and corruption
# ---------------------------------------------------------------------------


def stack_to_tensor(stack: ImageStack) -> np.ndarray:
    """Scale to [0, 1] floats; frontal slice k is frame/channel k."""
    return stack.frames.astype(np.float64) / 255.0


def tensor_to_stack(A: np.ndarray, color: bool = False) -> ImageStack:
    """Clamp to [0, 1] and quantize back to 8-bit frames."""
    A = as_tensor(A)
    bytes_ = np.rint(np.clip(A, 0.0, 1.0) * 255.0).astype(np.uint8)
    return ImageStack(frames=bytes_, color=color)


def corrupt_pixels(X: np.ndarray, fraction: float, seed):
    """Replace a per-slice fraction of entries with uniform [0, 1] values.

    Each frontal slice gets exactly round(fraction * n1 * n2) corrupted
    positions, chosen independently per slice.  Returns the corrupted
    tensor and a boolean mask of the touched positions.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} out of range [0, 1]")
    X = as_tensor(X)
    n1, n2, n3 = X.shape
    m = round(fraction * n1 * n2)
    rng = np.random.default_rng(seed)
    corrupted = X.copy()
    mask = np.zeros(X.shape, dtype=bool)
    for k in range(n3):
        i, j = np.divmod(rng.choice(n1 * n2, size=m, replace=False), n2)
        corrupted[i, j, k] = rng.random(m)
        mask[i, j, k] = True
    return corrupted, mask


def psnr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at peak 1.0; infinite for identical inputs."""
    if reference.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {estimate.shape}")
    mse = float(np.mean((np.asarray(reference, float) - np.asarray(estimate, float)) ** 2))
    if mse == 0.0:
        return PSNR_INFINITE
    return 10.0 * math.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# Denoising pipelines
# ---------------------------------------------------------------------------


def denoise(
    stack: ImageStack,
    fraction: float,
    seed,
    config: SolverConfig | None = None,
    baseline: bool = False,
):
    """Corrupt, solve the tensor decomposition, and score the recovery.

    Returns (DenoiseReport, L, E, mask) with L clamped to [0, 1].  With
    ``baseline=True`` each frontal slice is also solved on its own as an n3=1
    problem with the matrix weight 1/sqrt(max(n1, n2)), and the clamped slices
    are scored together; these channel solves run beside the tensor solve, in forked
    processes where ``os.fork`` and the OpenBLAS pin exist and on threads elsewhere
    (``t_algebra._fork_map``).
    """
    clean = stack_to_tensor(stack)
    corrupted, mask = corrupt_pixels(clean, fraction, seed)
    config = config or SolverConfig()
    problems = [(corrupted, config)]
    if baseline:
        n1, n2, n3 = corrupted.shape
        slice_config = replace(config, lam=default_lambda((n1, n2, 1)))
        problems += [(corrupted[:, :, k : k + 1], slice_config) for k in range(n3)]
    # independent solves, run side by side, the longest first
    result, *channels = _fork_map(solve, *zip(*problems))
    L = np.clip(result.L, 0.0, 1.0)
    psnr_base = None
    if baseline:
        base_L = np.clip(np.concatenate([r.L for r in channels], axis=2), 0.0, 1.0)
        psnr_base = psnr(clean, base_L)
    report = DenoiseReport(
        psnr_trpca=psnr(clean, L),
        psnr_baseline=psnr_base,
        solver_iterations=result.iterations,
    )
    return report, L, result.E, mask
