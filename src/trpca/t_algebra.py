"""The t-product algebra in the Fourier domain: DFT layer, t-product, t-SVD, ranks
and the tensor nuclear / spectral norms.

All tensor-tensor operations work slicewise in the Fourier domain along the
third axis; the dense block-circulant definitions that they match are kept by
the tests (``tests/random_tensors.py``).  DFT convention: unnormalized forward
transform, 1/n3 on the inverse (numpy's default), which makes the tensor nuclear
norm equal ``norm_* (bcirc(A)) / n3`` exactly.

For real inputs the spectrum is conjugate-symmetric across frontal slices
(slice k pairs with slice n3-k, 0-based), so only the first ``n3 // 2 + 1``
slices carry information.  One set of private helpers holds that layer:
``_half_spectrum`` copies those slices of ``dft3`` into an ``(h, n1, n2)``
array, ``_svd`` is the one batched SVD of such a stack, and
``_from_half_spectrum`` returns to a real tensor through ``irfft``, whose
output is real by construction.  For n3 <= 2 every kept slice is its own
conjugate, so the stack is float64 and every consumer runs real LAPACK and
BLAS kernels; at n3 = 1, where the DFT is the identity, neither transform runs.
The t-product, the t-SVD and ``prox.tsvt`` go through them (``tsvt`` uses
``_svd`` only where its Gram route would lose accuracy, and keeps of each
slice's factors only the singular vectors that the slice uses; its Gram route calls
LAPACK routines of numpy's OpenBLAS that numpy does not wrap, which
``_openblas`` looks up on first use); ``_sweep`` reads one
``_svd`` call out as all the ranks, norms and rank-r factors that an
inspection of a tensor needs.

Every batched BLAS or LAPACK call runs with OpenBLAS pinned to one thread.  Above a work
floor, ``PARALLEL_FLOOR``, ``_svd`` and ``prox.tsvt`` cut a stack into one chunk of slices per
core (``_chunks``); from ``SLAB_FLOOR`` entries on, ``_half_spectrum``,
``_from_half_spectrum`` and the solver's elementwise update cut a tensor into one row slab per
core (``_slabs``).  Each piece is a list of cache-sized blocks, and ``_blockwise`` shares them
in a work-sharing fork-join of the calling thread and a private pool: each thread starts on its
own piece and then takes the remaining blocks, in order, from one queue, so both cores stay busy
to the last block.  Once a block raises, no thread takes another, and the lowest failed block's
error is raised after every started block has finished.  The experiment harnesses map their
independent solves with ``_fork_map``, which runs them in the calling process and in children
forked for the map, so that no two solves share one GIL; without ``os.fork`` or the pin, which
is looked up only in the layout of numpy's Linux wheels, it runs them one after another on the
calling thread.  Below the floors, or inside a mapped solve, each stack is one chunk and each
tensor one slab.  Chunks, blocks and slabs change no bit: LAPACK factors each matrix of a stack
on its own, numpy's FFT transforms each tube on its own, and elementwise work has no order.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor_core import as_tensor

__all__ = [
    "TSvd",
    "dft3",
    "tprod",
    "tsvd",
    "multi_rank",
    "tubal_rank",
    "tnn",
    "spectral_norm",
]

DEFAULT_RANK_TOL = 1e-8

@dataclass(frozen=True)
class TSvd:
    """Factor triple A = U * S * V^T with f-diagonal S.

    ``U`` is n1 x rho x n3, ``S`` is rho x rho x n3, ``V`` is n2 x rho x n3
    where rho = min(n1, n2).  Slicing the first r of the rho columns, and of
    S's rows, gives the skinny factorization of rank r.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def dft3(A: np.ndarray) -> np.ndarray:
    """Forward DFT of every tube, returning the complex spectral tensor."""
    C = np.asarray(A, dtype=np.float64).astype(np.complex128)
    return np.fft.fft(C, axis=2, out=C)


def _half_spectrum(A: np.ndarray) -> np.ndarray:
    """Spectral slices 0..n3//2 of A, whose conjugates are the rest, as an (h, n1, n2) stack.

    Each block of rows of A (``_slabs``) goes through ``dft3`` on its own and writes its half
    into the C-contiguous stack, so only a block's full spectrum is held at a time.  Slice 0
    and, for even n3, slice n3/2 are their own conjugates, so they are real; their rounding
    residue is dropped so that their SVD factors, null spaces included, are real too.  For
    n3 <= 2 those are all the slices, so the stack is float64.
    """
    n1, n2, n3 = A.shape
    if n3 == 1:  # the DFT of length 1 is the identity
        return np.moveaxis(np.asarray(A, dtype=np.float64), 2, 0).copy()
    h = n3 // 2 + 1
    stack = np.empty((h, n1, n2), dtype=np.float64 if n3 == 2 else np.complex128)

    def half(b):
        spectrum = np.moveaxis(dft3(A[b])[:, :, :h], 2, 0)
        stack[:, b] = spectrum.real if n3 == 2 else spectrum

    _blockwise(half, _slabs(A.shape))
    if n3 > 2:
        stack.imag[[0, n3 // 2] if n3 % 2 == 0 else [0]] = 0.0
    return stack


def _from_half_spectrum(stack: np.ndarray, n3: int) -> np.ndarray:
    """The real n1 x n2 x n3 tensor whose first spectral slices are ``stack``, through ``irfft``
    of each row slab (``_slabs``); in blocks of rows the peak RSS of the ``inspect_100``
    benchmark read 84.88-85.79 MiB against 84.90-85.02 (5 runs each; 2-vCPU Xeon).  At n3 = 1
    that is the (real) stack itself, which ``irfft`` would return bit for bit, slower."""
    T = np.moveaxis(stack, 0, 2)
    if n3 == 1:
        return np.ascontiguousarray(T)
    out = np.empty(T.shape[:2] + (n3,))
    slabs = [[slice(p[0].start, p[-1].stop)] for p in _slabs(out.shape)]
    _blockwise(lambda b: np.fft.irfft(T[b], n=n3, axis=2, out=out[b]), slabs)
    return out


def _svd(stack: np.ndarray, compute_uv: bool = True, keep=None):
    """Thin SVD of every matrix in the stack, as (U, s, Vh), on one BLAS thread, in the blocks of
    ``_chunks`` by ``_blockwise``; without ``compute_uv`` U and Vh are None.  Every block, the one
    block of a small stack too, writes into outputs allocated here once, so no full-size output is
    made on a pool thread.  With ``keep``, the list of ``keep(b, U, s, Vh)`` over the blocks b,
    each taken as soon as its block is factored, is returned instead, so a caller that keeps of
    each slice only the singular vectors it uses (``prox.tsvt``) never holds them all.  LAPACK's
    divide-and-conquer SVD (gesdd) occasionally fails to converge on a finite matrix that its
    conjugate transpose factors fine, so a failed block is retried once on the conjugate
    transposes with the factors swapped back.

    Only finite blocks reach LAPACK and only finite singular values are returned: a spectrum
    with a NaN or an infinity (a finite tensor near the float64 limit overflows in the DFT),
    or a matrix whose singular values overflow, raises ``LinAlgError``.  LAPACK was seen to
    spin without end on the retry of an infinite block, and to return infinite singular values
    for a finite one.  For the half spectrum of a 100^3 tensor, checking every block on one
    thread took 1.1-1.4 ms, against 98-107 ms for its singular values (2-vCPU Xeon)."""

    def factor(b):
        if not np.isfinite(stack[b]).all():
            raise np.linalg.LinAlgError("the spectrum is not finite")
        try:
            out = np.linalg.svd(stack[b], full_matrices=False, compute_uv=compute_uv)
        except np.linalg.LinAlgError:
            H = stack[b].conj().swapaxes(1, 2)
            out = np.linalg.svd(H, full_matrices=False, compute_uv=compute_uv)
            if compute_uv:  # H = (U S Vh)^H, so its factors swap back
                out = out[2].conj().swapaxes(1, 2), out[1], out[0].conj().swapaxes(1, 2)
        if not np.isfinite(out[1] if compute_uv else out).all():
            raise np.linalg.LinAlgError("the singular values are not finite")
        return out if compute_uv else (None, out, None)

    h, n1, n2 = stack.shape
    k, pieces = min(n1, n2), _chunks(stack)
    with _one_blas_thread():
        if keep is not None:
            return _blockwise(lambda b: keep(b, *factor(b)), pieces)
        U = np.empty((h, n1, k), stack.dtype) if compute_uv else None
        s = np.empty((h, k))
        Vh = np.empty((h, k, n2), stack.dtype) if compute_uv else None

        def write(b):
            for out, value in zip((U, s, Vh), factor(b)):
                if out is not None:
                    out[b] = value

        _blockwise(write, pieces)
        return U, s, Vh


def _blockwise(fn, pieces: list) -> list:
    """``[fn(b) for b in blocks]`` over the blocks of ``pieces`` (``_chunks`` or ``_slabs``), in
    block order: the work-sharing fork-join of the parallel layer.  One piece, or pieces inside a
    task, is a plain loop.  Otherwise the calling thread runs a task for piece 0 and the private
    pool one for each other piece.  A task runs its own piece's first block, then the remaining
    blocks, in block order, from one queue that all tasks share, so no core idles while blocks
    are left: in 100^3 Table-1 solves (six seeds) the factorization's joins left a core idle
    for 0.06-0.42 s a solve with fixed pieces, and for 0.05-0.07 s with the queue (2-vCPU
    Xeon).  The queue's first blocks are dealt one to each task before the tasks start, so
    every task runs two blocks while they last, even on a pool thread that a caller running
    short blocks keeps off the GIL.  Blocks are independent, so none of this moves a bit.  Each
    task sets ``_task.busy``, so its nested ``_chunks`` and ``_slabs`` give one piece and its
    nested fork-joins are plain loops.  Blocks that call BLAS run under their caller's pin.  Once a
    block raises, no task takes another; the lowest failed block's error is raised once every
    started block has finished, so none is still running when the caller's pin is lifted or its
    fallback runs."""
    if len(pieces) == 1 or _in_task():
        return [fn(b) for blocks in pieces for b in blocks]
    # concurrent.futures, which imports logging, would add about 6 ms to importing trpca
    from concurrent.futures import ThreadPoolExecutor, wait

    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_WORKERS, 1), thread_name_prefix="trpca")
        pool = _pool
    blocks = [b for piece in pieces for b in piece]
    firsts = list(itertools.accumulate([len(piece) for piece in pieces[:-1]], initial=0))
    shared = [i for i in range(len(blocks)) if i not in firsts]
    dealt = [[first, *shared[k : k + 1]] for k, first in enumerate(firsts)]
    queue = iter(shared[len(firsts) :])
    outs, errors, taking = [None] * len(blocks), {}, threading.Lock()

    def task(own):
        _task.busy = True
        try:
            order = itertools.chain(own, queue)
            i = next(order)
            while i is not None:
                try:
                    outs[i] = fn(blocks[i])
                except Exception as exc:
                    errors[i] = exc
                with taking:
                    i = None if errors else next(order, None)
        finally:
            _task.busy = False

    rest = [pool.submit(task, own) for own in dealt[1:]]
    try:
        task(dealt[0])
    finally:
        wait(rest)
        fn = None  # a pool thread may hold a finished task a moment longer
    for f in rest:
        f.result()  # what a task let through, which is no Exception: an interrupt, say
    if not errors:
        return outs
    exc = errors[min(errors)]
    errors = outs = None  # the traceback holds this frame, which need not hold the results
    raise exc


# Parallel layer.  OpenBLAS splits each small LAPACK call of a batch over its
# own threads, which is slower than one thread.  numpy's linalg and matmul
# release the GIL, so every batched BLAS or LAPACK call runs with OpenBLAS
# pinned to one thread, and the pieces of one stack or tensor (the slices of a
# large stack in contiguous chunks, the rows of a large tensor in contiguous
# slabs) run on the calling thread and on the pool; the LAPACK routines that
# ``prox`` calls through ctypes release the GIL too.  The pin is taken where BLAS
# is called: ``prox.tsvt`` holds it from its route decision on (its eigh or its
# subset kernel's LAPACK calls, and the rebuild), ``_svd`` around
# its factorization, and ``tprod``, ``tensor_core.norm_fro`` and
# ``solver._incoherence`` around their products; the other pieces (the
# transforms, the route guard's norms, the solver's update) run only FFTs and
# ufuncs.  Per matrix and per tube the result has the same bits at any
# chunking, any worker count and any OPENBLAS_NUM_THREADS.
# Without the pin there is no split, since each call would then start its own
# BLAS threads.  An unpinned call also leaves OpenBLAS's worker spinning: after a
# (51, 100, 10) @ (51, 10, 100) complex product a 0.3 s sleep took 0.124 s of
# process CPU time (0.000 s pinned), a core the next parallel stage then lacks.
#
# The work of a call on an (h, n1, n2) stack is h * min(n1, n2)^2 * max(n1, n2).
# Below PARALLEL_FLOOR the stack is one chunk.  Median ms per ADMM
# iteration of synth.run_trial on n x n x n3 (12 solves a mode, alternating in
# one process; 2-vCPU Xeon, OpenBLAS 0.3.31), one unpinned call (OpenBLAS's
# default of 2 threads) / one pinned call / pinned and split: 16x16x4 (work
# 12288) 0.49 / 0.49 / 0.72, 24x24x6 (55296) 1.08 / 1.08 / 1.30, 40x40x10
# (384000) 2.63 / 2.66 / 3.12, 50x50x6 (500000) 2.82 / 2.63 / 2.65, 64x64x3
# (524288) 2.55 / 2.28 / 2.40, 40x40x20 (704000) 4.76 / 5.35 / 4.20, 48x48x12
# (774144) 5.37 / 4.73 / 4.35, 64x64x6 (1048576) 5.44 / 4.95 / 4.24, 100x100x4
# (3000000) 11.8 / 9.84 / 7.85.  So below the floor the pin alone is as fast or
# faster, and the split pays from about 600000 on.
PARALLEL_FLOOR = 600_000

# Elementwise and tube-by-tube work (the transforms of the half spectrum and the solver's
# update) goes to the pool in row slabs from SLAB_FLOOR entries on.  Median ms per iteration
# of a 30-iteration solve of a random n1 x n2 x n3 tensor, one slab / one slab per core, the
# factorizations chunked alike (12 solves a mode, alternating; 2-vCPU Xeon, OpenBLAS
# 0.3.31): 24^3 (13824 entries) 3.04 / 3.87, 32^3 (32768) 5.91 / 6.48, 100x100x4 (40000)
# 9.33 / 9.04, 36^3 (46656) 7.66 / 7.08, 128x128x3 (49152) 9.90 / 9.37, 40^3 (64000)
# 8.68 / 7.75, 56^3 (175616) 24.3 / 20.4.  So the split pays from about 45000 entries on.
SLAB_FLOOR = 50_000

# Each chunk and slab but the inverse transform's goes in blocks of rows of about _BLOCK
# entries, so that temporaries stay in cache and small.  Large temporaries made on pool threads
# would stay in those threads' malloc arenas after they are freed: with whole-slab forward
# transforms, three inspections of a 100^3 tensor raised the peak RSS from 88.5 to 96.0 MiB
# (82.5 in blocks).  The solver's update of a 100^3 tensor in two slabs took 19-21 ms in
# blocks of 3 rows (2^15 entries), 18 ms in blocks of 6 and 25-27 ms in whole slabs; in one
# slab, 22-27 ms in blocks of 3 rows and 45-60 ms whole (medians of 15 and 10, two runs;
# 2-vCPU Xeon).  Whole 25-iteration solves ran as fast or faster with 2^15 as with 2^16 at
# 100^3, 56^3 and 200x200x8.
_BLOCK = 1 << 15

# worker threads besides the calling one; the pool is made on first use
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) - 1
_pool = None
_lock = threading.Lock()  # guards the pool and the pin below
_blas = None  # (get, set) thread count of numpy's OpenBLAS, () when absent
_pin_depth = 0
_pin_saved = 0
_task = threading.local()  # .busy while this thread runs a piece of a fork-join or a forked map


def _above_floor(stack: np.ndarray) -> bool:
    h, n1, n2 = stack.shape
    return h * min(n1, n2) ** 2 * max(n1, n2) >= PARALLEL_FLOOR


def _openblas():
    """OpenBLAS's thread-count getter and setter in numpy's bundled library and the LAPACK
    routines of ``prox``'s subset kernel (``_tridiagonal_routines``), or ().  Looked up on first
    use, not on import.

    Resolving it twice finds the same triple, so callers need not hold the lock.
    """
    global _blas
    if _blas is None:
        found = ()
        for path in Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*.so"):
            try:
                lib = ctypes.CDLL(str(path))
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found = (get, set_, _tridiagonal_routines(lib))
            break
        _blas = found
    return _blas


def _tridiagonal_routines(lib):
    """zhetrd, zstemr, zstedc and zunm2l of ``lib``, or None.  The library is ILP64, so every
    integer and LOGICAL argument is an int64; every argument goes by address, and the hidden
    lengths of the Fortran strings that follow them as size_t."""
    names = ("zhetrd", "zstemr", "zstedc", "zunm2l")
    try:
        routines = tuple(getattr(lib, f"scipy_{name}_64_") for name in names)
    except AttributeError:
        return None
    for f, arguments, strings in zip(routines, (10, 21, 13, 12), (1, 2, 1, 2)):
        f.argtypes = [ctypes.c_void_p] * arguments + [ctypes.c_size_t] * strings
        f.restype = None
    return routines


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, restoring its count when the
    last of any nested or concurrent callers leaves.  A no-op without OpenBLAS."""
    global _pin_depth, _pin_saved
    with _lock:
        blas = _openblas()
        if blas and _pin_depth == 0:
            _pin_saved = blas[0]()
            blas[1](1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _lock:
            _pin_depth -= 1
            if blas and _pin_depth == 0:
                blas[1](_pin_saved)


def _in_task() -> bool:
    return getattr(_task, "busy", False)


def _split(shape: tuple, above_floor: bool) -> list[list[slice]]:
    """The rows (first-axis indices) of an array of this shape in blocks of about ``_BLOCK``
    entries and at least one row each, grouped in one contiguous piece per core when
    ``above_floor``, OpenBLAS can be pinned and the caller is not in a task; else in one."""
    n, step = shape[0], max(1, _BLOCK // (shape[1] * shape[2]))
    k = min(_WORKERS + 1, n) if above_floor and _openblas() and not _in_task() else 1
    if k == 1 and n <= step:  # the common case of small arrays, without a loop
        return [[slice(0, n)]]
    edges = [n * i // k for i in range(k + 1)]
    return [[slice(i, min(i + step, stop)) for i in range(start, stop, step)]
            for start, stop in zip(edges, edges[1:])]


def _chunks(stack: np.ndarray) -> list[list[slice]]:
    """Blocks of slices of the stack, in one chunk per core from ``PARALLEL_FLOOR`` on
    (``_split``)."""
    return _split(stack.shape, _above_floor(stack))


def _slabs(shape: tuple) -> list[list[slice]]:
    """Blocks of rows of a tensor of this shape, in one row slab per core from ``SLAB_FLOOR``
    entries on (``_split``)."""
    return _split(shape, shape[0] * shape[1] * shape[2] >= SLAB_FLOOR)


def _reset_after_fork() -> None:
    # a forked child has none of the parent's threads: it must make its own pool
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)

# Call indices in the pipe of a _fork_map at once, 4 bytes each: 4 KiB, which a Linux pipe
# always holds, so no write to it blocks; each later write and read moves one index, and
# writes and reads of at most PIPE_BUF bytes are atomic.
_WINDOW = 1024


def _fork_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))`` for whole independent calls (the experiments' solves),
    shared between the calling process and up to ``_WORKERS`` children forked for this map.

    Threads would hand the GIL back and forth between the calls' many short numpy steps: a
    64x64x3 denoising solve took 0.54 s alone, 0.77 s beside the three channel solves run in a
    second thread and 0.56 s beside them run in a forked child (medians of 10; 2-vCPU Xeon,
    one BLAS thread).  Every process takes call indices from one pipe, so uneven calls balance;
    the one that takes index i puts back i + ``_WINDOW``, so the pipe runs empty only once the
    calls have run out.  Every process runs its calls on one BLAS thread and in a task, so each
    solve keeps every stack and tensor in one piece and has the same bits in any process.  A
    child sends its ``(index, result, exception)`` triples back pickled once the calls have run
    out and leaves only through ``os._exit``, so what it printed but did not flush is lost.  The
    pool's idle threads hold no lock that a child takes: ``_reset_after_fork`` gives it a new
    pool and lock.

    Once a call raises, it sets a stop flag shared with every process, and no process starts a
    further call; the exception of the lowest failed index is raised, with its own type, after
    every child has been reaped.  One that cannot be pickled comes back as a RuntimeError
    carrying its repr, and a child that ends without sending its results raises an error naming
    its status, at the lowest index without an outcome.  Every child is reaped on every path; an
    interrupt kills them first.  Without ``os.fork`` or the pin, at ``_WORKERS == 0``, for one
    call or inside a task, the calls run one after another on the calling thread.
    """
    calls = list(zip(*iterables))
    n = len(calls)
    k = min(_WORKERS, n - 1)
    if k < 1 or not hasattr(os, "fork") or _in_task() or not _openblas():
        return [fn(*args) for args in calls]
    import mmap
    import signal

    stop = mmap.mmap(-1, 1)  # shared with the children: set once a call has raised
    take, put = os.pipe()

    def work():
        done, _task.busy = [], True
        try:
            while not stop[0]:
                try:
                    i = int.from_bytes(os.read(take, 4), "little")
                except BlockingIOError:  # the calls have run out
                    break
                if i + _WINDOW < n:
                    os.write(put, (i + _WINDOW).to_bytes(4, "little"))
                try:
                    done.append((i, fn(*calls[i]), None))
                except Exception as exc:
                    stop[0] = 1
                    done.append((i, None, exc))
        finally:
            _task.busy = False
        return done

    children, readers, lost = {}, [], []  # children: pid -> its result pipe, until reaped
    try:
        os.set_blocking(take, False)
        os.write(put, b"".join(i.to_bytes(4, "little") for i in range(min(n, _WINDOW))))
        try:
            with _one_blas_thread():
                for _ in range(k):
                    r, w = os.pipe()
                    readers.append(open(r, "rb"))
                    try:
                        pid = os.fork()
                        if pid == 0:
                            _child(work, w)
                        children[pid] = readers[-1]
                    finally:
                        os.close(w)
                done = work()
            for pid, reader in list(children.items()):
                data = reader.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if code == 0 and data:
                    done += map(pickle.loads, pickle.loads(data))
                else:
                    how = f"signal {-code}" if code < 0 else f"exit status {code}"
                    lost.append(f"worker process {pid} ended by {how} before sending its results")
        except BaseException:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid in children:
                os.waitpid(pid, 0)
    finally:
        for reader in readers:
            reader.close()
        os.close(take)
        os.close(put)
        stop.close()
    outcomes = {i: (value, exc) for i, value, exc in done}
    errors = {i: exc for i, (_, exc) in outcomes.items() if exc is not None}
    if lost:  # a dead child's calls are among those without an outcome
        missing = min(set(range(n)) - outcomes.keys(), default=n)
        errors.setdefault(missing, RuntimeError("; ".join(lost)))
    if errors:
        raise errors[min(errors)]
    return [outcomes[i][0] for i in range(n)]


def _child(work, out: int) -> None:
    """Run ``work`` in a child forked by ``_fork_map``, write its outcomes pickled to the pipe
    ``out`` and leave through ``os._exit``, with status 0 once all are written.  An exception,
    or a result, that does not survive pickling becomes a RuntimeError carrying its repr or the
    pickling error's."""

    def pickled(i, value, exc):
        try:
            data = pickle.dumps((i, value, exc))
            if exc is not None:
                pickle.loads(data)  # an exception whose arguments do not rebuild it fails here
            return data
        except Exception as err:
            return pickle.dumps((i, None, RuntimeError(repr(err if exc is None else exc))))

    status = 1
    try:
        data = memoryview(pickle.dumps([pickled(*outcome) for outcome in work()]))
        while data:
            data = data[os.write(out, data) :]
        status = 0
    finally:
        os._exit(status)


def _check_tprod_shapes(A: np.ndarray, B: np.ndarray) -> None:
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError("t-product requires 3-way tensors")
    if A.shape[1] != B.shape[0] or A.shape[2] != B.shape[2]:
        raise ValueError(f"t-product shape mismatch: {A.shape} * {B.shape}")


def tprod(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """t-product via slicewise matrix products in the Fourier domain."""
    _check_tprod_shapes(A, B)
    with _one_blas_thread():
        return _from_half_spectrum(_half_spectrum(A) @ _half_spectrum(B), A.shape[2])


def tsvd(A: np.ndarray) -> TSvd:
    """t-SVD of A: orthogonal U, V and f-diagonal S with A = U * S * V^T, rho = min(n1, n2).

    The skinny t-SVD of rank r is ``U[:, :r]``, ``S[:r, :r]`` and ``V[:, :r]``: the inverse
    transform treats each tube on its own, so truncating before or after it gives the same bits.
    """
    A = as_tensor(A)
    n3, rho = A.shape[2], min(A.shape[:2])
    U, s, Vh = _svd(_half_spectrum(A))
    return TSvd(
        U=_from_half_spectrum(U, n3),
        S=_from_half_spectrum(s[:, :, None] * np.eye(rho), n3),
        V=_from_half_spectrum(Vh.conj().swapaxes(1, 2), n3),
    )


def _sweep(A: np.ndarray, tol: float = DEFAULT_RANK_TOL, factors: bool = False):
    """One SVD of the half spectrum of A, as (multi rank, tnn, spectral norm, U, Vh).

    Ranks count singular values above ``tol`` times the global largest one.  U and Vh are None, or
    with ``factors`` the spectral factors, copied one at a time down to the tubal rank only where
    it is narrower.  A is freed once its half spectrum exists, if the caller holds no reference.
    Besides ``_svd``'s ``LinAlgError``, a tnn whose sum of finite singular values overflows
    raises one.
    """
    if not tol >= 0:  # NaN too
        raise ValueError(f"rank tolerance must be nonnegative, got {tol}")
    A = as_tensor(A)
    n3, stack = A.shape[2], _half_spectrum(A)
    del A
    U, s, Vh = _svd(stack, compute_uv=factors)
    # slice k shares its singular values with its conjugate partner n3-k
    k = np.arange(n3)
    sv = s[np.minimum(k, -k % n3)]
    nuclear = float(sv.sum() / n3)
    if nuclear == np.inf:
        raise np.linalg.LinAlgError("the tensor nuclear norm overflows")
    ranks = (sv > tol * sv.max(initial=0.0)).sum(axis=1).astype(int)
    if factors and ranks.max() < U.shape[2]:
        U = U[:, :, : ranks.max()].copy()
        Vh = Vh[:, : ranks.max(), :].copy()
    return ranks, nuclear, float(sv.max()), U, Vh


def multi_rank(A: np.ndarray) -> np.ndarray:
    """Per-spectral-slice matrix ranks: the singular values above ``DEFAULT_RANK_TOL`` times the
    global largest one."""
    return _sweep(A)[0]


def tubal_rank(A: np.ndarray) -> int:
    """Largest entry of the multi rank."""
    return int(multi_rank(A).max())


def tnn(A: np.ndarray) -> float:
    """Tensor nuclear norm: mean of the spectral slices' nuclear norms."""
    return _sweep(A)[1]


def spectral_norm(A: np.ndarray) -> float:
    """Tensor spectral norm: largest singular value across spectral slices."""
    return _sweep(A)[2]
