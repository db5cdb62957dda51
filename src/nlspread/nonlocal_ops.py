"""Grid containers, quadrature and the dispersal operator for nonlocal dispersal.

Values live on a fixed global lattice x_k = k*dx.  A GridFunction stores
the active index range and per-component values; everything outside the
active range is treated as zero.  The two workhorse operations are the
kernel convolution (trapezoid weights, direct or FFT path) and the
dispersal flux across the two range edges (tail-function quadrature).
Both take a row block, an (m, n) array of the components that share one
kernel, and treat every row alike; boundary_flux returns the left and the
right flux of the block from one pass: the node distances to both edges
in one clamped (2, n) buffer, one tail evaluation, one center-paired
reduction for every (edge, row), and the trapezoid end terms and partial
cells added in Python floats, the arithmetic of the vectorized formula
term by term.  On a mirror state the pass covers the right edge alone,
and on rows that hold one set of bytes the first row alone (symmetry
note).

DispersalOperator is what the simulators hold, one per problem.  It groups
the dispersing rows whose kernels have the same spec, so each group is
convolved in one call, and it keeps one stencil and one weight spectrum
per group.  Either is rebuilt only when the half-width or
the FFT length changes, i.e. when the window grows, not on every step.
It is also the only place that chooses between the direct and the FFT
path; convolve_values runs a one-off operator.

FFT length: the circular transform has length L >= n + W (and >= 2W + 1),
which is enough for the n kept outputs.  Output i < n reads v[i - j] for
|j| <= W; negative indices wrap to L - W or above, at least n, where the
zero-padded input is zero, and indices up to n - 1 + W never wrap.  L is
the smallest 2^a 3^b 5^c at or above that bound, the length
scipy.fft.next_fast_len(., real=True) picks; the tests pin the two
together, because L fixes the transform and so every bit of a whole-line
run.  The transforms are numpy.fft's, which write into given buffers: the
operator keeps one workspace per group (the zero-padded input, the
spectrum product and the inverse output) and replaces it only when L
changes, so the transforms write into kept buffers, not fresh arrays
on every step.  A call zeroes the part of the pad tail that an earlier,
wider window at the same L left data in, and only that part, row by
row: a call uses the first rows of the workspace it needs.  pocketfft
releases the GIL, so the rows of a group are transformed on plain threads
started and joined within the call, one chunk of rows per usable CPU;
each row's transform is the same computation on any thread, so a block
gives bitwise the per-row results.  A call with one row transforms it
on the calling thread.  No thread outlives a call, which keeps the
process safe to fork.

Symmetry note: simulations must preserve mirror symmetry of symmetric
data to roundoff over thousands of steps.  The direct path returns
0.5 * (C(v) + R(C(R(v)))) for each row, where C convolves the zero-padded
row with the symmetric stencil and R reverses.  For the mirrored row R(v)
this is 0.5 * (C(R(v)) + R(C(v))), the reversal of the same two arrays
added in the other order, and IEEE addition commutes, so mirrored inputs
give bitwise-mirrored outputs by construction, whatever order the dot
products inside C sum in.  C reads a copy of the row at offset W of a
zero-padded buffer (the operator keeps one per group and makes it anew
when n changes; no call writes its pad), so it sees the same bits at the
same offsets wherever the row sat in memory (the row-block tests check
offset and reversed views).  Rows are convolved one at a time, so a row
block gives bitwise the per-row results.  Edge fluxes reduce arrays with
a center-pairing sum for the same reason, and each edge adds its far
partial cell before its near one, so the left flux of mirrored data is
bitwise the right flux of the data.

The simulators start from even data with g = -h, so every state of a
bundled laplace run equals its reversal bit for bit.  Both operations
skip the half of the work that would repeat bits they already have.  A
row whose bytes equal those of its reversal puts the same bits in the
same buffer for C(R(v)) as for C(v), so the direct path correlates it
once and returns 0.5 * (C(v) + R(C(v))), the same bits as two calls.
boundary_flux evaluates the right edge alone when g == -h, k_lo + k_hi
== 0 and the row block equals its reversal byte for byte: the distances
to g are then those to h reversed, the paired sum does not change under
reversal, the end terms trade places and the partial cells are equal, so
the left flux is the right one bit for bit.  Bytes, not values, decide:
-0.0 and 0.0 differ, and so may two NaNs.  Data that miss the test take
the two-pass path, whose arithmetic is unchanged.

Component symmetry: every bundled model is exchange-symmetric (equal
rates, one kernel, u*_1 == u*_2), so the rows of a kernel group hold the
same bytes in every state of its runs.  When they do (``_equal_rows``),
DispersalOperator.convolve sends the first row alone through the direct
or the FFT path and broadcasts its result to the group's rows, and
boundary_flux evaluates the first row and repeats its fluxes; this
composes with the mirror-state edge.  Either path computes every row by
itself, from its own bytes, with the same stencil, spectrum and
arithmetic: one correlate loop per row, one transform per row, one
paired sum per (edge, row).  A row with the first row's bytes therefore
gets the first row's bits, and the result is the per-row result bit for
bit.  One node of the first and the last row is compared as floats
first, so a block whose rows differ there pays one scalar compare.
Bytes decide here too; a NaN's bits are not reproducible even on the
per-row path (the flux of a row holding NaN and -NaN reads either sign
over repeated calls), so a NaN state is the same result only up to the
NaN's sign.  The simulators raise on a NaN state before it is written.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel

FFT_WINDOW_THRESHOLD = 512      # direct summation up to this half-width


class MeshTooCoarse(ValueError):
    """dx must resolve the kernel core (dx <= core scale / 4)."""


@dataclass
class GridFunction:
    """Per-component values on a contiguous range of the global lattice."""

    dx: float
    k_lo: int                    # global index of the first active node
    values: np.ndarray           # shape (m, n)

    def __post_init__(self):
        v = self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.ndim != 2:
            raise ValueError(f"values must be one row or an (m, n) array, "
                             f"got shape {v.shape}")
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def k_hi(self) -> int:
        return self.k_lo + self.n - 1

    @property
    def x(self) -> np.ndarray:
        """Coordinates of the active nodes."""
        return np.arange(self.k_lo, self.k_lo + self.n, dtype=float) * self.dx

    @property
    def origin_index(self) -> int:
        """Local index of the lattice node at x = 0 (may fall outside the range)."""
        return -self.k_lo

    def copy(self) -> "GridFunction":
        return GridFunction(self.dx, self.k_lo, self.values.copy())


@functools.lru_cache(maxsize=8)
def _node_coordinates(dx: float, k_lo: int, n: int) -> np.ndarray:
    """GridFunction.x of a window, computed once per window and read-only."""
    xs = np.arange(k_lo, k_lo + n, dtype=float) * dx
    xs.flags.writeable = False
    return xs


def check_mesh(kernel: Kernel, dx: float) -> None:
    if dx > kernel.core_scale / 4.0 + 1e-15:
        raise MeshTooCoarse(
            f"dx={dx} exceeds a quarter of the kernel core scale {kernel.core_scale}")


def _half_width(kernel: Kernel, dx: float, max_half_width: int | None) -> tuple[int, int]:
    """(W, full W): the stencil half-width and the one covering the cutoff radius."""
    full_w = int(np.ceil(kernel.cutoff_radius / dx - 1e-12))
    W = full_w if max_half_width is None else min(full_w, int(max_half_width))
    return max(W, 1), full_w


def kernel_weights(kernel: Kernel, dx: float, max_half_width: int | None = None) -> np.ndarray:
    """Trapezoid weights w_j = J(j*dx)*dx on |j| <= W, normalized mass.

    W covers the kernel cutoff radius, truncated to max_half_width when the
    active window is narrower than the kernel (heavy tails).  The weights
    are scaled so that the full-line discrete operator has unit mass: the
    retained window sum plus the analytic mass beyond it equals 1.  Without
    this the lattice trapezoid rule overshoots unit mass by O(dx^2) and the
    convolution would exceed max(f) for constant data.
    """
    check_mesh(kernel, dx)
    W, full_w = _half_width(kernel, dx, max_half_width)
    j = np.arange(0, W + 1, dtype=float)
    w_half = np.asarray(kernel.density(j * dx), dtype=float) * dx
    support = kernel.compact_support
    if support is not None:
        edge = support / dx
        # support boundary landing on a lattice node: half trapezoid weight
        near = np.abs(j - edge) <= 1e-9 * max(edge, 1.0)
        w_half[near] *= 0.5
    window_sum = w_half[0] + 2.0 * float(np.sum(w_half[1:]))
    if W < full_w:
        total = window_sum + 2.0 * float(kernel.tail((W + 0.5) * dx))
    else:
        total = window_sum
    if total <= 0:
        raise ValueError("kernel weights have no mass on this lattice")
    w_half /= total
    return np.concatenate([w_half[:0:-1], w_half])      # symmetric, length 2W+1


def _equal_rows(block: np.ndarray) -> bool:
    """Whether an (m, n) block has m >= 2 rows with the bytes of its first.

    One node of the first and the last row is compared as floats first,
    so a block whose rows differ there costs one scalar compare.  The
    bytes decide, as in ``_mirrored``.
    """
    m, n = block.shape
    if m < 2 or block[0, n // 2] != block[-1, n // 2]:
        return False
    first = block[0].tobytes()
    return all(row.tobytes() == first for row in block[1:])


def _mirrored(a: np.ndarray) -> bool:
    """Whether ``a`` equals its reversal along the last axis bit for bit.

    The bytes are compared, not the values: -0.0 and 0.0 differ, and a
    NaN matches only a NaN with the same bits.
    """
    return a.tobytes() == a[..., ::-1].tobytes()


def _convolve_direct(values: np.ndarray, weights: np.ndarray, *,
                     padded: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Windowed sum of a row block, 0.5 * (C(v) + R(C(R(v)))) per row.

    C is np.correlate of the zero-padded row with the stencil, which is
    the convolution because the stencil is symmetric; R reverses.  See the
    module note for why the pair makes the result mirror-exact, and why a
    row equal to its reversal bit for bit is correlated once.
    ``padded`` is a zero vector of length n + 2W and ``out`` an array of
    the block's shape when the caller keeps them; a call writes only the
    middle n entries of ``padded``, so its pad stays zero for the next.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    W = (len(weights) - 1) // 2
    if padded is None:
        padded = np.zeros(n + 2 * W)
    if out is None:
        out = np.empty(values.shape)
    slot = padded[W:W + n]
    k = n // 3
    for row, dst in zip(values.reshape(-1, n), out.reshape(-1, n)):
        slot[:] = row
        first = np.correlate(padded, weights, "valid")
        # for a row with its reversal's bits C(R(v)) is ``first`` again
        # (module note); one pair of nodes turns most other rows away
        # before the whole-row compare
        if row[k] == row[n - 1 - k] and _mirrored(row):
            np.add(first, first[::-1], out=dst)
        else:
            slot[:] = row[::-1]
            np.add(first, np.correlate(padded, weights, "valid")[::-1], out=dst)
    out *= 0.5
    return out


def _smooth_length(t: int) -> int:
    """Smallest 2^a 3^b 5^c >= t: scipy.fft.next_fast_len(t, real=True)."""
    best = 1 << (t - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            c = f35 << ((t - 1) // f35).bit_length()        # least f35 * 2^k >= t
            if c < best:
                best = c
            f35 *= 3
        f5 *= 5
    return best


def _fft_length(n: int, W: int) -> int:
    return _smooth_length(max(n + W, 2 * W + 1))


def _weight_spectrum(weights: np.ndarray, L: int) -> np.ndarray:
    """Real FFT of the stencil laid out circularly, w_j at index j mod L."""
    W = (len(weights) - 1) // 2
    circular = np.zeros(L)
    circular[:W + 1] = weights[W:]
    circular[L - W:] = weights[:W]
    return np.fft.rfft(circular)


class _FFTWorkspace:
    """The padded input, spectrum product and inverse output of a row block at length L.

    A call uses the first rows it needs.  ``dirty[r]`` is the end of the
    data the last call through row r wrote into ``padded[r]`` (L before
    any call), so a call zeroes only the part of its pad tail that an
    earlier, wider window filled.
    """

    def __init__(self, rows: int, L: int):
        self.padded = np.empty((rows, L))
        self.product = np.empty((rows, L // 2 + 1), complex)
        self.full = np.empty((rows, L))
        self.dirty = [L] * rows


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity call on this platform
        return os.cpu_count() or 1


def _convolve_fft(values: np.ndarray, weights: np.ndarray,
                  spectrum: np.ndarray | None = None,
                  work: _FFTWorkspace | None = None) -> np.ndarray:
    """Circular convolution of a row block at length L >= n + W (module note).

    ``spectrum`` is ``_weight_spectrum(weights, L)`` and ``work`` is
    an ``_FFTWorkspace`` of at least as many rows at L = ``_fft_length(n,
    W)`` when the caller keeps them; otherwise they are made here.  The
    result is a view of the workspace's inverse output, valid until its
    next use.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    rows = values.reshape(-1, n)
    m = rows.shape[0]
    L = _fft_length(n, (len(weights) - 1) // 2)
    if spectrum is None:
        spectrum = _weight_spectrum(weights, L)
    if work is None:
        work = _FFTWorkspace(m, L)
    padded, product, full = work.padded[:m], work.product[:m], work.full[:m]
    padded[:, :n] = rows
    dirty = max(work.dirty[:m])
    if dirty > n:
        padded[:, n:dirty] = 0.0
    work.dirty[:m] = [n] * m

    def transform(chunk: slice) -> None:
        np.fft.rfft(padded[chunk], out=product[chunk])
        product[chunk] *= spectrum
        np.fft.irfft(product[chunk], L, out=full[chunk])

    # pocketfft releases the GIL, so the rows are transformed on threads
    # started for this call, one chunk of rows per usable CPU
    k = min(m, _cpus())
    chunks = [slice(i * m // k, (i + 1) * m // k) for i in range(k)]
    if k == 1:
        transform(chunks[0])
    else:
        import threading
        failures = []

        def transform_reporting(chunk: slice) -> None:
            try:
                transform(chunk)
            except Exception as e:      # raised again in the calling thread
                failures.append(e)

        threads = [threading.Thread(target=transform_reporting, args=(c,))
                   for c in chunks[1:]]
        for t in threads:
            t.start()
        try:
            transform(chunks[0])
        finally:
            for t in threads:
                t.join()
        if failures:
            raise failures[0]
    return full[:, :n].reshape(values.shape)


def convolve_values(kernel: Kernel, values: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid approximation of the kernel convolution of a row block.

    ``values`` is one row or an (m, n) block; values are zero-extended
    outside the array.  The rows go through a DispersalOperator built for
    this call, so the path is the operator's: the direct windowed sum up to
    a 512-node half-width and FFT beyond.
    """
    values = np.asarray(values, dtype=float)
    block = values.reshape(-1, values.shape[-1])
    op = DispersalOperator((kernel,) * block.shape[0], dx)
    return op.convolve(block).reshape(values.shape)


class DispersalOperator:
    """The convolutions J_i * u_i of one problem's dispersing rows.

    Build it once per problem from the m0 kernels and the mesh; see the
    module note for the groups and the cached stencils and spectra.
    ``groups`` holds (kernel, row indices) pairs in first-row order, and
    ``blocks`` each group's rows as they index a value array: a slice
    when they are consecutive, else the index array.
    """

    def __init__(self, kernels, dx: float):
        self.dx = float(dx)
        self.m0 = len(kernels)
        rows: dict = {}
        for i, kern in enumerate(kernels):
            rows.setdefault(kern.spec, []).append(i)
        self.groups = tuple((kernels[r[0]], np.array(r)) for r in rows.values())
        # a run of consecutive rows is indexed by a slice, so that the
        # convolution and the edge flux read it as a view, not through copies
        self.blocks = tuple(slice(r[0], r[-1] + 1) if r[-1] - r[0] == len(r) - 1
                            else np.array(r) for r in rows.values())
        self._stencils = [None] * len(self.groups)      # (n, W, weights, padded row)
        self._spectra = [None] * len(self.groups)       # (L, W, spectrum)
        self._workspaces = [None] * len(self.groups)    # _FFTWorkspace at length L

    def _stencil(self, group: int, n: int) -> tuple:
        """The group's stencil for an n-node window, rebuilt when W changes.

        Returns (weights, padded), where padded is the zero row of length
        n + 2W the direct path copies each row into (None on the FFT path),
        made anew when n changes.
        """
        cached = self._stencils[group]
        if cached is None or cached[0] != n:
            kern = self.groups[group][0]
            W, _ = _half_width(kern, self.dx, n - 1)
            if cached is None or cached[1] != W:
                weights = kernel_weights(kern, self.dx, max_half_width=n - 1)
            else:
                weights = cached[2]
            padded = np.zeros(n + 2 * W) if W <= FFT_WINDOW_THRESHOLD else None
            cached = self._stencils[group] = (n, W, weights, padded)
        return cached[2:]

    def _fft_buffers(self, group: int, weights: np.ndarray, n: int) -> tuple:
        """The group's weight spectrum and FFT workspace for an n-node window.

        The spectrum is rebuilt when L or W changes, the workspace only
        when L changes.
        """
        W = (len(weights) - 1) // 2
        L = _fft_length(n, W)
        cached = self._spectra[group]
        if cached is None or cached[:2] != (L, W):
            cached = (L, W, _weight_spectrum(weights, L))
            self._spectra[group] = cached
        work = self._workspaces[group]
        if work is None or work.padded.shape[1] != L:
            work = _FFTWorkspace(len(self.groups[group][1]), L)
            self._workspaces[group] = work
        return cached[2], work

    def convolve(self, vals: np.ndarray) -> np.ndarray:
        """(m0, n) array of J_i * u_i for the first m0 rows of vals.

        A group whose rows hold one set of bytes convolves its first row
        and broadcasts the result (module note).
        """
        n = vals.shape[-1]
        out = np.empty((self.m0, n))
        for group, rows in enumerate(self.blocks):
            weights, padded = self._stencil(group, n)
            block = vals[rows]
            if _equal_rows(block):
                block = block[:1]
            if padded is not None:      # W <= FFT_WINDOW_THRESHOLD: the direct path
                # out[rows] is a view for a slice, so the assignment copies
                # nothing but a one-row result into the other rows; for an
                # index array it scatters the result
                out[rows] = _convolve_direct(block, weights, padded=padded,
                                             out=out[rows][:len(block)])
            else:
                out[rows] = _convolve_fft(block, weights,
                                          *self._fft_buffers(group, weights, n))
        return out


def mirror_stable_sum(a: np.ndarray) -> float | np.ndarray:
    """Sum over the last axis whose value is invariant under reversing it.

    Pairs entries symmetric about the center first (addition of two floats
    is commutative), then reduces the pair array; reversing the input
    produces the identical pair array, hence the identical rounded sum.
    One row gives a float, a row block one sum per row.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    half = n // 2
    s = (a[..., :half] + a[..., :n - half - 1:-1]).sum(axis=-1)
    if n % 2:
        s = s + a[..., half]
    return float(s) if a.ndim == 1 else s


def boundary_flux(kernel: Kernel, f: GridFunction, rows, g: float,
                  h: float) -> tuple[list, list]:
    """Dispersal mass crossing the range edges per unit time, (left, right).

    Right edge: integral over (g, h) of tail(h - x) * f(x) dx, the mass the
    kernel carries from the occupied range past h; the left edge weighs
    f(x) by tail(x - g).  Trapezoid rule on the active nodes; in the
    partial cells next to the exact edges f is linearly interpolated to 0.
    ``rows`` are the rows that share the kernel: row indices, or a
    nonempty slice of consecutive rows within 0..m-1, which is read as a
    view.  Each edge gets one flux per row, a list of Python floats in
    the order of ``rows``.  Both sums pair nodes from the two ends and add
    the partial cell at the far edge first, so the left flux of mirrored
    data is bitwise the right flux of the data.  A mirror state (g == -h,
    k_lo + k_hi == 0, rows equal to their reversal bit for bit) has its
    right edge evaluated alone and copied to the left, and rows that hold
    one set of bytes have the first row's flux evaluated alone and
    repeated (module note).
    """
    if not (g < h):
        raise ValueError("need g < h")
    if isinstance(rows, slice):
        start = 0 if rows.start is None else rows.start
        stop = f.m if rows.stop is None else rows.stop
        if rows.step not in (None, 1) or not 0 <= start < stop <= f.m:
            raise IndexError(f"rows {rows} out of range for m={f.m}")
    else:
        rows = np.atleast_1d(rows)
        listed = rows.tolist()
        if rows.ndim != 1 or not listed or min(listed) < 0 or max(listed) >= f.m:
            raise IndexError(f"rows {rows} out of range for m={f.m}")
    dx, n = f.dx, f.n
    # the end nodes' coordinates, with the bits of f.x[0] and f.x[-1]
    x_first, x_last = f.k_lo * dx, (f.k_lo + n - 1) * dx
    if x_first < g - 1e-9 * dx or x_last > h + 1e-9 * dx:
        raise ValueError("active nodes must lie inside [g, h]")
    lo, hi = x_first - g, h - x_last         # partial cells at the left and right edge
    if lo > dx * (1 + 1e-9) or hi > dx * (1 + 1e-9):
        raise ValueError("edges must align with the active range within one cell")
    xs = _node_coordinates(dx, f.k_lo, n)
    vals = f.values[rows]
    # rows with one set of bytes have one flux: the first row's, repeated
    m = len(vals)
    equal = _equal_rows(vals)
    if equal:
        vals = vals[:1]
    # a mirror state: the left edge's terms are the right edge's reversed
    # and lo == hi, so the left flux would be the right flux bit for bit
    mirrored = g == -h and f.k_lo + f.k_hi == 0 and _mirrored(vals)
    reach = np.empty((1 if mirrored else 2, n))      # distance of each node to g and to h
    if not mirrored:
        np.subtract(xs, g, out=reach[0])
    np.subtract(h, xs, out=reach[-1])
    np.maximum(reach, 0.0, out=reach)
    integrand = kernel.tail(reach)[:, None, :] * vals      # (edge, row, node)
    # one paired reduction for every (edge, row), then the trapezoid end
    # terms and the partial cells, far cell first, in Python floats
    sums, firsts, lasts = (mirror_stable_sum(integrand).tolist(),
                           integrand[..., 0].tolist(), integrand[..., -1].tolist())
    right = [dx * (s - 0.5 * (a + b)) + 0.5 * a * lo + 0.5 * b * hi
             for s, a, b in zip(sums[-1], firsts[-1], lasts[-1])]
    if mirrored:
        left = right
    else:
        left = [dx * (s - 0.5 * (a + b)) + 0.5 * b * hi + 0.5 * a * lo
                for s, a, b in zip(sums[0], firsts[0], lasts[0])]
    # two new lists, one entry per row read
    copies = m if equal else 1
    return left * copies, right * copies
