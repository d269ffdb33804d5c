"""Discrete operators on spectral-element meshes, and the prognostic state.

On the structured affine meshes every weak operator factors into one
assembled 1D matrix per direction (see `Mesh.weak_derivative_1d`,
`Mesh.weak_laplacian_1d`, `Mesh.modal_filter_1d`); `SemOps` applies
those matrices along the grid axes as dense BLAS products where the
fields lie. On an axis of at most 64 points (`grid.DENSE_MAX`) the whole
matrix multiplies a field stack: x runs fastest, so a stack is one
Fortran-ordered matrix for a single scipy dgemm, and along y or z it is a
stack of row-major (n, stride) blocks for one numpy matmul, small enough
to stay on one BLAS thread (`grid.DENSE_BLOCK_MAX`). Every other axis
takes windows (`_windowed`): the matrix couples a node only to the nodes
of its elements, so it is banded, and each element-aligned window of
rows is a small dense block applied to the points it reads, all interior
windows of a stack in one numpy matmul. Each matrix's form along each
direction is chosen once and kept on the mesh's step plan (`Mesh.plan`),
which also binds the products whose operands are its own buffers.

The weak gradient/divergence are the collocation derivatives projected
back onto the continuous space; the Laplacian is the usual
integration-by-parts form with no boundary flux (periodic laterally,
no-flux top/bottom), which makes it symmetric negative semi-definite in
the mass inner product.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided
# scipy's BLAS, not numpy's: the solver's vector operations use it too,
# and the two libraries' thread pools must not alternate (see timeint)
from scipy.linalg.blas import ddot, dgemm

from .grid import DENSE_BLOCK_MAX, DENSE_MAX, Mesh

__all__ = [
    "PrognosticState",
    "DiagonalMass",
    "build_mass",
    "integrate",
    "fixed_order_dot",
    "SemOps",
]


class _Rows:
    """Named row view of `PrognosticState.data`; assignment writes in place."""

    def __init__(self, rows):
        self.rows = rows

    def __get__(self, state, owner=None):
        return self if state is None else state.data[self.rows]

    def __set__(self, state, value):
        state.data[self.rows] = value


class PrognosticState:
    """Nodal prognostic vector q = (rho', u, theta_v', q_v', q_c, q_r).

    One (5+dim, npts) array `data` holds the fields as rows in this
    order, which is also the snapshot order; the names below are views
    of its rows, and assigning to a name writes into them. `u` holds the
    velocity components (u[0] is x, u[-1] is vertical w). Thermodynamic
    and moisture fields are perturbations from the reference except q_c
    and q_r, which are full mixing ratios.
    """

    rho_p = _Rows(0)               # kg/m3
    u = _Rows(slice(1, -4))        # (dim, npts) m/s
    theta_vp = _Rows(-4)           # K
    q_vp = _Rows(-3)               # kg/kg
    q_c = _Rows(-2)                # kg/kg
    q_r = _Rows(-1)                # kg/kg

    def __init__(self, rho_p, u, theta_vp, q_vp, q_c, q_r):
        u = np.asarray(u, dtype=float)
        self.data = np.empty((5 + u.shape[0], u.shape[1]))
        self.rho_p, self.u, self.theta_vp = rho_p, u, theta_vp
        self.q_vp, self.q_c, self.q_r = q_vp, q_c, q_r

    @property
    def dim(self):
        return self.data.shape[0] - 5

    def copy(self):
        return PrognosticState.from_vector(self.data.copy(), self.dim)

    def as_vector(self) -> np.ndarray:
        """The fields as one flat vector (a view), blocks in snapshot order."""
        return self.data.reshape(-1)

    @classmethod
    def from_vector(cls, vec: np.ndarray, dim: int) -> "PrognosticState":
        """View a flat vector of field blocks as a state; does not copy."""
        state = cls.__new__(cls)
        state.data = np.asarray(vec, dtype=float).reshape(5 + dim, -1)
        return state

    @classmethod
    def zeros(cls, mesh: Mesh) -> "PrognosticState":
        return cls.from_vector(np.zeros((5 + mesh.dim) * mesh.npts), mesh.dim)

    def field_names(self):
        vel = ("u", "w") if self.dim == 2 else ("u", "v", "w")
        return ("rho_p",) + vel + ("theta_vp", "q_vp", "q_c", "q_r")

    def __getitem__(self, name: str) -> np.ndarray:
        """One field row by its snapshot name ("u" is the x component)."""
        return self.data[self.field_names().index(name)]

    def __setitem__(self, name: str, values) -> None:
        self.data[self.field_names().index(name)] = values


@dataclass(frozen=True)
class DiagonalMass:
    """Lumped global mass matrix entries, m^dim per node."""

    entries: np.ndarray


class SemOps:
    """Weak operators of one mesh, applied one direction at a time.

    The 1D matrices live on the mesh and their products on its step plan
    (`Mesh.plan`), so this object is cheap to make. All public methods
    take flat global fields; a leading axis stacks several fields into
    one call. Each writes its result into `out` when given (which must
    not overlap the input unless a method says so) and returns it, or
    returns a new array.
    """

    def __init__(self, mesh: Mesh):
        self.dim = mesh.dim
        self.plan = mesh.plan

    def along(self, A, f, d, out=None):
        """Apply the 1D matrix A along direction d (0=x, ..., dim-1=z) to
        (npts,) or (nf, npts) f, into `out` of that shape, whose rows may
        be strided (a slice of a larger stack)."""
        out = np.empty(f.shape) if out is None else out
        self.plan.product(A, d)(f, out)()
        return out

    def tensor(self, mats, f, out=None):
        """Tensor-product operator: mats[d] applied along each direction d.

        Each direction's product runs once on the whole stack: the
        directions before the last write it into the plan's kernel rows
        (in 3D x into one half and y into the other), or into a new array
        when the stack does not fit there, and only the last writes
        `out`, so `out` may be f itself.
        """
        out = np.empty(f.shape) if out is None else out
        rows = f.reshape(-1, f.shape[-1])
        tmp = _prefix(self.plan.kernel, (self.dim - 1,) + rows.shape)
        for d, A in enumerate(mats):
            target = out if d == self.dim - 1 else tmp[d]
            self.plan.product(A, d)(rows, target)()
            rows = target
        return out

    def grad(self, f, out=None):
        """Weak gradient; (npts,) -> (dim, npts), (nf, npts) -> (nf, dim, npts)."""
        out = np.empty(f.shape[:-1] + (self.dim, f.shape[-1])) if out is None else out
        for d, product in enumerate(self.plan.derivative):
            product(f, out[..., d, :])()
        return out

    def div(self, vec, out=None):
        """Weak divergence of a (dim, npts) vector field."""
        return self._sum_along(self.plan.derivative, vec, out)

    def laplacian(self, f, out=None):
        """Weak Laplacian of (npts,) or stacked (nf, npts) fields."""
        return self._sum_along(self.plan.laplacian, (f,) * self.dim, out)

    def _sum_along(self, products, fs, out):
        """products[d] applied to fs[d], summed over d in order."""
        acc = np.empty(fs[0].shape) if out is None else out
        products[0](fs[0], acc)()
        tmp = _prefix(self.plan.operator, acc.shape)
        for d in range(1, self.dim):
            products[d](fs[d], tmp)()
            acc += tmp
        return acc


def _product(A, d, npts_1d):
    """A along direction d, in the form its axis takes (see the module
    docstring), as bind(f, out): it cuts the views of the operands, (npts,)
    or (nf, npts) stacks of which `out`'s rows may be strided, and returns
    a call with no arguments that writes A along d of f into out; made
    again, the call reads f anew where f's rows are contiguous, as the
    plan's own buffers are. On an axis of at most `DENSE_MAX` points (y
    and z: whose (n, stride) blocks are within `DENSE_BLOCK_MAX`) the whole
    Fortran-ordered A multiplies, along x one dgemm per stack (per row of a
    strided `out`); every other axis takes windows (`_windowed`)."""
    n = A.shape[0]
    npts = math.prod(npts_1d)
    stride = math.prod(npts_1d[:d])
    if n > DENSE_MAX or (d > 0 and n * n * stride > DENSE_BLOCK_MAX):
        return _windowed(A, d, npts_1d)
    # (rows, lines, n, stride) views: splitting the point axis never
    # copies, so what is written through them reaches `out`
    blocks = (-1, npts // (n * stride), n, stride)
    if d == 0:
        def bind(f, out):
            pairs = (((f, out),) if out.flags.c_contiguous else
                     zip(f.reshape(-1, npts), _rows_of(out)))
            calls = []
            for x, y in pairs:
                c = y.reshape(-1, n).T
                # dgemm would write any other c into a copy and return that
                if not c.flags.f_contiguous or c.dtype != np.float64:
                    raise ValueError("along: out rows must be contiguous float64")
                # alpha, a, b, beta, c, trans_a, trans_b, overwrite_c: f2py
                # parses keywords about 0.7 us slower
                calls.append(partial(dgemm, 1.0, A, x.reshape(-1, n).T, 0.0, c, 0, 0, 1))
            return _in_turn(calls)
    else:
        def bind(f, out):
            return partial(np.matmul, A, f.reshape(blocks),
                           out=_rows_of(out).reshape(blocks))
    return bind


# window rows, in half-bandwidths: narrow windows waste the fewest
# multiply-adds, and at least 2, so that no window on a periodic axis
# reads a point twice
_WINDOW = 2
# lines per x gemm: a gemm reads its lines n points apart, so all windows
# pass over one batch of lines while it is in cache (32 lines of 252
# points are 64 KB), and the batches run on through memory in order. In
# a desk squall fine step, one BLAS thread, the x window gemms took
# 5.3-5.7 ms in batches of 32 lines, 5.5 in batches of 16, 8.0-8.5 with
# all 121 lines in one gemm, and 6.2-6.9 with windows of 4h rows
_X_LINES = 32


def _windowed(A, d, npts_1d):
    """A along direction d in element-aligned windows of rows, as
    bind(f, out).

    A couples a point only to points at most h away (h, its half-bandwidth,
    read from its nonzero pattern by `_bandwidth`), so a window of b rows
    reads b + 2h adjacent points; each window's dense block is copied
    from A once, here. A gemm multiplies a block with a batch of lines:
    along x the block's transpose from the right, with the (lines, b + 2h)
    points of at most `_X_LINES` lines of a row of the stack, and along y
    and z the block from the left, with the (b + 2h, stride) points of a
    line of the axis. A batch is narrower where a wider one would take a
    gemm over `DENSE_BLOCK_MAX` multiply-adds, so that the gemm runs on
    one BLAS thread and gives the same bits at any thread count. All
    interior windows of all batches of a stack are one numpy matmul over
    a strided view of it, and the first and last windows one more each;
    on a periodic axis those two read the points they wrap to from a
    gather buffer that the bind makes. Along x the lines left over from
    the whole batches make these calls again. A call allocates nothing.
    Each entry is a BLAS dot over its window, which agrees with `A @ x`
    to rounding.
    """
    n = A.shape[0]
    stride = math.prod(npts_1d[:d])
    lines = math.prod(npts_1d) // n
    h, wrap = _bandwidth(A)
    b = max(h, 1) * _WINDOW
    # the axis of a point in the views that `parts` cuts
    axis = 3 if d == 0 else 2

    def block(rows, c0, c1):
        # A[rows, (c0 .. c1 - 1) mod n], or along x its transpose, as a new
        # C-ordered array: a gemm takes a transposed operand slower
        W = A[rows][:, np.arange(c0, c1) % n]
        return np.ascontiguousarray(W if d else W.T)

    if n < b + 2 * h:
        # too short for one interior window: the whole axis is one block
        starts, wrap = range(0), False
        regions = [(slice(0, n), 0, n)]
    else:
        starts = range(b, n - b - h + 1, b)
        tail = b + b * len(starts)
        regions = [(slice(0, b), -h if wrap else 0, b + h),
                   (slice(tail, n), tail - h, n + h if wrap else n)]
    edges = [(rows, c1 - c0, block(rows, c0, c1)) for rows, c0, c1 in regions]
    inner = np.stack([block(slice(s, s + b), s - h, s + b + h) for s in starts]) if starts else None
    largest = max([W.size for _, _, W in edges] + [b * (b + 2 * h)])
    width = max(1, DENSE_BLOCK_MAX // largest)
    if d == 0:
        width = min(width, _X_LINES, lines)
        whole = lines - lines % width
    else:
        chunks = [slice(q, q + width) for q in range(0, stride, width)]

    def cut(v, points):
        return v[..., points] if d == 0 else v[:, :, points]

    def gemm(W, x, y):
        return partial(np.matmul, *((W, x) if d else (x, W)), out=y)

    def parts(rows):
        # (rows, npts) as (rows, batches, lines, n) views along x and
        # (rows, blocks, n, columns) along y and z, the lines or columns
        # of a batch going to one gemm; splitting the point axis never copies
        if d == 0:
            batched = [rows[:, :whole * n].reshape(len(rows), -1, width, n)]
            if whole < lines:
                batched.append(rows[:, whole * n:].reshape(len(rows), 1, -1, n))
            return batched
        v = rows.reshape(len(rows), -1, n, stride)
        return [v] if len(chunks) == 1 else [v[..., q] for q in chunks]

    def bind(f, out):
        calls = []
        for x, y in zip(parts(_rows_of(f)), parts(_rows_of(out))):
            if wrap:
                # the tail window's points and the head window's, in the
                # order they wrap around in: tail - h .. n - 1, 0 .. b + h - 1
                g = np.empty(x.shape[:axis] + (n - tail + b + 2 * h,) + x.shape[axis + 1:])
                calls += [partial(np.copyto, cut(g, slice(n - tail + h)), cut(x, slice(tail - h, n))),
                          partial(np.copyto, cut(g, slice(n - tail + h, None)), cut(x, slice(b + h)))]
                sources = (cut(g, slice(n - tail, None)), g)
            else:
                sources = [cut(x, slice(c0, n)) for _, c0, _ in regions]
            for (rows, k, W), src in zip(edges, sources):
                calls.append(gemm(W, cut(src, slice(k)), cut(y, rows)))
            if starts:
                calls.append(gemm(inner, _windows(x, axis, starts[0] - h, len(starts), b, b + 2 * h),
                                  _windows(y, axis, starts[0], len(starts), b, b)))
        return _in_turn(calls)
    return bind


def _bandwidth(A):
    """(h, wrap) of a square 1D matrix: h, the largest cyclic distance
    min(|i - j|, n - |i - j|) of a nonzero A[i, j], and whether a nonzero
    lies farther than h apart, as on a periodic axis, whose matrix couples
    its first and last points."""
    n = A.shape[0]
    rows, cols = np.nonzero(A)
    dist = np.abs(rows - cols)
    h = int(np.minimum(dist, n - dist).max(initial=0))
    return h, bool(dist.max(initial=0) > h)


def _windows(v, axis, start, count, step, width):
    """Of a (rows, batches, ...) view, `count` windows of `width` points
    along its axis `axis`, one every `step` points from point `start` on:
    a (rows, batches, count, ...) view whose axis `axis` + 1 runs over a
    window's points, and whose windows overlap where width > step."""
    s = v.strides
    shape = v.shape[:axis] + (width,) + v.shape[axis + 1:]
    return as_strided(v[(slice(None),) * axis + (slice(start, None),)],
                      shape[:2] + (count,) + shape[2:], s[:2] + (step * s[axis],) + s[2:])


def _in_turn(calls):
    """One call with no arguments that makes `calls` in order."""
    return calls[0] if len(calls) == 1 else lambda: [call() for call in calls]


def _prefix(buf, shape):
    """The first elements of `buf` as an array of `shape`, or a new array
    when `buf` is None or too small."""
    size = math.prod(shape)
    return np.empty(shape) if buf is None or buf.size < size else buf.reshape(-1)[:size].reshape(shape)


def _rows_of(out):
    """`out` as a (rows, npts) view: `ndarray.reshape` up to 2D, where it
    cannot copy and costs a third of `np.reshape(..., copy=False)`, which
    higher ranks take so that a strided `out` is never silently copied."""
    if out.ndim <= 2:
        return out.reshape(-1, out.shape[-1])
    return np.reshape(out, (-1, out.shape[-1]), copy=False)


def build_mass(mesh: Mesh) -> DiagonalMass:
    """Lumped mass, diagonal by collocation: the product of the 1D lumped masses."""
    return DiagonalMass(entries=mesh.mass.copy())


# OpenBLAS's ddot splits a vector over its threads above 10,000 elements,
# which changes the order of the sum with the thread count; chunks of this
# size run on one thread wherever they run
_DOT_CHUNK = 8192


def fixed_order_dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two flat vectors, as BLAS ddot sums over `_DOT_CHUNK`
    chunks added in order: the same bits at any BLAS thread count."""
    if a.size <= _DOT_CHUNK:
        return ddot(a, b)
    total = 0.0
    for i in range(0, a.size, _DOT_CHUNK):
        total += ddot(a[i:i + _DOT_CHUNK], b[i:i + _DOT_CHUNK])
    return total


def integrate(mesh: Mesh, nodal_field: np.ndarray) -> float:
    """Quadrature of a nodal field over the domain, sum_e sum_q w J f."""
    return fixed_order_dot(mesh.mass, nodal_field)
