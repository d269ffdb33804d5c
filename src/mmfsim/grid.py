"""Spectral-element grids: LGL rules, structured box meshes, 1D operators.

The discretization lives on structured tensor-product meshes of affine
quadrilateral (2D) or hexahedral (3D) elements. Each element carries
(N+1)^dim Legendre-Gauss-Lobatto (LGL) nodes; interpolation and
quadrature are collocated there (inexact integration), which lumps the
mass matrix. Fields are flat global nodal vectors ordered
lexicographically (x fastest, then y, then z).

A mesh is built from per-direction 1D data: node coordinates and an
(element, local node) -> global index map per direction, whose tensor
products give the mesh's coordinates and element-to-global map in one
broadcast for any dimension. Because the elements are equal affine boxes
and the mass is lumped, every assembled operator (weak derivative, weak
Laplacian, projected modal filter) factors into one assembled 1D matrix
per direction, M_d^-1 sum_e R_e^T B R_e with B the weighted element
matrix. `Mesh` builds those matrices once, on first use, and keeps them
with the mesh, as CSR and, on an x axis of at most `DENSE_X_MAX` points,
also dense: x runs fastest, so there a field stack is a matrix that one
BLAS product multiplies where it lies, which on short axes beats the
sparse product. The mesh alone knows the field layout (`column_view`,
`field_from_profile`, the boundary levels) and owns the stepping hot
path's work buffers (`Mesh.work`), one per layer of the step: that
layer's functions share it, as none calls another while holding it.
`dss_sum` and `scatter_to_elements` move data between the element-local
and global views; they remain the general assembly tool and the test
oracle for the 1D operators. All reductions run in a fixed order so
results are independent of any worker count.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import erfc

from .errors import ConfigurationError

__all__ = [
    "LglRule",
    "Mesh",
    "WorkBuffers",
    "build_lgl_rule",
    "build_box_mesh",
    "boyd_vandeven_transfer",
    "dss_sum",
    "scatter_to_elements",
]


@dataclass(frozen=True)
class LglRule:
    """Nodes, weights and differentiation matrix of one 1D LGL rule."""

    order: int
    points: np.ndarray       # (N+1,) ascending in [-1, 1]
    weights: np.ndarray      # (N+1,), sum is 2
    diff_matrix: np.ndarray  # (N+1, N+1), D[i, j] = dh_j/dxi at point i


def _legendre_table(x, n):
    """Legendre polynomials P_0..P_n evaluated at x, shape (len(x), n+1)."""
    P = np.zeros((x.size, n + 1))
    P[:, 0] = 1.0
    if n >= 1:
        P[:, 1] = x
    for k in range(2, n + 1):
        P[:, k] = ((2 * k - 1) * x * P[:, k - 1] - (k - 1) * P[:, k - 2]) / k
    return P


def build_lgl_rule(N: int) -> LglRule:
    """Construct the order-N LGL rule.

    Nodes are the roots of (1 - x^2) P_N'(x), found by Newton iteration
    started from Chebyshev-Lobatto points; weights are
    2 / (N (N+1) P_N(x_i)^2). The differentiation matrix uses the
    barycentric form with the negative-sum trick on the diagonal so that
    constants differentiate to zero at machine precision.
    """
    if not isinstance(N, (int, np.integer)) or not 1 <= N <= 16:
        raise ConfigurationError(f"basis order must be an integer in [1, 16], got {N!r}")
    x = -np.cos(np.pi * np.arange(N + 1) / N)
    xold = 2.0 * np.ones_like(x)
    # Newton on x P_N - P_{N-1}, whose interior roots match (1-x^2) P_N'
    while np.max(np.abs(x - xold)) > 1e-14:
        xold = x.copy()
        P = _legendre_table(x, N)
        x = xold - (x * P[:, N] - P[:, N - 1]) / ((N + 1) * P[:, N])
    x[0], x[-1] = -1.0, 1.0
    P = _legendre_table(x, N)
    w = 2.0 / (N * (N + 1) * P[:, N] ** 2)

    # barycentric weights for the Lagrange cardinal functions
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    bw = 1.0 / np.prod(diff, axis=1)
    D = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        for j in range(N + 1):
            if i != j:
                D[i, j] = (bw[j] / bw[i]) / (x[i] - x[j])
        D[i, i] = -np.sum(D[i, :])
    return LglRule(order=N, points=x, weights=w, diff_matrix=D)


_FILTER_ORDER = 12

# x axes of at most this many points apply their 1D operators as one dense
# matrix product (`SemOps.along`). Per point the dense product costs O(n)
# and CSR O(stencil width), but dense runs at BLAS speed and needs no
# transposed copies; measured at 121 levels on one BLAS thread, dense is
# 1.8-5x faster up to 64 points, within 1.6x either way at 80-128 and
# about 2x slower at 252
DENSE_X_MAX = 64


def boyd_vandeven_transfer(eta):
    """Erf-log low-pass transfer of order 12 on [0, 1]; 1 at 0, 0 at 1."""
    eta = np.asarray(eta, dtype=float)
    xbar = np.abs(eta) - 0.5
    sq = 4.0 * xbar * xbar
    inner = np.where((sq > 0.0) & (sq < 1.0), sq, 0.5)
    chi = np.sqrt(-np.log1p(-inner) / inner)
    chi = np.where(np.abs(xbar) < 1e-300, 1.0, chi)
    sigma = 0.5 * erfc(2.0 * np.sqrt(_FILTER_ORDER) * xbar * chi)
    sigma = np.where(np.abs(eta) >= 1.0, 0.0, sigma)
    sigma = np.where(eta == 0.0, 1.0, sigma)
    return sigma


class WorkBuffers:
    """Named scratch arrays, each kept at the largest size asked for.

    A name belongs to one layer of the step, and a function of that
    layer never calls another of the same layer while it holds the
    buffer. Each fills the array and reads it back before it returns,
    so a buffer may be lent to a callee but is dead between calls. A
    request for fewer elements gets a prefix of the array, so a
    buffer's pages are touched (and made resident) only as far as used.
    """

    def __init__(self):
        self._arrays = {}

    def array(self, name: str, shape) -> np.ndarray:
        """The buffer `name` as a C-contiguous float64 array of `shape`."""
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size)
        return buf[:size].reshape(shape)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Structured affine tensor-product spectral-element mesh.

    Directions are ordered (x, z) in 2D and (x, y, z) in 3D; the vertical
    is always last and never periodic. `l2g` maps (element, local node)
    to global node; local nodes are lexicographic with x fastest.
    Meshes compare and hash by identity, so one can key a cache.
    """

    dim: int
    extents: tuple            # m, per direction
    elem_counts: tuple        # elements per direction
    orders: tuple             # basis order per direction
    periodic: tuple           # lateral periodicity flags, length dim-1
    rules: tuple              # LglRule per direction
    coords: np.ndarray        # (npts, dim) node coordinates, m
    coords_1d: tuple          # global 1D node coordinates per direction, m
    l2g: np.ndarray           # (nelem, nloc) int64
    jac: float                # constant affine Jacobian determinant, m^dim
    metric: tuple             # d(xi)/dx = 2/h per direction, 1/m
    npts: int
    nelem: int
    npts_1d: tuple            # global points per direction

    def grid_view(self, f: np.ndarray) -> np.ndarray:
        """Reshape (..., npts) fields to (..., nz, nx) or (..., nz, ny, nx)."""
        return f.reshape(f.shape[:-1] + self.npts_1d[::-1])

    def column_view(self, f: np.ndarray) -> np.ndarray:
        """Copy (..., npts) fields to (..., ncols, nz), one row per column."""
        g = self.grid_view(f)
        # move z to the last axis and flatten the horizontal axes; always a
        # copy so callers can mutate columns without aliasing the input
        return np.moveaxis(g, -self.dim, -1).copy().reshape(
            f.shape[:-1] + (self.ncols, self.npts_1d[-1]))

    def field_from_profile(self, profile: np.ndarray) -> np.ndarray:
        """Broadcast (..., nz) vertical profiles to new (..., npts) fields."""
        # z is the slowest index of the field, so each level is one block
        return np.repeat(profile, self.ncols, axis=-1)

    @cached_property
    def column_weights(self) -> np.ndarray:
        """Horizontal quadrature weight of each column, column_view order."""
        w = self.lumped_1d[0]
        if self.dim == 3:
            w = np.multiply.outer(self.lumped_1d[1], w).reshape(-1)
        return w

    def _element_weights_1d(self, d: int) -> np.ndarray:
        """(elements, points) along direction d: each element's weights
        h/2 w on its global 1D nodes, periodic duplicates summed."""
        g, n = _index_1d(self.elem_counts[d], self.orders[d], (self.periodic + (False,))[d])
        W = np.zeros((g.shape[0], n))
        np.add.at(W, (np.arange(g.shape[0])[:, None], g), self._elem_weights(d))
        return W

    @cached_property
    def lumped_1d(self) -> tuple:
        """Per direction, the assembled 1D lumped mass, m."""
        return tuple(self._element_weights_1d(d).sum(axis=0) for d in range(self.dim))

    @cached_property
    def element_column_weights(self) -> np.ndarray:
        """(lateral elements, ncols): row ex (2D) or ex + nex*ey (3D) holds
        that element's horizontal quadrature weights on the columns it
        covers; the rows sum to `column_weights`."""
        W = [self._element_weights_1d(d) for d in range(self.dim - 1)]
        return W[0] if self.dim == 2 else np.kron(W[1], W[0])

    @property
    def ncols(self) -> int:
        n = 1
        for k in self.npts_1d[:-1]:
            n *= k
        return n

    @property
    def bottom_nodes(self) -> slice:
        """The bottom level's nodes: z runs slowest, so the first ncols."""
        return slice(0, self.ncols)

    @property
    def top_nodes(self) -> slice:
        """The top level's nodes, the last ncols."""
        return slice(self.npts - self.ncols, self.npts)

    # -- assembled operators; built on first use and kept with the mesh --

    @cached_property
    def mass(self) -> np.ndarray:
        """Lumped global mass, m^dim per node: the product of the 1D masses."""
        return np.multiply.outer(self.lumped_1d[-1], self.column_weights).reshape(-1)

    def _assemble_1d(self, d: int, local: np.ndarray):
        """M_d^-1 sum_e R_e^T local R_e along direction d, as CSR.

        `local` is the (N+1, N+1) element matrix, already weighted by the
        element's quadrature masses h/2 w; duplicates at shared (and
        periodically wrapped) nodes are summed in a fixed order. The
        matrix's `dense` attribute is its dense form on x axes of at most
        `DENSE_X_MAX` points, else None.
        """
        N = self.orders[d]
        g, n = _index_1d(self.elem_counts[d], N, (self.periodic + (False,))[d])
        rows = np.repeat(g, N + 1, axis=1).ravel()
        cols = np.tile(g, (1, N + 1)).ravel()
        vals = np.tile(local.ravel(), g.shape[0])
        A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        A.data *= np.repeat(1.0 / self.lumped_1d[d], np.diff(A.indptr))
        # Fortran order is what `SemOps.along`'s dgemm takes without a
        # copy; at most 64^2 * 8 B = 32 KB per matrix
        A.dense = np.asfortranarray(A.toarray()) if d == 0 and n <= DENSE_X_MAX else None
        return A

    def _elem_weights(self, d: int) -> np.ndarray:
        return (0.5 * self.extents[d] / self.elem_counts[d]) * self.rules[d].weights

    @cached_property
    def weak_derivative_1d(self) -> tuple:
        """Per direction, the weak first derivative M_d^-1 A_d (CSR)."""
        return tuple(
            self._assemble_1d(d, self._elem_weights(d)[:, None]
                              * (self.metric[d] * self.rules[d].diff_matrix))
            for d in range(self.dim))

    @cached_property
    def weak_laplacian_1d(self) -> tuple:
        """Per direction, the weak second derivative -M_d^-1 K_d (CSR).

        Integration by parts with no boundary flux: the sum over
        directions is symmetric negative semi-definite in the mass
        inner product.
        """
        out = []
        for d in range(self.dim):
            D = self.rules[d].diff_matrix
            K = self.metric[d] ** 2 * (D.T @ (self._elem_weights(d)[:, None] * D))
            out.append(self._assemble_1d(d, -K))
        return tuple(out)

    @cached_property
    def _filters(self) -> dict:
        return {}

    @cached_property
    def work(self) -> WorkBuffers:
        """Scratch arrays of the stepping hot path, made on the first step
        and kept with the mesh (the embedded grids share their mesh and
        reference, and so one set: simulators on one mesh must not step
        concurrently). Each layer fetches its own buffer by name, as
        `WorkBuffers` says: "kernel" (evaluate_rhs, Kessler), "operator"
        (SemOps.div/laplacian/tensor, linear_operator's stacked pair), the
        stepper's tendency, stage vectors and Krylov basis, and "along"
        (SemOps.along's transposed copies for the CSR product along y or
        an x axis over `DENSE_X_MAX` points; a short x axis multiplies in
        place and z needs no copy, so a 2D mesh with a short x has none)."""
        return WorkBuffers()

    def modal_filter_1d(self, strength: float) -> tuple:
        """Per direction, the projected modal filter M_d^-1 sum_e R_e^T W F_d R_e.

        F_d transforms an element to Legendre modal space, scales mode k
        by (1 - mu) + mu sigma(k/N) (Boyd-Vandeven sigma, mu the
        strength) and transforms back. Mode 0 is untouched, so constants
        and integrals are preserved.
        """
        key = float(strength)
        mats = self._filters.get(key)
        if mats is None:
            out = []
            for d, rule in enumerate(self.rules):
                N = rule.order
                V = np.polynomial.legendre.legvander(rule.points, N)
                sig = boyd_vandeven_transfer(np.arange(N + 1) / N)
                F = V @ np.diag((1.0 - key) + key * sig) @ np.linalg.inv(V)
                out.append(self._assemble_1d(d, self._elem_weights(d)[:, None] * F))
            mats = self._filters[key] = tuple(out)
        return mats


def _index_1d(ne, N, is_periodic):
    """Per-direction map from (element, local node) to global 1D index."""
    n = ne * N if is_periodic else ne * N + 1
    e = np.arange(ne)[:, None]
    i = np.arange(N + 1)[None, :]
    g = e * N + i
    if is_periodic:
        g = g % n
    return g, n


def _coords_1d(ext, ne, xi, is_periodic):
    """Global 1D node coordinates of ne equal elements with LGL points xi."""
    loc = (ext / ne) * (np.arange(ne)[:, None] + 0.5 * (xi + 1.0))
    left = loc[:, :-1].ravel()
    return left if is_periodic else np.append(left, loc[-1, -1])


def build_box_mesh(extents, elem_counts, orders, periodicity=None) -> Mesh:
    """Build a 2D (x, z) or 3D (x, y, z) box mesh of equal affine elements.

    extents/elem_counts are per direction; `orders` is an int or a tuple
    per direction; `periodicity` flags the lateral directions only (the
    vertical direction has boundaries).
    """
    extents = tuple(float(v) for v in np.atleast_1d(extents))
    elem_counts = tuple(int(v) for v in np.atleast_1d(elem_counts))
    dim = len(extents)
    if dim not in (2, 3) or len(elem_counts) != dim:
        raise ConfigurationError(f"need 2 or 3 matching extents/counts, got {extents}, {elem_counts}")
    if not all(0.0 < v < math.inf for v in extents):
        raise ConfigurationError(f"extents must be positive and finite, got {extents}")
    if any(c < 1 for c in elem_counts):
        raise ConfigurationError(f"element counts must be >= 1, got {elem_counts}")
    if np.isscalar(orders):
        orders = (int(orders),) * dim
    else:
        orders = tuple(int(v) for v in orders)
    if periodicity is None:
        periodicity = (False,) * (dim - 1)
    periodic = tuple(bool(v) for v in np.atleast_1d(periodicity))
    if len(periodic) != dim - 1:
        raise ConfigurationError("periodicity flags cover the lateral directions only")

    rules = tuple(build_lgl_rule(N) for N in orders)
    per_all = periodic + (False,)
    c1d = tuple(_coords_1d(extents[d], elem_counts[d], rules[d].points, per_all[d])
                for d in range(dim))
    n1d = tuple(c.size for c in c1d)
    h = [extents[d] / elem_counts[d] for d in range(dim)]
    jac = float(np.prod([hv / 2.0 for hv in h]))
    metric = tuple(2.0 / hv for hv in h)

    # element id and local node both run x fastest, z slowest; the global
    # index is I = ix + nx*(iy + ny*iz), so each direction adds its 1D map
    # times its stride along its own element axis and local-node axis
    l2g = np.zeros((1,) * (2 * dim), dtype=np.int64)
    stride = 1
    for d in range(dim):
        g, _ = _index_1d(elem_counts[d], orders[d], per_all[d])
        shape = [1] * (2 * dim)
        shape[dim - 1 - d], shape[2 * dim - 1 - d] = g.shape
        l2g = l2g + stride * g.reshape(shape)
        stride *= n1d[d]
    nelem = int(np.prod(elem_counts))
    l2g = l2g.reshape(nelem, -1)
    coords = np.stack(np.meshgrid(*c1d[::-1], indexing="ij")[::-1], axis=-1).reshape(-1, dim)

    npts = int(np.prod(n1d))

    return Mesh(
        dim=dim,
        extents=extents,
        elem_counts=elem_counts,
        orders=orders,
        periodic=periodic,
        rules=rules,
        coords=coords,
        coords_1d=c1d,
        l2g=l2g,
        jac=jac,
        metric=metric,
        npts=npts,
        nelem=nelem,
        npts_1d=n1d,
    )


def dss_sum(mesh: Mesh, element_local_values: np.ndarray) -> np.ndarray:
    """Direct stiffness summation: sum element-local values into global nodes.

    Accepts (nelem, nloc) or a stacked (nfields, nelem, nloc) array.
    Accumulation order is fixed (flat bincount), so the result is
    bit-reproducible regardless of threading.
    """
    idx = mesh.l2g.ravel()
    if element_local_values.ndim == 2:
        return np.bincount(idx, weights=element_local_values.ravel(), minlength=mesh.npts)
    nf = element_local_values.shape[0]
    out = np.empty((nf, mesh.npts))
    flat = element_local_values.reshape(nf, -1)
    for k in range(nf):
        out[k] = np.bincount(idx, weights=flat[k], minlength=mesh.npts)
    return out


def scatter_to_elements(mesh: Mesh, global_vector: np.ndarray) -> np.ndarray:
    """Gather global nodal values into the element-local layout.

    The adjoint of dss_sum: <dss_sum(v), u> == <v, scatter(u)>.
    """
    return global_vector[..., mesh.l2g]
