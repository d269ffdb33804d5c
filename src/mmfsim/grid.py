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
with the mesh as dense arrays: on an axis of at most `DENSE_MAX` points
a field stack is a matrix (x) or a stack of blocks (y, z) that BLAS
multiplies with the whole array where it lies, and a longer axis applies
the banded array in dense windows of rows (`operators._windowed`). The
mesh alone knows the field layout (`column_view`,
`field_from_profile`, the boundary levels) and keeps its step plan
(`Mesh.plan`): the stepping hot path's buffers, their row views and the
product form of each 1D matrix, made on the first step and gone with
the mesh, so simulators sharing a mesh must not step concurrently.
`dss_sum` and `scatter_to_elements` move data between the element-local
and global views; they remain the general assembly tool and the test
oracle for the 1D operators. All reductions run in a fixed order so
results are independent of any worker count.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import COUNT, POSITIVE, Interval, check

__all__ = [
    "LglRule",
    "Mesh",
    "build_lgl_rule",
    "build_box_mesh",
    "boyd_vandeven_transfer",
    "dss_sum",
    "scatter_to_elements",
]

# the basis orders build_lgl_rule makes
ORDERS = Interval("[1, 16]")


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
    check("LGL order", N, int, ORDERS)
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

# axes of at most this many points apply their 1D operators as whole dense
# matrix products (`SemOps.along`), longer ones in element-aligned windows
# of rows, each reading its rows and a half-bandwidth more on either side
# (`operators._windowed`). Per point the whole product costs O(n)
# multiply-adds and the windows O(window width), but the windows pay more
# calls and, along x, strided reads; measured along x at 121 levels for 2
# rows on one BLAS thread, whole against windows: 14 us against 25-28 at
# 40 points, 31-32 against 29-31 at 64, 51-53 against 31-32 at 68,
# 158-184 against 44-47 at 128 and 571-598 against 73-75 at 252. The
# bound stays at 64, at the crossover, so no short axis changes form
DENSE_MAX = 64

# y and z products go through numpy's matmul, whose OpenBLAS has its own
# thread pool, not scipy's (see `timeint`); one gemm per (n, stride) block,
# so a block of n * n * stride multiply-adds at most this many stays under
# OpenBLAS's single-thread bound for gemm (m n k <= 65536 * 4) and never
# wakes numpy's pool; every windowed gemm splits its columns to stay within
# it too. At two BLAS threads a 60 x 40 x 49 coarse step took 1.0-1.2 s with
# its 49 x 49 x 2400 z blocks dense, 0.4-0.5 s on CSR
DENSE_BLOCK_MAX = 2 ** 18


# the rational forms of erf and erfc in Cephes' ndtr.c (S. L. Moshier), the
# ones `scipy.special` evaluates: T/U for erf on |x| < 1, P/Q for erfc on
# 1 <= |x| < 8 and R/S beyond; Q, S and U have a leading 1 left out
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): exp(-x^2) underflows beyond


def _horner(x, coef, monic=False):
    """sum coef[k] x^(K-k) by Horner's rule, with a leading 1 when monic."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a: float) -> float:
    """The complementary error function of a Python float, as Cephes'
    `erfc` computes it in double precision, operation for operation, so
    equal to `scipy.special.erfc` bit for bit (libm's exp is `math.exp`)."""
    if a != a:
        return a
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            y = (z * _horner(x, _ERFC_P)) / _horner(x, _ERFC_Q, monic=True)
        else:
            y = (z * _horner(x, _ERFC_R)) / _horner(x, _ERFC_S, monic=True)
        if a < 0.0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0.0 else 0.0


def _erf(x: float) -> float:
    """erf on |x| < 1, the only range `_erfc` asks of it."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def boyd_vandeven_transfer(eta):
    """Erf-log low-pass transfer of order 12 on [0, 1]; 1 at 0, 0 at 1."""
    eta = np.asarray(eta, dtype=float)
    xbar = np.abs(eta) - 0.5
    sq = 4.0 * xbar * xbar
    inner = np.where((sq > 0.0) & (sq < 1.0), sq, 0.5)
    chi = np.sqrt(-np.log1p(-inner) / inner)
    chi = np.where(np.abs(xbar) < 1e-300, 1.0, chi)
    arg = 2.0 * np.sqrt(_FILTER_ORDER) * xbar * chi
    sigma = 0.5 * np.array([_erfc(v) for v in arg.ravel().tolist()]).reshape(arg.shape)
    sigma = np.where(np.abs(eta) >= 1.0, 0.0, sigma)
    sigma = np.where(eta == 0.0, 1.0, sigma)
    return sigma


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
        ne = g.shape[0]
        w = np.broadcast_to(self._elem_weights(d), g.shape)
        return np.bincount((np.arange(ne)[:, None] * n + g).ravel(), weights=w.ravel(),
                           minlength=ne * n).reshape(ne, n)

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

    @cached_property
    def ncols(self) -> int:
        return math.prod(self.npts_1d[:-1])

    @cached_property
    def bottom_nodes(self) -> slice:
        """The bottom level's nodes: z runs slowest, so the first ncols."""
        return slice(0, self.ncols)

    @cached_property
    def top_nodes(self) -> slice:
        """The top level's nodes, the last ncols."""
        return slice(self.npts - self.ncols, self.npts)

    # -- assembled operators; built on first use and kept with the mesh --

    @cached_property
    def mass(self) -> np.ndarray:
        """Lumped global mass, m^dim per node: the product of the 1D masses."""
        return np.multiply.outer(self.lumped_1d[-1], self.column_weights).reshape(-1)

    def _assemble_1d(self, d: int, local: np.ndarray) -> np.ndarray:
        """M_d^-1 sum_e R_e^T local R_e along direction d, as a dense
        Fortran-ordered (n, n) array.

        `local` is the (N+1, N+1) element matrix, already weighted by the
        element's quadrature masses h/2 w; duplicates at shared (and
        periodically wrapped) nodes are summed from zero in element
        order. Fortran order is what `SemOps.along`'s x dgemm takes
        without a copy; the array costs n^2 doubles, 0.5 MB on a
        252-point axis.
        """
        N = self.orders[d]
        g, n = _index_1d(self.elem_counts[d], N, (self.periodic + (False,))[d])
        # entry (i, j) at i + n j, its place in Fortran order
        flat = np.repeat(g, N + 1, axis=1).ravel() + n * np.tile(g, (1, N + 1)).ravel()
        A = np.bincount(flat, weights=np.tile(local.ravel(), g.shape[0]),
                        minlength=n * n).reshape((n, n), order="F")
        A *= (1.0 / self.lumped_1d[d])[:, None]
        return A

    def _elem_weights(self, d: int) -> np.ndarray:
        return (0.5 * self.extents[d] / self.elem_counts[d]) * self.rules[d].weights

    @cached_property
    def weak_derivative_1d(self) -> tuple:
        """Per direction, the weak first derivative M_d^-1 A_d."""
        return tuple(
            self._assemble_1d(d, self._elem_weights(d)[:, None]
                              * (self.metric[d] * self.rules[d].diff_matrix))
            for d in range(self.dim))

    @cached_property
    def weak_laplacian_1d(self) -> tuple:
        """Per direction, the weak second derivative -M_d^-1 K_d.

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
    def plan(self):
        """The step plan: the stepping hot path's buffers, row views and
        1D product forms, made on first use and kept with the mesh (see
        `mmfsim.plan`)."""
        from .plan import StepPlan
        return StepPlan(self)

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
    dim = len(extents)
    check("len(extents)", dim, int, (2, 3))
    orders = (orders,) * dim if np.isscalar(orders) else orders
    periodic = (False,) * (dim - 1) if periodicity is None else periodicity
    for name, values, typ, domain, n in (
            ("extents", extents, float, POSITIVE, dim),
            ("elem_counts", elem_counts, int, COUNT, dim),
            ("orders", orders, int, ORDERS, dim),
            ("periodicity", periodic, bool, (False, True), dim - 1)):
        check(f"len({name})", len(values), int, (n,))
        for d, v in enumerate(values):
            check(f"{name}[{d}]", v, typ, domain)
    extents, periodic = tuple(map(float, extents)), tuple(periodic)
    elem_counts, orders = tuple(map(int, elem_counts)), tuple(map(int, orders))

    by_order = {N: build_lgl_rule(N) for N in set(orders)}
    rules = tuple(by_order[N] for N in orders)
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
