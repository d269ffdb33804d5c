"""Discrete operators on spectral-element meshes, and the prognostic state.

On the structured affine meshes every weak operator factors into one
assembled 1D matrix per direction (see `Mesh.weak_derivative_1d`,
`Mesh.weak_laplacian_1d`, `Mesh.modal_filter_1d`); `SemOps` applies
those matrices along the grid axes. x runs fastest in a field, so on an
x axis of at most 64 points (`grid.DENSE_X_MAX`) a field stack is one
Fortran-ordered matrix that a single BLAS dgemm multiplies by the
matrix's dense form where it lies, about 2-3x faster than the sparse
product there; z is multiplied where it lies by the CSR kernel, and
longer x axes and y by the CSR kernel on transposed copies, where a
dense product would cost more than the stencil.

The weak gradient/divergence are the collocation derivatives projected
back onto the continuous space; the Laplacian is the usual
integration-by-parts form with no boundary flux (periodic laterally,
no-flux top/bottom), which makes it symmetric negative semi-definite in
the mass inner product.
"""

import math
from dataclasses import dataclass

import numpy as np
# scipy's BLAS, not numpy's: the solver's vector operations use it too,
# and the two libraries' thread pools must not alternate (see timeint)
from scipy.linalg.blas import dgemm
# the CSR times dense kernel behind `A @ x`, called directly so that it
# writes into a caller's array; tests pin it to `A @ x` bit for bit
from scipy.sparse._sparsetools import csr_matvecs

from .grid import Mesh

__all__ = [
    "PrognosticState",
    "DiagonalMass",
    "build_mass",
    "integrate",
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

    The 1D matrices live on the mesh, so this object is cheap to make.
    All public methods take flat global fields; a leading axis stacks
    several fields into one call. Each writes its result into `out` when
    given (which must not overlap the input unless a method says so)
    and returns it, or returns a new array.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.dim = mesh.dim

    def along(self, A, f, d, out=None):
        """Apply the 1D matrix A along direction d (0=x, ..., dim-1=z).

        f is (npts,) or (nf, npts), and so is `out`, whose rows may be
        strided (a slice of a larger stack). The product takes one of
        three forms, by where the axis lies in memory:
        - x on a short axis (A has a `dense` form, see `Mesh._assemble_1d`):
          x runs fastest, so a field is a Fortran (n, lines) matrix that
          one BLAS dgemm multiplies by dense A where it lies, one call
          per stack (per row when `out`'s rows are strided);
        - z: each field is an (n, stride) row-major block that the CSR
          kernel multiplies where it lies, one call per row;
        - a long x axis, and y: the CSR kernel on a copy with the axis
          brought to the front, through the "along" work buffer.
        """
        if out is None:
            out = np.empty(f.shape)
        npts = f.shape[-1]
        n = A.shape[0]
        dense = getattr(A, "dense", None)
        if dense is not None:
            pairs = (((f, out),) if out.flags.c_contiguous else
                     zip(f.reshape(-1, npts), _rows_of(out)))
            for x, y in pairs:
                res = dgemm(1.0, dense, x.reshape(-1, n).T, beta=0.0,
                            c=y.reshape(-1, n).T, overwrite_c=1)
                # f2py copies a `c` that is not Fortran-contiguous float64
                if not np.may_share_memory(res, y):
                    raise RuntimeError("along: dgemm did not write into out")
            return out
        rows, out_rows = f.reshape(-1, npts), _rows_of(out)
        stride = math.prod(self.mesh.npts_1d[:d])
        if d == self.dim - 1:
            # z runs slowest, so each field already is an (n, stride)
            # row-major block that A multiplies where it lies
            for row, out_row in zip(rows, out_rows):
                _csr_times_dense(A, row, out_row)
            return out
        # bring direction d to the front through two transposed copies;
        # splitting the point axis never copies, so the writes reach `out`
        blocks = (rows.shape[0], npts // (n * stride), n, stride)
        src = rows.reshape(blocks).transpose(2, 0, 1, 3)
        x, y = self.mesh.work.array("along", (2,) + src.shape)
        np.copyto(x, src)
        _csr_times_dense(A, x, y)
        np.copyto(out_rows.reshape(blocks).transpose(2, 0, 1, 3), y)
        return out

    def tensor(self, mats, f, out=None):
        """Tensor-product operator: mats[d] applied along each direction d.

        Each field runs through all directions on its own, the ones
        before the last through work buffers, so `out` may be f itself.
        """
        if out is None:
            out = np.empty(f.shape)
        tmp = self.mesh.work.array("operator", (min(self.dim - 1, 2), f.shape[-1]))
        for row, out_row in zip(f.reshape(-1, f.shape[-1]), _rows_of(out)):
            for d in range(self.dim):
                row = self.along(mats[d], row, d,
                                 out=out_row if d == self.dim - 1 else tmp[d % 2])
        return out

    def grad(self, f, out=None):
        """Weak gradient; (npts,) -> (dim, npts), (nf, npts) -> (nf, dim, npts)."""
        D = self.mesh.weak_derivative_1d
        if out is None:
            out = np.empty(f.shape[:-1] + (self.dim, f.shape[-1]))
        for d in range(self.dim):
            self.along(D[d], f, d, out=out[..., d, :])
        return out

    def div(self, vec, out=None):
        """Weak divergence of a (dim, npts) vector field."""
        return self._sum_along(self.mesh.weak_derivative_1d, vec, out)

    def laplacian(self, f, out=None):
        """Weak Laplacian of (npts,) or stacked (nf, npts) fields."""
        return self._sum_along(self.mesh.weak_laplacian_1d, (f,) * self.dim, out)

    def _sum_along(self, mats, fs, out):
        """mats[d] along d applied to fs[d], summed over d in order."""
        acc = self.along(mats[0], fs[0], 0, out=out)
        tmp = self.mesh.work.array("operator", acc.shape)
        for d in range(1, self.dim):
            acc += self.along(mats[d], fs[d], d, out=tmp)
        return acc


def _rows_of(out):
    """`out` as a (rows, npts) view: `ndarray.reshape` up to 2D, where it
    cannot copy and costs a third of `np.reshape(..., copy=False)`, which
    higher ranks take so that a strided `out` is never silently copied."""
    if out.ndim <= 2:
        return out.reshape(-1, out.shape[-1])
    return np.reshape(out, (-1, out.shape[-1]), copy=False)


def _csr_times_dense(A, x, y):
    """y = A @ x for a CSR matrix A and C-contiguous x, y of n rows.

    This is the kernel `A @ x` runs (`csr_matvecs`: each row of y is
    the axpy sum of its stored entries, in storage order) minus the
    result array it allocates, so y holds exactly the bits of `A @ x`.
    """
    y.fill(0.0)
    n = A.shape[1]
    csr_matvecs(n, n, x.size // n, A.indptr, A.indices, A.data, x, y)


def build_mass(mesh: Mesh) -> DiagonalMass:
    """Lumped mass, diagonal by collocation: the product of the 1D lumped masses."""
    return DiagonalMass(entries=mesh.mass.copy())


def integrate(mesh: Mesh, nodal_field: np.ndarray) -> float:
    """Quadrature of a nodal field over the domain, sum_e sum_q w J f."""
    return float(np.dot(mesh.mass, nodal_field))
