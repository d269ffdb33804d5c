"""A mesh's step plan: what the stepping hot path would otherwise redo on
every call, made once.

`Mesh.plan` holds, as typed fields, one work buffer per layer of the
step, the row views the layers take of them, and, per direction and 1D
matrix, the product form that `SemOps` applies (`operators._product`),
bound once where its operands are the plan's own. It is made on a
simulator's first step and dies with its mesh. The embedded grids share
their mesh, and so one plan: simulators on one mesh must not step
concurrently. A layer's functions never call each other while one holds
its buffer, and each fills the buffer and reads it back before it
returns, so a buffer is dead between calls. Pages become resident only
as far as a buffer is used. The buffers, of npts-point rows:
- `tendency`, a state, and `coupled`, its (rho', u, theta_v') rows: the
  S(q) and L(q) that `Simulator.step` asks for;
- `stages`: `step_ark2`'s four stage vectors;
- `basis`: `gmres_solve`'s restart + 1 Krylov vectors of coupled rows;
- `kernel`: `evaluate_rhs`'s dim + 8 intermediates, Kessler's density
  and intermediates, level-major, or the modal filter's state stack
  after x (2D), or after x and after y (3D);
- `operator`: dim + 4 rows for the (p', rho u_d) pair that L and S each
  differentiate in one product per direction, S's grad p'/rho and
  Laplacian sums, and `SemOps`' sums.
A windowed product along a periodic axis also holds the small gather
buffer its bind made for the points its end windows wrap to
(`operators._windowed`).
"""

import numpy as np

from .grid import Mesh
from .microphysics import _SCRATCH_ROWS
from .operators import PrognosticState, _product
from .timeint import GmresConfig, _operator_rows


class StepPlan:
    """The step plan of one mesh (see the module docstring)."""

    def __init__(self, mesh: Mesh):
        dim, npts, nf = mesh.dim, mesh.npts, 5 + mesh.dim
        self.npts_1d = mesh.npts_1d
        self.tendency = PrognosticState.from_vector(np.empty(nf * npts), dim)
        self.coupled = self.tendency.data[:2 + dim]
        self.stages = np.empty((4, nf * npts))
        self.basis = np.empty((GmresConfig().restart + 1) * self.coupled.size)
        k = self.kernel = np.empty((max(dim + 8, 1 + _SCRATCH_ROWS, (dim - 1) * nf), npts))
        self.operator = np.empty((dim + 4, npts))
        self.pair = self.operator[:2]
        self.pair_rows = tuple(self.pair)
        # rho, tmp, d(pair), d(fields), grad p'/rho (operator rows free until S's Laplacian)
        self.rhs_rows = (k[0], k[1], k[2:4], k[4:dim + 8], self.operator[2:2 + dim])
        levels = k.reshape((len(k), mesh.npts_1d[-1], mesh.ncols))
        self.kessler_rho, self.kessler_scratch = levels[0], levels[1:1 + _SCRATCH_ROWS]

        self._products, self._field_products = {}, {}
        # the mesh's own matrices, which live as long as it and so keep
        # their ids: its derivative and Laplacian, and the filters it caches
        self._own = {id(M) for M in mesh.weak_derivative_1d + mesh.weak_laplacian_1d}
        self._filters = mesh._filters
        self.derivative = tuple(map(self.product, mesh.weak_derivative_1d, range(dim)))
        self.laplacian = tuple(map(self.product, mesh.weak_laplacian_1d, range(dim)))
        self.rhs_pair = tuple(D(self.pair, self.rhs_rows[2]) for D in self.derivative)
        self.operator_rows = _operator_rows(self, self.coupled, mesh.ncols)

    def product(self, A, d):
        """A's product along direction d: for one of the mesh's own
        matrices made on first use and kept, for any other made for this
        call alone."""
        key = (id(A), d)
        product = self._products.get(key)
        if product is None:
            product = _product(A, d, self.npts_1d)
            if id(A) in self._own or any(A is M for mats in self._filters.values() for M in mats):
                self._products[key] = product
        return product

    def field_products(self, fields):
        """S's derivative and Laplacian of its field rows per direction,
        bound into its rows (the Laplacian's later directions into the
        operator rows); kept per row and row count of `stages`, where
        `step_ark2` hands S its states, and made anew for other rows."""
        key = (fields.__array_interface__["data"][0], fields.shape)
        products = self._field_products.get(key)
        if products is None:
            derivs, tmp = self.rhs_rows[3][:len(fields)], self.operator[:len(fields)]
            products = (tuple(D(fields, derivs) for D in self.derivative),
                        tuple(L(fields, tmp if d else derivs) for d, L in enumerate(self.laplacian)))
            if fields.base is self.stages and fields.flags.c_contiguous:
                self._field_products[key] = products
        return products
