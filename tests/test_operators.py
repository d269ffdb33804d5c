import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import ddot, dgemm

from mmfsim import operators
from mmfsim.dynamics import boyd_vandeven_transfer, filter_field
from mmfsim.grid import DENSE_BLOCK_MAX, DENSE_MAX, build_box_mesh, dss_sum, scatter_to_elements
from mmfsim.operators import PrognosticState, SemOps, build_mass, integrate


def test_mass_totals_domain_measure(unit_mesh_2d, unit_mesh_3d):
    m2 = build_mass(unit_mesh_2d)
    assert abs(m2.entries.sum() - 1.0) < 1e-12
    m3 = build_mass(unit_mesh_3d)
    assert abs(m3.entries.sum() - 1.0) < 1e-12


def test_mass_entries_positive(small_mesh):
    assert np.all(build_mass(small_mesh).entries > 0.0)


def test_integrate_matches_quadrature_degree():
    # orders (4, 3): x exact through degree 7, z through degree 5
    mesh = build_box_mesh((2.0, 1.0), (3, 2), (4, 3))
    x, z = mesh.coords[:, 0], mesh.coords[:, 1]
    got = integrate(mesh, x ** 7 * z ** 5)
    assert abs(got - (2.0 ** 8 / 8.0) * (1.0 / 6.0)) < 1e-12 * 32.0


def test_weak_gradient_exact_on_polynomials(unit_mesh_2d):
    """Nodal derivatives of a global polynomial within the local degree."""
    mesh = unit_mesh_2d
    x, z = mesh.coords[:, 0], mesh.coords[:, 1]
    f = x ** 3 * z ** 2 + 2.0 * z - x
    g = SemOps(mesh).grad(f)
    assert np.max(np.abs(g[0] - (3.0 * x ** 2 * z ** 2 - 1.0))) < 1e-11
    assert np.max(np.abs(g[1] - (2.0 * x ** 3 * z + 2.0))) < 1e-11


def test_weak_gradient_3d(unit_mesh_3d):
    mesh = unit_mesh_3d
    x, y, z = mesh.coords.T
    f = x * y + y * z ** 2 + x ** 2
    g = SemOps(mesh).grad(f)
    assert np.max(np.abs(g[0] - (y + 2.0 * x))) < 1e-11
    assert np.max(np.abs(g[1] - (x + z ** 2))) < 1e-11
    assert np.max(np.abs(g[2] - 2.0 * y * z)) < 1e-11


def test_weak_divergence_of_linear_field(unit_mesh_2d):
    mesh = unit_mesh_2d
    x, z = mesh.coords[:, 0], mesh.coords[:, 1]
    vec = np.stack([3.0 * x + z, -2.0 * z])
    d = SemOps(mesh).div(vec)
    assert np.max(np.abs(d - 1.0)) < 1e-12


def test_gradient_of_constant_vanishes(small_mesh):
    g = SemOps(small_mesh).grad(np.full(small_mesh.npts, 7.25))
    assert np.max(np.abs(g)) < 1e-12


def test_laplacian_symmetric_negative(unit_mesh_2d):
    """The weak Laplacian is self-adjoint in the lumped inner product
    and dissipative: <f, L g> = <g, L f> and <f, L f> <= 0."""
    mesh = unit_mesh_2d
    mass = build_mass(mesh).entries
    rng = np.random.default_rng(11)
    f = rng.standard_normal(mesh.npts)
    g = rng.standard_normal(mesh.npts)
    lap = SemOps(mesh).laplacian
    lhs = float((mass * lap(f)) @ g)
    rhs = float((mass * lap(g)) @ f)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
    quad = float((mass * lap(f)) @ f)
    assert quad <= 1e-10


def test_laplacian_kills_constants(small_mesh):
    lap = SemOps(small_mesh).laplacian(np.ones(small_mesh.npts))
    assert np.max(np.abs(lap)) < 1e-10


def test_diffusion_scales_linearly(small_mesh):
    f = np.sin(2.0 * np.pi * small_mesh.coords[:, 0] / 50e3)
    lap = SemOps(small_mesh).laplacian
    assert np.allclose(lap(200.0 * f), 200.0 * lap(f))


def test_batched_gradient_matches_single(unit_mesh_2d):
    mesh = unit_mesh_2d
    rng = np.random.default_rng(4)
    fields = rng.standard_normal((3, mesh.npts))
    batched = SemOps(mesh).grad(fields)
    for i in range(3):
        single = SemOps(mesh).grad(fields[i])
        assert np.max(np.abs(batched[i] - single)) < 1e-13


def test_state_vector_round_trip():
    n = 17
    rng = np.random.default_rng(0)
    st = PrognosticState(rng.standard_normal(n), rng.standard_normal((2, n)),
                         rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n), rng.standard_normal(n))
    back = PrognosticState.from_vector(st.as_vector(), dim=2)
    for name in ("rho_p", "theta_vp", "q_vp", "q_c", "q_r"):
        assert np.array_equal(getattr(st, name), getattr(back, name))
    assert np.array_equal(st.u, back.u)


def test_state_field_names_track_dim():
    st2 = PrognosticState.zeros(build_box_mesh((1.0, 1.0), (1, 1), (2, 2)))
    assert st2.field_names() == ("rho_p", "u", "w", "theta_vp", "q_vp", "q_c", "q_r")
    st3 = PrognosticState.zeros(build_box_mesh((1.0, 1.0, 1.0), (1, 1, 1), (2, 2, 2)))
    assert "v" in st3.field_names() and st3.data.shape[0] == 8


def test_state_fields_are_rows_of_one_array():
    st = PrognosticState.zeros(build_box_mesh((1.0, 1.0), (1, 1), (2, 2)))
    st.theta_vp = 1.5
    st["u"] = 2.0
    st.u[-1][:] = 3.0
    assert np.all(st.as_vector().reshape(7, -1)[3] == 1.5)
    assert np.all(st.data[1] == 2.0) and np.all(st["w"] == 3.0)
    # from_vector views its input; copy does not
    back = PrognosticState.from_vector(st.as_vector(), 2)
    back.q_r[:] = 4.0
    assert np.all(st.q_r == 4.0)
    assert not np.shares_memory(st.copy().data, st.data)


# -- the 1D operators against the element-assembled maths they replace --

def _along_local(M, fe, d):
    """Apply M along the element-local axis of direction d (x is last)."""
    ax = fe.ndim - 1 - d
    return np.moveaxis(np.tensordot(M, fe, axes=(1, ax)), 0, ax)


def _element_reference(mesh, strength):
    """grad/div/laplacian/filter by gather, LGL diff_matrix, w J, DSS."""
    loc = tuple(r.order + 1 for r in mesh.rules[::-1])
    wj = mesh.jac * np.ones(loc)
    for d, rule in enumerate(mesh.rules):
        wj = wj * rule.weights.reshape([-1 if k == mesh.dim - 1 - d else 1
                                        for k in range(mesh.dim)])
    mass = dss_sum(mesh, np.broadcast_to(wj.ravel(), (mesh.nelem, wj.size)))
    D = [r.diff_matrix for r in mesh.rules]
    rng = range(mesh.dim)

    def gather(f):
        return scatter_to_elements(mesh, f).reshape((mesh.nelem,) + loc)

    def project(le):
        return dss_sum(mesh, (le * wj).reshape(mesh.nelem, -1)) / mass

    def grad(f):
        fe = gather(f)
        return np.stack([project(mesh.metric[d] * _along_local(D[d], fe, d)) for d in rng])

    def div(v):
        return project(sum(mesh.metric[d] * _along_local(D[d], gather(v[d]), d) for d in rng))

    def laplacian(f):
        fe = gather(f)
        acc = sum(mesh.metric[d] ** 2 * _along_local(D[d].T, wj * _along_local(D[d], fe, d), d)
                  for d in rng)
        return -dss_sum(mesh, acc.reshape(mesh.nelem, -1)) / mass

    def modal_filter(f):
        fe = gather(f)
        for d, rule in enumerate(mesh.rules):
            N = rule.order
            V = np.polynomial.legendre.legvander(rule.points, N)
            t = (1.0 - strength) + strength * boyd_vandeven_transfer(np.arange(N + 1) / N)
            fe = _along_local(V @ np.diag(t) @ np.linalg.inv(V), fe, d)
        return project(fe)

    return grad, div, laplacian, modal_filter


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("mesh_name", ["unit_mesh_2d", "unit_mesh_3d", "mixed_3d", "small_mesh"])
def test_1d_operators_match_element_assembly(mesh_name, request):
    if mesh_name == "mixed_3d":
        mesh = build_box_mesh((1.0, 2.0, 1.5), (3, 2, 2), (2, 4, 3),
                              periodicity=(True, False))
    else:
        mesh = request.getfixturevalue(mesh_name)
    grad, div, laplacian, modal_filter = _element_reference(mesh, 0.3)
    ops = SemOps(mesh)
    f = np.random.default_rng(8).standard_normal((2, mesh.npts))
    vec = np.random.default_rng(9).standard_normal((mesh.dim, mesh.npts))
    stacked_grad = ops.grad(f)
    stacked_lap = ops.laplacian(f)
    stacked_filt = filter_field(mesh, f, 0.3)
    for k in range(2):
        assert _rel(ops.grad(f[k]), grad(f[k])) < 1e-13
        assert _rel(stacked_grad[k], grad(f[k])) < 1e-13
        assert _rel(ops.laplacian(f[k]), laplacian(f[k])) < 1e-13
        assert _rel(stacked_lap[k], laplacian(f[k])) < 1e-13
        assert _rel(filter_field(mesh, f[k], 0.3), modal_filter(f[k])) < 1e-13
        assert _rel(stacked_filt[k], modal_filter(f[k])) < 1e-13
    assert _rel(ops.div(vec), div(vec)) < 1e-13


# -- out= arguments against the allocating, public `A @ x` formulation --

def _along_reference(mesh, A, f, d):
    """A along direction d through scipy's public CSR `A @ x` and
    transposed copies: the product `SemOps.along` must agree with to
    rounding."""
    n = A.shape[0]
    g = f.reshape(-1, n, math.prod(mesh.npts_1d[:d]))
    out = sp.csr_array(A) @ g.transpose(1, 0, 2).reshape(n, -1)
    return out.reshape(n, g.shape[0], -1).transpose(1, 0, 2).reshape(f.shape)


def _dense_axis(mesh, d):
    """The rule of `Mesh._assemble_1d`: an axis of at most DENSE_MAX points
    is dense along x, and along y or z when its (n, stride) block is within
    DENSE_BLOCK_MAX multiply-adds."""
    n = mesh.npts_1d[d]
    return n <= DENSE_MAX and (d == 0 or n * n * math.prod(mesh.npts_1d[:d]) <= DENSE_BLOCK_MAX)


def _windows(A, d):
    """The windows of A along d without a dense form, as (rows, columns)
    ranges of point indices, the columns taken modulo n: b rows each,
    b = `operators._WINDOW` times the half-bandwidth h, every window
    reading h points past either end; the last takes the rows left after
    the last whole window that stays h points short of the end, and only
    on a periodic axis do the first and last wrap around. An axis shorter
    than b + 2h is one window."""
    n = A.shape[0]
    rows, cols = np.nonzero(A)
    dist = np.abs(rows - cols)
    h = int(np.minimum(dist, n - dist).max())
    b = max(h, 1) * operators._WINDOW
    if n < b + 2 * h:
        return [(range(n), range(n))]
    wrap = dist.max() > h
    tail = b * ((n - h) // b)
    return ([(range(0, b), range(-h if wrap else 0, b + h))]
            + [(range(s, s + b), range(s - h, s + b + h)) for s in range(b, tail, b)]
            + [(range(tail, n), range(tail - h, n + h if wrap else n))])


def _window_oracle(mesh, A, f, d):
    """A along d as numpy's `@` of each window's dense block and a
    contiguous copy of the points the window reads, in the batches of
    columns the window form hands one gemm: along x the copy is (lines,
    columns) for a batch of `operators._X_LINES` lines, fewer for the last
    batch of a field, and a C-ordered copy of the block's transpose
    multiplies it from the right; along y and z the block multiplies the
    (columns, stride) copy of each line of the axis. A batch is narrower
    where a wider one would take a gemm over DENSE_BLOCK_MAX
    multiply-adds. These are the bits the window form must write."""
    n = A.shape[0]
    stride = math.prod(mesh.npts_1d[:d])
    windows = [(list(rows), [c % n for c in cols]) for rows, cols in _windows(A, d)]
    width = DENSE_BLOCK_MAX // max(len(rows) * len(cols) for rows, cols in windows)
    out = np.empty(f.shape)
    if d == 0:
        g, y = f.reshape(-1, mesh.npts // n, n), out.reshape(-1, mesh.npts // n, n)
        width = min(width, operators._X_LINES)
    else:
        g, y = f.reshape(-1, n, stride), out.reshape(-1, n, stride)
    for rows, cols in windows:
        block = np.ascontiguousarray(A[np.ix_(rows, cols)])
        for q in range(0, g.shape[-1] if d else g.shape[1], width):
            if d == 0:
                y[:, q:q + width, rows] = (np.ascontiguousarray(g[:, q:q + width][:, :, cols])
                                           @ np.ascontiguousarray(block.T))
            else:
                y[:, rows, q:q + width] = block @ np.ascontiguousarray(g[:, cols, q:q + width])
    return out


def _along_oracle(mesh, A, f, d):
    """What `along` must reproduce bit for bit from any layout: on a dense
    axis, its own result into a new array from contiguous rows along x,
    and numpy's `@` of the dense matrix over the contiguous (n, stride)
    blocks along y and z; on any other axis, the window oracle."""
    f = np.ascontiguousarray(f)
    if not _dense_axis(mesh, d):
        return _window_oracle(mesh, A, f, d)
    if d == 0:
        return SemOps(mesh).along(A, f, d)
    n = A.shape[0]
    return (A @ f.reshape(-1, n, math.prod(mesh.npts_1d[:d]))).reshape(f.shape)


OUT_MESHES = {
    # every axis dense
    "2d": ((2.0, 1.0), (3, 2), (4, 3), (False,)),
    "3d_periodic": ((1.0, 2.0, 1.5), (2, 2, 2), (3, 2, 3), (True, True)),
    "3d_mixed": ((1.0, 2.0, 1.5), (3, 2, 2), (2, 4, 3), (True, False)),
    # windows along a 67-point z, a 68-point periodic x and a 69-point y
    "2d_long": ((2.0, 1.0), (17, 22), (4, 3), (True,)),
    "3d_long_y": ((1.0, 2.0, 1.5), (2, 17, 2), (2, 4, 3), (True, False)),
    # windows along a 69-point walled x
    "2d_long_walled_x": ((2.0, 1.0), (17, 4), (4, 3), (False,)),
    # windows along a 68-point periodic x of 11 x 13 = 143 lines: four
    # batches of 32 lines and one of the 15 left over
    "3d_long_x": ((2.0, 1.0, 1.5), (17, 5, 4), (4, 2, 3), (True, False)),
}


@pytest.fixture(scope="module", params=sorted(OUT_MESHES))
def out_mesh(request):
    extents, elems, orders, periodic = OUT_MESHES[request.param]
    return build_box_mesh(extents, elems, orders, periodicity=periodic)


@pytest.mark.parametrize("nf", [1, 2, 7])
def test_operators_write_out_bit_for_bit(out_mesh, nf):
    mesh = out_mesh
    ops = SemOps(mesh)
    f = np.random.default_rng(nf).standard_normal((nf, mesh.npts))
    before = f.copy()
    mats = {"derivative": mesh.weak_derivative_1d, "laplacian": mesh.weak_laplacian_1d,
            "filter": mesh.modal_filter_1d(0.3)}
    # every direction of every 1D operator, stacked and single fields, into
    # rows of a larger stack (strided, like a gradient's out[:, d])
    for M in mats.values():
        for d in range(mesh.dim):
            expect = _along_oracle(mesh, M[d], f, d)
            stack = np.full((nf, 3, mesh.npts), np.nan)
            ops.along(M[d], f, d, out=stack[:, 1])
            assert np.array_equal(stack[:, 1], expect)
            assert np.all(np.isnan(stack[:, [0, 2]]))
            assert np.array_equal(ops.along(M[d], f, d), expect)
            single = np.full(mesh.npts, np.nan)
            ops.along(M[d], f[0], d, out=single)
            assert np.array_equal(single, expect[0])

    D, L = mats["derivative"], mats["laplacian"]
    grads = np.full((nf, mesh.dim, mesh.npts), np.nan)
    assert ops.grad(f, out=grads) is grads
    for d in range(mesh.dim):
        assert np.array_equal(grads[:, d], _along_oracle(mesh, D[d], f, d))
    assert np.array_equal(ops.grad(f), grads)
    assert np.array_equal(ops.grad(f[0]), grads[0])

    lap = _along_oracle(mesh, L[0], f, 0)
    for d in range(1, mesh.dim):
        lap += _along_oracle(mesh, L[d], f, d)
    out = np.full_like(f, np.nan)
    assert ops.laplacian(f, out=out) is out
    assert np.array_equal(out, lap)
    assert np.array_equal(ops.laplacian(f), lap)

    vec = f[0] * np.arange(1.0, mesh.dim + 1.0)[:, None]
    div = _along_oracle(mesh, D[0], vec[0], 0)
    for d in range(1, mesh.dim):
        div += _along_oracle(mesh, D[d], vec[d], d)
    out = np.full(mesh.npts, np.nan)
    assert ops.div(vec, out=out) is out
    assert np.array_equal(out, div)

    # the filter may overwrite its input
    F = mats["filter"]
    filt = f
    for d in range(mesh.dim):
        filt = _along_oracle(mesh, F[d], filt, d)
    assert np.array_equal(filter_field(mesh, f, 0.3), filt)
    assert np.array_equal(f, before)
    in_place = f.copy()
    assert filter_field(mesh, in_place, 0.3, out=in_place) is in_place
    assert np.array_equal(in_place, filt)


def _tensor_by_rows(mesh, mats, f):
    """The tensor product one field row at a time, each row through every
    direction on its own: the stacked `SemOps.tensor` must give its bits."""
    plan = mesh.plan
    products = [plan.product(A, d) for d, A in enumerate(mats)]
    out = np.empty(f.shape)
    tmp = np.empty((2, mesh.npts))
    for row, out_row in zip(f.reshape(-1, mesh.npts), out.reshape(-1, mesh.npts)):
        for d, product in enumerate(products):
            target = out_row if d == mesh.dim - 1 else tmp[d % 2]
            product(row, target)()
            row = target
    return out


FILTER_MESHES = {
    # desk squall coarse 12 x 61 (x dgemm, z matmul), its embedded grid
    # 40 x 121 (z windows) and squall fine 252 x 121 (x and z windows)
    "squall_coarse": ((50e3, 24e3), (3, 15), 4, (True,)),
    "squall_ssp": ((20e3, 24e3), (10, 30), 4, (True,)),
    "squall_fine": ((50e3, 24e3), (63, 30), 4, (True,)),
    # desk supercell coarse 12 x 8 x 49 (x dgemm, y and z matmul), and
    # 3D grids with a windowed z and with windowed x and y
    "supercell_coarse": ((30e3, 20e3, 24e3), (3, 2, 12), 4, (True, True)),
    "3d_z49": ((2e3, 3e3, 10e3), (3, 3, 12), 4, (True, True)),
    "3d_x68_y68": ((9e3, 9e3, 2e3), (17, 17, 1), 4, (True, True)),
}


@pytest.mark.parametrize("name", sorted(FILTER_MESHES))
def test_stacked_filter_is_the_row_loop_bit_for_bit(name):
    """`SemOps.tensor` applies each direction once to the whole stack,
    through the plan's kernel rows; a state's rows, a single field and a
    stack too tall for the kernel come out as they did one row at a
    time, into a separate `out` and in place."""
    extents, elems, order, periodic = FILTER_MESHES[name]
    mesh = build_box_mesh(extents, elems, order, periodicity=periodic)
    mats = mesh.modal_filter_1d(0.3)
    ops = SemOps(mesh)
    rng = np.random.default_rng(len(name))
    for rows in (5 + mesh.dim, 1, 20):
        f = rng.standard_normal((rows, mesh.npts))
        expect = _tensor_by_rows(mesh, mats, f)
        out = np.full_like(f, np.nan)
        assert ops.tensor(mats, f, out=out) is out
        assert np.array_equal(out, expect)
        assert np.array_equal(ops.tensor(mats, f[0]), expect[0])
        assert ops.tensor(mats, f, out=f) is f
        assert np.array_equal(f, expect)


def test_along_never_writes_into_a_copy_of_out(out_mesh):
    """A rank-3 `out` is viewed as one stack of rows when its layout
    allows and refused when it does not, so a product never lands in a
    copy that the caller cannot see."""
    mesh = out_mesh
    ops = SemOps(mesh)
    f = np.random.default_rng(4).standard_normal((2, 2, mesh.npts))
    for d, D in enumerate(mesh.weak_derivative_1d):
        expect = ops.along(D, f.reshape(4, -1), d).reshape(f.shape)
        whole = np.full(f.shape, np.nan)
        assert ops.along(D, f, d, out=whole) is whole
        assert np.array_equal(whole, expect)
        # the first two rows of each block of three: no stride merges
        # the leading axes into one
        blocks = np.full((2, 3, mesh.npts), np.nan)
        with pytest.raises(ValueError):
            ops.along(D, f, d, out=blocks[:, :2])


# -- the dense and window products against the public CSR one --

DENSE_MESHES = {
    # name: (extents, elements, orders, periodic); x widths 40, 64, 65, 68
    "2d_x40_periodic": ((20e3, 12e3), (10, 4), 4, (True,)),
    "2d_x64_periodic": ((20e3, 12e3), (16, 4), 4, (True,)),
    "2d_x65": ((20e3, 12e3), (16, 4), 4, (False,)),
    "2d_x68_periodic": ((20e3, 12e3), (17, 4), 4, (True,)),
    # z of 65 points, over DENSE_MAX
    "2d_z65": ((20e3, 12e3), (4, 16), 4, (True,)),
    "3d_x13": ((2e3, 3e3, 4e3), (3, 2, 2), 4, (False, True)),
    "3d_x12_periodic": ((2e3, 3e3, 4e3), (3, 2, 2), 4, (True, False)),
    # 12 x 12 x 49: z is short, but its 49 x 49 x 144 block is over
    # DENSE_BLOCK_MAX, so it takes windows
    "3d_z49_block": ((2e3, 3e3, 10e3), (3, 3, 12), 4, (True, True)),
    # y of 68 points, over DENSE_MAX
    "3d_y68": ((2e3, 9e3, 2e3), (2, 17, 1), 4, (True, True)),
    # 68 x 33 x 41: x windows of 1353 lines, z windows of 2244 columns,
    # both split into two gemms to stay within DENSE_BLOCK_MAX
    "3d_x68_split": ((9e3, 4e3, 4e3), (17, 8, 10), 4, (True, False)),
}


@pytest.mark.parametrize("name", sorted(DENSE_MESHES))
def test_dense_x_product_matches_csr(name, monkeypatch):
    """Axes of at most DENSE_MAX points take a dense product, along y and
    z only when the (n, stride) block is within DENSE_BLOCK_MAX: one scipy
    dgemm per stack along x, one numpy matmul along y and z. Every other
    (direction, width) takes windows: as many numpy matmuls for a stack
    of six rows, contiguous or strided, as for one. No gemm exceeds
    DENSE_BLOCK_MAX multiply-adds. Both agree with the public `A @ x` to
    rounding, per field row."""
    extents, elems, order, periodic = DENSE_MESHES[name]
    mesh = build_box_mesh(extents, elems, order, periodicity=periodic)
    ops = SemOps(mesh)
    calls, sizes = [], []
    monkeypatch.setattr(operators, "dgemm", lambda *a, _f=operators.dgemm, **k:
                        calls.append("dgemm") or _f(*a, **k))

    def matmul(a, b, _f=np.matmul, **k):
        calls.append("matmul")
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return _f(a, b, **k)

    monkeypatch.setattr(operators.np, "matmul", matmul)
    f = np.random.default_rng(5).standard_normal((6, mesh.npts))
    for M in (mesh.weak_derivative_1d, mesh.weak_laplacian_1d, mesh.modal_filter_1d(0.3)):
        for d in range(mesh.dim):
            dense = _dense_axis(mesh, d)
            assert M[d].flags.f_contiguous
            calls.clear()
            ops.along(M[d], f[0], d)
            one_row = list(calls)
            calls.clear()
            got = ops.along(M[d], f, d)
            # one dense call for the stack; the windows' matmuls for the stack
            assert calls == (["dgemm" if d == 0 else "matmul"] if dense else one_row)
            assert set(calls) == {"dgemm" if dense and d == 0 else "matmul"}
            expect = _along_reference(mesh, M[d], f, d)
            for row_got, row_expect in zip(got, expect):
                assert np.max(np.abs(row_got - row_expect)) <= 1e-14 * np.max(np.abs(row_expect))
            # strided rows: one dgemm each along x, one matmul for them all
            # along y and z, and the same windows
            calls.clear()
            stack = np.empty((6, 2, mesh.npts))
            ops.along(M[d], f, d, out=stack[:, 0])
            assert np.array_equal(stack[:, 0], got)
            assert calls == (["dgemm"] * 6 if dense and d == 0 else one_row)
    assert max(sizes) <= DENSE_BLOCK_MAX
    if name == "3d_x68_split":
        for d in (0, 2):
            calls.clear()
            ops.along(mesh.weak_derivative_1d[d], f, d)
            # two column batches of the first, interior and last windows
            assert calls == ["matmul"] * 6


def test_dense_meshes_hold_a_short_axis_over_the_block_bound():
    """The dispatch cases include a 3D axis of at most DENSE_MAX points
    that DENSE_BLOCK_MAX sends to windows."""
    meshes = [build_box_mesh(e, n, o, periodicity=p)
              for e, n, o, p in DENSE_MESHES.values() if len(e) == 3]
    assert any(m.npts_1d[d] <= DENSE_MAX and not _dense_axis(m, d)
               for m in meshes for d in (1, 2))


def test_dense_x_product_independent_of_blas_threads():
    """The dense and window products give the same bytes on one BLAS
    thread and two. Dense, for the 2- and 6-field stacks that a step
    multiplies: along x on an embedded squall grid's 40 x 121 points,
    along y and z on the desk supercell coarse grid (12 x 8 x 49) and
    embedded grid (16 x 49). Windows, for stacks of 1, 2 and 6 fields:
    along the desk squall fine grid's periodic 252-point x and its
    121-point z, the embedded squall grid's z, the z of a 12 x 12 x 49
    grid, whose 49 x 49 x 144 block is over DENSE_BLOCK_MAX, and the
    periodic 68-point x of a 68 x 11 x 13 grid, whose 143 lines take
    five gemms per window."""
    script = (
        "import sys, numpy as np\n"
        "from mmfsim.cases import build_case\n"
        "from mmfsim.grid import build_box_mesh\n"
        "from mmfsim import operators\n"
        "from mmfsim.operators import SemOps\n"
        "windowed, real = set(), operators._windowed\n"
        "operators._windowed = lambda A, *a: windowed.add(id(A)) or real(A, *a)\n"
        "setup = build_case('supercell', 'mmf', preset='desk')\n"
        "embedded = build_box_mesh((20e3, 24e3), (10, 30), 4, periodicity=(True,))\n"
        "products = [(embedded, 0), (setup.simulator.mesh, 1), (setup.simulator.mesh, 2),\n"
        "            (setup.instances[0].sim.mesh, 1)]\n"
        "fine = build_case('squall', 'fine', preset='desk').simulator.mesh\n"
        "block = build_box_mesh((2e3, 3e3, 10e3), (3, 3, 12), 4, periodicity=(True, True))\n"
        "long_x = build_box_mesh((2.0, 1.0, 1.5), (17, 5, 4), (4, 2, 3), periodicity=(True, False))\n"
        "windows = [(fine, 0), (fine, 1), (embedded, 1), (block, 2), (long_x, 0)]\n"
        "for (mesh, d), stacks in [(p, (2, 6)) for p in products] + [(w, (1, 2, 6)) for w in windows]:\n"
        "    A = mesh.weak_derivative_1d[d]\n"
        "    for nf in stacks:\n"
        "        f = np.random.default_rng(nf).standard_normal((nf, mesh.npts))\n"
        "        out = SemOps(mesh).along(A, f, d)\n"
        "        sys.stdout.buffer.write(out.tobytes())\n"
        "    assert (id(A) in windowed) == (stacks == (1, 2, 6))\n")
    src = os.path.dirname(os.path.dirname(operators.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    dense = (2 + 6) * (40 * 121 + 2 * 12 * 8 * 49 + 16 * 49)
    windows = (1 + 2 + 6) * (2 * 252 * 121 + 40 * 121 + 12 * 12 * 49 + 68 * 11 * 13)
    assert len(outputs[0]) == (dense + windows) * 8
    assert outputs[0] == outputs[1]


def test_fixed_order_dot_sums_chunks_in_order():
    """The dot product sums 8192-element BLAS dots in order, so it is one
    fixed sum at any BLAS thread count, and agrees with np.dot to
    rounding."""
    rng = np.random.default_rng(6)
    for n in (1, 8192, 8193, 33880):
        a, b = rng.standard_normal((2, n))
        expect = 0.0
        for i in range(0, n, 8192):
            expect += ddot(a[i:i + 8192], b[i:i + 8192])
        assert operators.fixed_order_dot(a, b) == expect
        assert abs(expect - np.dot(a, b)) <= 1e-13 * np.dot(np.abs(a), np.abs(b))
    mesh = build_box_mesh((2.0, 1.0), (3, 2), (4, 3))
    assert integrate(mesh, np.ones(mesh.npts)) == operators.fixed_order_dot(mesh.mass, np.ones(mesh.npts))


# -- the step plan's product forms against the allocating public product --

PLAN_MESHES = {
    # x 40 (dgemm), z 49 in 49 x 49 x 40 blocks (matmul)
    "2d_x40": ((20e3, 12e3), (10, 12), 4, (True,)),
    # x 68, over DENSE_MAX (windows); z 17 (matmul)
    "2d_x68": ((20e3, 12e3), (17, 4), 4, (True,)),
    # x and y 12 (dgemm, matmul); z 49 in 49 x 49 x 144 blocks (windows)
    "3d_z49": ((2e3, 3e3, 10e3), (3, 3, 12), 4, (True, True)),
    # x and y 68 (windows); z 5 (matmul)
    "3d_x68_y68": ((9e3, 9e3, 2e3), (17, 17, 1), 4, (True, True)),
}


def _plan_form(mesh, d):
    """The product form `Mesh.plan` must choose for direction d."""
    if _dense_axis(mesh, d):
        return "dgemm" if d == 0 else "matmul"
    return "windows"


def _product_oracle(mesh, A, f, d):
    """A along d of contiguous copies of the rows of f, through the public
    product of each form, which allocates its result: scipy's dgemm on
    the (n, lines) matrix along x, numpy's `@` on the (n, stride) blocks
    along y and z, and numpy's `@` per window (`_window_oracle`)."""
    n = A.shape[0]
    g = np.ascontiguousarray(f).reshape(-1, n, math.prod(mesh.npts_1d[:d]))
    form = _plan_form(mesh, d)
    if form == "dgemm":
        return dgemm(1.0, A, np.asfortranarray(g.reshape(-1, n).T)).T.reshape(f.shape)
    if form == "matmul":
        return (A @ g).reshape(f.shape)
    return _window_oracle(mesh, A, np.ascontiguousarray(f), d)


@pytest.mark.parametrize("name", sorted(PLAN_MESHES))
def test_plan_products_reproduce_the_public_product(name, monkeypatch):
    """Each 1D matrix's product, in the form the plan chose once for its
    direction, writes the bits of the form's public product into
    contiguous and strided `out` rows; a bound call reads its operands
    when it is made, so one binding serves every call."""
    extents, elems, order, periodic = PLAN_MESHES[name]
    mesh = build_box_mesh(extents, elems, order, periodicity=periodic)
    calls = []
    monkeypatch.setattr(operators, "dgemm", lambda *a, _f=operators.dgemm, **k:
                        calls.append("dgemm") or _f(*a, **k))
    monkeypatch.setattr(operators.np, "matmul", lambda *a, _f=np.matmul, **k:
                        calls.append("matmul") or _f(*a, **k))
    plan = mesh.plan
    forms = [_plan_form(mesh, d) for d in range(mesh.dim)]
    rng = np.random.default_rng(len(name))
    for M in (mesh.weak_derivative_1d, mesh.weak_laplacian_1d, mesh.modal_filter_1d(0.3)):
        for d, form in enumerate(forms):
            product = plan.product(M[d], d)
            assert product is plan.product(M[d], d)
            for nf in (1, 3):
                f = rng.standard_normal((nf, mesh.npts))
                strided = np.full((nf, 2, mesh.npts), np.nan)
                for out in (np.full((nf, mesh.npts), np.nan), strided[:, 1]):
                    calls.clear()
                    call = product(f, out)
                    call()
                    assert np.array_equal(out, _product_oracle(mesh, M[d], f, d))
                    assert set(calls) == {"matmul" if form == "windows" else form}
                    f[:] = rng.standard_normal(f.shape)
                    call()
                    assert np.array_equal(out, _product_oracle(mesh, M[d], f, d))
                assert np.all(np.isnan(strided[:, 0]))
    assert plan.derivative == tuple(plan.product(D, d)
                                    for d, D in enumerate(mesh.weak_derivative_1d))



# -- the numpy assembly of the 1D matrices against scipy.sparse --

def _csr_1d(mesh, d, local):
    """M_d^-1 sum_e R_e^T local R_e along direction d, for an element
    matrix `local` already weighted by the element's quadrature masses,
    through scipy's COO to CSR conversion, which sums duplicate entries,
    and a lumped mass summed by `np.bincount`."""
    N, ne, n = mesh.orders[d], mesh.elem_counts[d], mesh.npts_1d[d]
    g = (np.arange(ne)[:, None] * N + np.arange(N + 1)) % n
    weights = (0.5 * mesh.extents[d] / ne) * mesh.rules[d].weights
    lumped = np.bincount(g.ravel(), weights=np.tile(weights, ne), minlength=n)
    A = sp.csr_matrix((np.tile(local.ravel(), ne),
                       (np.repeat(g, N + 1, axis=1).ravel(), np.tile(g, (1, N + 1)).ravel())),
                      shape=(n, n))
    A.data *= np.repeat(1.0 / lumped, np.diff(A.indptr))
    return A


def _csr_operators(mesh, strength):
    """Per direction, the weak derivative, Laplacian and projected filter,
    their element matrices formed here and assembled by `_csr_1d`."""
    out = []
    for d, rule in enumerate(mesh.rules):
        D, N = rule.diff_matrix, rule.order
        w = ((0.5 * mesh.extents[d] / mesh.elem_counts[d]) * rule.weights)[:, None]
        V = np.polynomial.legendre.legvander(rule.points, N)
        sig = boyd_vandeven_transfer(np.arange(N + 1) / N)
        F = V @ np.diag((1.0 - strength) + strength * sig) @ np.linalg.inv(V)
        K = mesh.metric[d] ** 2 * (D.T @ (w * D))
        out.append({"derivative": _csr_1d(mesh, d, w * (mesh.metric[d] * D)),
                    "laplacian": _csr_1d(mesh, d, -K),
                    "filter": _csr_1d(mesh, d, w * F)})
    return out


def _csr_band(A):
    """(h, wrap) of a CSR matrix from its stored entries: the largest
    cyclic distance of a row from a column, and whether an entry lies
    farther than that."""
    n = A.shape[0]
    coo = A.tocoo()
    dist = np.abs(coo.row - coo.col)
    h = int(np.minimum(dist, n - dist).max())
    return h, bool(dist.max() > h)


ASSEMBLY_MESHES = {
    "2d_periodic": ((2.0, 1.0), (3, 2), (4, 3), (True,)),
    "2d_walls": ((2.0, 1.0), (3, 2), (4, 3), (False,)),
    # four element entries meet at the node a lone periodic element wraps to
    "2d_one_periodic_element": ((2.0, 1.0), (1, 3), (4, 2), (True,)),
    "2d_two_periodic_elements": ((2.0, 1.0), (2, 1), (5, 7), (True,)),
    "3d_mixed": ((1.0, 2.0, 1.5), (3, 2, 2), (2, 4, 3), (True, False)),
    "3d_walls": ((1.0, 2.0, 1.5), (2, 3, 2), (3, 2, 6), (False, False)),
    "2d_x68_z67": ((20e3, 12e3), (17, 22), (4, 3), (True,)),
}


def _desk_meshes():
    from mmfsim.cases import build_case
    for case_id, tier in (("squall", "mmf"), ("supercell", "mmf"), ("squall", "fine")):
        case = build_case(case_id, tier=tier, preset="desk")
        yield f"{case_id}_{tier}", case.simulator.mesh
        if case.instances:
            yield f"{case_id}_{tier}_ssp", case.instances[0].sim.mesh


def test_numpy_assembly_is_the_csr_assembly_bit_for_bit():
    """Every 1D derivative, Laplacian and filter matrix of the desk grids
    and of periodic and walled test meshes equals scipy.sparse's
    assembly of the same element matrices bit for bit, sign bit
    included, as a Fortran-ordered array; and the windows' half-bandwidth
    and wrap, read from its nonzero pattern, are those of the CSR
    entries on every axis of three elements or more: h = N, and a wrap
    exactly on a periodic axis."""
    from conftest import same_bits

    meshes = [(name, build_box_mesh(e, n, o, periodicity=p))
              for name, (e, n, o, p) in ASSEMBLY_MESHES.items()] + list(_desk_meshes())
    checked = 0
    for name, mesh in meshes:
        ours = [{"derivative": D, "laplacian": L, "filter": F} for D, L, F in
                zip(mesh.weak_derivative_1d, mesh.weak_laplacian_1d, mesh.modal_filter_1d(0.3))]
        for d, (mine, ref) in enumerate(zip(ours, _csr_operators(mesh, 0.3))):
            periodic = (mesh.periodic + (False,))[d]
            for kind, A in mine.items():
                assert A.flags.f_contiguous and A.dtype == np.float64, (name, d, kind)
                assert same_bits(A, ref[kind].toarray()), (name, d, kind)
                h, wrap = operators._bandwidth(A)
                if mesh.elem_counts[d] >= 3:
                    assert (h, wrap) == _csr_band(ref[kind]) == (mesh.orders[d], periodic), \
                        (name, d, kind)
                else:
                    # two periodic elements meet at both ends, where their
                    # derivative entries cancel to 0.0; such an axis of at
                    # most 33 points never takes windows
                    assert h <= _csr_band(ref[kind])[0] and mesh.npts_1d[d] <= 33
                checked += 1
    assert checked == 3 * sum(mesh.dim for _, mesh in meshes)


def test_plan_products_of_fresh_matrices_are_their_own():
    """The step plan keys its products by id(A) and keeps them only for
    the mesh's own matrices, which live as long as it does, so a fresh
    matrix never gets the product of a freed one made at the same
    address, and is not kept: fresh matrices along desk squall fine's
    windowed x axis, each bit for bit against a freshly made
    `operators._product`, leave the plan's cache as it was."""
    from mmfsim.cases import build_case
    mesh = build_case("squall", "fine", preset="desk").simulator.mesh
    D = mesh.weak_derivative_1d[0]
    assert D.shape[0] > DENSE_MAX     # the axis takes windows
    ops = SemOps(mesh)
    f = np.random.default_rng(7).standard_normal((2, mesh.npts))
    want = np.empty_like(f)
    kept = len(ops.plan._products)
    for k in range(40):
        A = D * (2 + k)
        operators._product(A, 0, mesh.npts_1d)(f, want)()
        assert ops.along(A, f, 0).tobytes() == want.tobytes(), k
    assert len(ops.plan._products) == kept
