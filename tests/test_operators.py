import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from mmfsim import operators
from mmfsim.dynamics import boyd_vandeven_transfer, filter_field
from mmfsim.grid import DENSE_X_MAX, build_box_mesh, dss_sum, scatter_to_elements
from mmfsim.operators import PrognosticState, SemOps, _csr_times_dense, build_mass, integrate


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
    """A along direction d through scipy's public `A @ x` and transposed
    copies: the formulation `SemOps.along` must reproduce bit for bit."""
    n = A.shape[0]
    g = f.reshape(-1, n, math.prod(mesh.npts_1d[:d]))
    out = A @ g.transpose(1, 0, 2).reshape(n, -1)
    return out.reshape(n, g.shape[0], -1).transpose(1, 0, 2).reshape(f.shape)


def _along_oracle(mesh, A, f, d):
    """What `along` must reproduce bit for bit from any layout: the public
    `A @ x` where it runs CSR, and its own result into a new array from
    contiguous rows where it runs the dense x product."""
    if d == 0 and mesh.npts_1d[0] <= DENSE_X_MAX:
        return SemOps(mesh).along(A, np.ascontiguousarray(f), d)
    return _along_reference(mesh, A, f, d)


OUT_MESHES = {
    "2d": ((2.0, 1.0), (3, 2), (4, 3), (False,)),
    "3d_periodic": ((1.0, 2.0, 1.5), (2, 2, 2), (3, 2, 3), (True, True)),
    "3d_mixed": ((1.0, 2.0, 1.5), (3, 2, 2), (2, 4, 3), (True, False)),
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


def test_csr_kernel_matches_public_product():
    """`along` calls scipy's CSR times dense kernel directly; it must give
    the bits of the public `A @ x`, which allocates its result."""
    rng = np.random.default_rng(2)
    A = sp.random(40, 40, density=0.2, format="csr", random_state=3)
    for k in (1, 3, 64):
        x = rng.standard_normal((40, k))
        y = np.full((40, k), np.nan)
        _csr_times_dense(A, x, y)
        assert np.array_equal(y, A @ x)


# -- the dense x product against the CSR one it replaces on short axes --

DENSE_MESHES = {
    # name: (extents, elements, orders, periodic); x widths 40, 64, 65, 68
    "2d_x40_periodic": ((20e3, 12e3), (10, 4), 4, (True,)),
    "2d_x64_periodic": ((20e3, 12e3), (16, 4), 4, (True,)),
    "2d_x65": ((20e3, 12e3), (16, 4), 4, (False,)),
    "2d_x68_periodic": ((20e3, 12e3), (17, 4), 4, (True,)),
    "3d_x13": ((2e3, 3e3, 4e3), (3, 2, 2), 4, (False, True)),
    "3d_x12_periodic": ((2e3, 3e3, 4e3), (3, 2, 2), 4, (True, False)),
}


@pytest.mark.parametrize("name", sorted(DENSE_MESHES))
def test_dense_x_product_matches_csr(name, monkeypatch):
    """x axes of at most DENSE_X_MAX points take one dgemm per stack,
    every other (direction, width) the CSR kernel; both agree with the
    public `A @ x` to rounding, per field row."""
    extents, elems, order, periodic = DENSE_MESHES[name]
    mesh = build_box_mesh(extents, elems, order, periodicity=periodic)
    ops = SemOps(mesh)
    calls = []
    monkeypatch.setattr(operators, "dgemm", lambda *a, _f=operators.dgemm, **k:
                        calls.append("dense") or _f(*a, **k))
    monkeypatch.setattr(operators, "_csr_times_dense", lambda *a, _f=operators._csr_times_dense:
                        calls.append("csr") or _f(*a))
    f = np.random.default_rng(5).standard_normal((6, mesh.npts))
    for M in (mesh.weak_derivative_1d, mesh.weak_laplacian_1d, mesh.modal_filter_1d(0.3)):
        for d in range(mesh.dim):
            n = mesh.npts_1d[d]
            dense = d == 0 and n <= DENSE_X_MAX
            assert (M[d].dense is not None) == dense
            if dense:
                assert M[d].dense.flags.f_contiguous and np.array_equal(M[d].dense, M[d].toarray())
            calls.clear()
            got = ops.along(M[d], f, d)
            # one dense call for the stack; CSR runs per row along z
            assert calls == ["dense"] if dense else set(calls) == {"csr"}
            expect = _along_reference(mesh, M[d], f, d)
            for row_got, row_expect in zip(got, expect):
                assert np.max(np.abs(row_got - row_expect)) <= 1e-14 * np.max(np.abs(row_expect))
            # strided rows take one call each
            calls.clear()
            stack = np.empty((6, 2, mesh.npts))
            ops.along(M[d], f, d, out=stack[:, 0])
            assert np.array_equal(stack[:, 0], got)
            if dense:
                assert calls == ["dense"] * 6


def test_dense_x_product_independent_of_blas_threads():
    """The dense x product gives the same bytes on one BLAS thread and two,
    on an embedded squall grid's 40 x 121 points, for the 2- and 6-field
    stacks that a step multiplies."""
    script = (
        "import sys, numpy as np\n"
        "from mmfsim.grid import build_box_mesh\n"
        "from mmfsim.operators import SemOps\n"
        "mesh = build_box_mesh((20e3, 24e3), (10, 30), 4, periodicity=(True,))\n"
        "for nf in (2, 6):\n"
        "    f = np.random.default_rng(nf).standard_normal((nf, mesh.npts))\n"
        "    out = SemOps(mesh).along(mesh.weak_derivative_1d[0], f, 0)\n"
        "    sys.stdout.buffer.write(out.tobytes())\n")
    src = os.path.dirname(os.path.dirname(operators.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert len(outputs[0]) == (2 + 6) * 40 * 121 * 8
    assert outputs[0] == outputs[1]
