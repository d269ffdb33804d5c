import numpy as np
import pytest
from scipy.special import erfc as scipy_erfc

from mmfsim import grid
from mmfsim.errors import ConfigurationError
from mmfsim.grid import (_erfc, boyd_vandeven_transfer, build_box_mesh, build_lgl_rule,
                         dss_sum, scatter_to_elements)

from conftest import same_bits


@pytest.mark.parametrize("N", range(1, 9))
def test_lgl_weights_sum_to_two(N):
    rule = build_lgl_rule(N)
    assert abs(rule.weights.sum() - 2.0) < 1e-14
    assert rule.points[0] == -1.0 and rule.points[-1] == 1.0
    assert np.all(np.diff(rule.points) > 0)


@pytest.mark.parametrize("N", range(1, 9))
def test_lgl_integrates_degree_2n_minus_1(N):
    rule = build_lgl_rule(N)
    rng = np.random.default_rng(10 + N)
    coeffs = rng.standard_normal(2 * N)
    # exact integral over [-1, 1]: odd powers drop out
    exact = sum(c * 2.0 / (k + 1) for k, c in enumerate(coeffs) if k % 2 == 0)
    vals = sum(c * rule.points ** k for k, c in enumerate(coeffs))
    quad = float(rule.weights @ vals)
    assert abs(quad - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("N", range(1, 9))
def test_diff_matrix_exact_on_polynomials(N):
    rule = build_lgl_rule(N)
    for k in range(N + 1):
        deriv = rule.diff_matrix @ rule.points ** k
        expect = k * rule.points ** (k - 1) if k else np.zeros_like(rule.points)
        assert np.max(np.abs(deriv - expect)) < 1e-11


def test_lgl_rejects_bad_order():
    with pytest.raises(ConfigurationError):
        build_lgl_rule(0)
    with pytest.raises(ConfigurationError):
        build_lgl_rule(17)


def test_mesh_counts_2d():
    mesh = build_box_mesh((2.0, 1.0), (4, 3), (3, 2))
    # non-periodic: 4*3+1 and 3*2+1 points per direction
    assert mesh.npts_1d == (13, 7)
    assert mesh.npts == 13 * 7
    assert mesh.nelem == 12
    assert mesh.l2g.shape == (12, 4 * 3)


def test_mesh_counts_periodic_x():
    mesh = build_box_mesh((2.0, 1.0), (4, 3), (3, 2), periodicity=(True,))
    assert mesh.npts_1d == (12, 7)
    # right edge of the last element wraps to global index 0
    assert mesh.coords[:, 0].max() < 2.0


def test_mesh_ordering_x_fastest():
    mesh = build_box_mesh((1.0, 1.0), (2, 2), (2, 2))
    g = mesh.grid_view(mesh.coords[:, 0])
    # every row of the (nz, nx) view is the same ascending x line
    assert np.all(np.diff(g[0]) > 0)
    assert np.allclose(g, g[0][None, :])
    gz = mesh.grid_view(mesh.coords[:, 1])
    assert np.allclose(gz, gz[:, 0][:, None])


def test_mesh_3d_vertical_last():
    mesh = build_box_mesh((1.0, 2.0, 3.0), (2, 2, 2), (2, 2, 2))
    assert mesh.dim == 3
    assert mesh.extents[-1] == 3.0
    assert mesh.coords[:, 2].max() == 3.0
    assert mesh.coords[mesh.bottom_nodes, 2].max() == 0.0
    assert mesh.coords[mesh.top_nodes, 2].min() == 3.0


def test_dss_scatter_adjoint(unit_mesh_2d):
    """<dss(e), g> == <e, scatter(g)> for random inputs, to rounding."""
    mesh = unit_mesh_2d
    rng = np.random.default_rng(3)
    e = rng.standard_normal(mesh.l2g.shape)
    g = rng.standard_normal(mesh.npts)
    lhs = float(dss_sum(mesh, e) @ g)
    rhs = float(np.sum(e * scatter_to_elements(mesh, g)))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_dss_multiplicity(unit_mesh_2d):
    """dss_sum of ones counts the elements holding each node: the outer
    product of the per-direction 1D counts (2 on shared element faces,
    including a periodic wrap, 1 elsewhere)."""
    def copies_1d(ne, N, periodic):
        n = ne * N + (0 if periodic else 1)
        nodes = (np.arange(ne)[:, None] * N + np.arange(N + 1)) % n
        return np.bincount(nodes.ravel(), minlength=n)

    cases = [(unit_mesh_2d, (3, 2), (4, 3), (False, False)),
             (build_box_mesh((2.0, 1.0), (4, 3), (3, 2), periodicity=(True,)),
              (4, 3), (3, 2), (True, False)),
             (build_box_mesh((1.0, 2.0, 1.5), (2, 3, 2), (2, 3, 4),
                             periodicity=(True, False)),
              (2, 3, 2), (2, 3, 4), (True, False, False))]
    for mesh, elems, orders, periodic in cases:
        counts = [copies_1d(*args) for args in zip(elems, orders, periodic)]
        want = counts[-1]
        for c in counts[-2::-1]:              # z slowest, x fastest
            want = np.multiply.outer(want, c)
        assert np.array_equal(dss_sum(mesh, np.ones(mesh.l2g.shape)), want.ravel())


def test_column_view_is_a_copy(small_mesh):
    f = np.arange(small_mesh.npts, dtype=float)
    cols = small_mesh.column_view(f)
    assert cols.shape == (small_mesh.ncols, small_mesh.npts_1d[-1])
    cols[:] = -1.0
    assert f[0] == 0.0  # mutating the column view must not touch the input


def test_column_view_orders_bottom_to_top(small_mesh):
    z = small_mesh.column_view(small_mesh.coords[:, -1])
    assert np.all(np.diff(z, axis=1) > 0)
    x = small_mesh.column_view(small_mesh.coords[:, 0])
    assert np.allclose(x, x[:, :1])  # constant x within a column


def test_meshes_compare_and_hash_by_identity():
    a = build_box_mesh((2.0, 1.0), (3, 2), (4, 3), periodicity=(True,))
    b = build_box_mesh((2.0, 1.0), (3, 2), (4, 3), periodicity=(True,))
    assert a != b
    assert a == a
    cache = {a: "a", b: "b"}
    assert cache[a] == "a" and cache[b] == "b"


def test_mesh_rejects_mismatched_inputs():
    with pytest.raises(ConfigurationError):
        build_box_mesh((1.0, 1.0), (2,), (2, 2))
    with pytest.raises(ConfigurationError):
        build_box_mesh((1.0, -1.0), (2, 2), (2, 2))


@pytest.mark.parametrize("mesh", [
    build_box_mesh((2.0, 1.0), (3, 2), (4, 3), periodicity=(True,)),
    build_box_mesh((1.0, 2.0, 1.5), (2, 3, 2), (2, 3, 4), periodicity=(True, False)),
])
def test_field_from_columns_inverts_column_view(mesh):
    def field_from_columns(cols):
        # (..., ncols, nz) -> (..., npts): the column index runs fastest
        return np.swapaxes(cols, -1, -2).reshape(cols.shape[:-2] + (mesh.npts,))

    f = np.random.default_rng(5).standard_normal(mesh.npts)
    assert np.array_equal(field_from_columns(mesh.column_view(f)), f)
    stacked = np.stack([mesh.column_view(f), mesh.column_view(2.0 * f)])
    assert np.array_equal(field_from_columns(stacked), np.stack([f, 2.0 * f]))
    assert np.array_equal(mesh.column_view(np.stack([f, 2.0 * f])), stacked)
    # the boundary levels are the columns' first and last entries
    assert np.array_equal(f[mesh.bottom_nodes], mesh.column_view(f)[:, 0])
    assert np.array_equal(f[mesh.top_nodes], mesh.column_view(f)[:, -1])
    # column weights follow the column order and cover the horizontal area
    area = np.prod(mesh.extents[:-1])
    assert abs(mesh.column_weights.sum() - area) < 1e-13 * area
    bottom_mass = mesh.column_view(mesh.mass)[:, 0]
    assert np.allclose(bottom_mass / mesh.lumped_1d[-1][0], mesh.column_weights, rtol=1e-14)


@pytest.mark.parametrize("mesh", [
    build_box_mesh((2.0, 1.0), (3, 2), (4, 3), periodicity=(True,)),
    build_box_mesh((1.0, 2.0, 1.5), (2, 3, 2), (2, 3, 4), periodicity=(True, False)),
    build_box_mesh((1.0, 1.0, 1.0), (1, 2, 2), (3, 2, 2), periodicity=(True, True)),
])
def test_element_column_weights(mesh):
    W = mesh.element_column_weights
    nlat = int(np.prod(mesh.elem_counts[:-1]))
    assert W.shape == (nlat, mesh.ncols)
    assert np.allclose(W.sum(axis=0), mesh.column_weights, rtol=1e-14, atol=0.0)
    # row k is the bottom element k; its bottom-level global nodes are
    # the ids of the columns it covers
    area = np.prod(mesh.extents[:-1]) / nlat
    for k in range(nlat):
        support = np.unique(mesh.l2g[k][mesh.l2g[k] < mesh.ncols])
        assert np.array_equal(np.flatnonzero(W[k]), support)
        assert abs(W[k].sum() - area) < 1e-14 * area


def element_loop_l2g_and_coords(mesh):
    """The element-by-element 2D/3D construction that `build_box_mesh`
    used before it broadcast the per-direction 1D maps, kept as an oracle."""
    per_all = mesh.periodic + (False,)
    gmaps, n1d, c1d = [], [], []
    for d in range(mesh.dim):
        ne, N, per = mesh.elem_counts[d], mesh.orders[d], per_all[d]
        n = ne * N if per else ne * N + 1
        gmaps.append((np.arange(ne)[:, None] * N + np.arange(N + 1)[None, :]) % n)
        n1d.append(n)
        h = mesh.extents[d] / ne
        c = np.empty(n)
        for e in range(ne):
            loc = h * (e + 0.5 * (mesh.rules[d].points + 1.0))
            if per and e == ne - 1:
                c[e * N:e * N + N] = loc[:N]
            else:
                c[e * N:e * N + N + 1] = loc
        c1d.append(c)
    ec = mesh.elem_counts
    l2g = np.empty(mesh.l2g.shape, dtype=np.int64)
    if mesh.dim == 2:
        for ez in range(ec[1]):
            for ex in range(ec[0]):
                gg = gmaps[0][ex][None, :] + n1d[0] * gmaps[1][ez][:, None]
                l2g[ex + ec[0] * ez] = gg.ravel()
        coords = np.column_stack([np.tile(c1d[0], n1d[1]), np.repeat(c1d[1], n1d[0])])
    else:
        for ez in range(ec[2]):
            for ey in range(ec[1]):
                for ex in range(ec[0]):
                    gg = (gmaps[0][ex][None, None, :]
                          + n1d[0] * (gmaps[1][ey][None, :, None]
                                      + n1d[1] * gmaps[2][ez][:, None, None]))
                    l2g[ex + ec[0] * (ey + ec[1] * ez)] = gg.ravel()
        coords = np.column_stack([np.tile(c1d[0], n1d[1] * n1d[2]),
                                  np.tile(np.repeat(c1d[1], n1d[0]), n1d[2]),
                                  np.repeat(c1d[2], n1d[0] * n1d[1])])
    return l2g, coords, c1d


@pytest.mark.parametrize("mesh", [
    build_box_mesh((1.0, 1.0), (3, 2), (4, 3)),
    build_box_mesh((50e3, 24e3), (3, 15), (4, 4), periodicity=(True,)),
    build_box_mesh((1.0, 1.0, 1.0), (2, 2, 2), (3, 3, 3)),
    build_box_mesh((2.0, 1.0, 3.0), (3, 2, 4), (2, 4, 3), periodicity=(True, False)),
    build_box_mesh((30e3, 20e3, 24e3), (3, 2, 12), (4, 4, 4), periodicity=(True, True)),
    build_box_mesh((2.0, 1.0), (1, 3), (5, 2), periodicity=(True,)),
])
def test_broadcast_mesh_matches_element_loops(mesh):
    l2g, coords, c1d = element_loop_l2g_and_coords(mesh)
    assert mesh.l2g.dtype == np.int64 and np.array_equal(mesh.l2g, l2g)
    assert mesh.coords.shape == coords.shape and np.array_equal(mesh.coords, coords)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.coords_1d, c1d))
    assert mesh.npts_1d == tuple(c.size for c in c1d)


def test_erfc_is_scipys_bit_for_bit():
    """`_erfc` repeats Cephes' arithmetic, which `scipy.special.erfc`
    runs: the same bits on a fine grid of [-30, 30] (through both
    branches, the erf core below 1 and the underflow to 0 and 2 beyond
    26.6), random points and the special values."""
    rng = np.random.default_rng(3)
    x = np.concatenate((np.linspace(-30.0, 30.0, 120_001), rng.uniform(-9.0, 9.0, 20_000),
                        [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, np.inf, -np.inf, np.nan,
                         np.nextafter(1.0, 0.0), np.nextafter(8.0, 0.0), 5e-324, -5e-324]))
    assert same_bits([_erfc(v) for v in x.tolist()], scipy_erfc(x))


def _transfer_with_scipy(eta):
    """`boyd_vandeven_transfer` as it was written on `scipy.special.erfc`."""
    xbar = np.abs(eta) - 0.5
    sq = 4.0 * xbar * xbar
    inner = np.where((sq > 0.0) & (sq < 1.0), sq, 0.5)
    chi = np.sqrt(-np.log1p(-inner) / inner)
    chi = np.where(np.abs(xbar) < 1e-300, 1.0, chi)
    sigma = 0.5 * scipy_erfc(2.0 * np.sqrt(grid._FILTER_ORDER) * xbar * chi)
    sigma = np.where(np.abs(eta) >= 1.0, 0.0, sigma)
    return np.where(eta == 0.0, 1.0, sigma)


@pytest.mark.parametrize("N", range(1, 17))
def test_transfer_is_unchanged_from_scipy_erfc(N):
    """The filter's mode weights for every basis order are those that
    scipy's erfc gave."""
    eta = np.arange(N + 1) / N
    assert same_bits(boyd_vandeven_transfer(eta), _transfer_with_scipy(eta))


@pytest.mark.parametrize("args, message", [
    (((2.0, 1.0), (4, 3), (3,)), "len(orders) = 1: expected one of 2"),
    (((2.0, 1.0), (4, 3), (3, 3, 3)), "len(orders) = 3: expected one of 2"),
    (((2.0, 1.0), (2.7, 3), 3), "elem_counts[0] = 2.7: expected an integer in [1, inf)"),
    (((2.0, 1.0), (4, 3, 2), 3), "len(elem_counts) = 3: expected one of 2"),
    (((2.0, 1.0), (True, 3), 3), "elem_counts[0] = true: expected an integer in [1, inf)"),
    (((2.0, 1.0), (4, 3), (3, 2.0)), "orders[1] = 2.0: expected an integer in [1, 16]"),
    (((2.0, float("inf")), (4, 3), 3), "extents[1] = inf: expected a number in (0, inf)"),
    (((2.0,), (4,), 3), "len(extents) = 1: expected one of 2, 3"),
], ids=["short_orders", "long_orders", "fractional_count", "long_counts", "bool_count",
        "float_order", "infinite_extent", "1d"])
def test_box_mesh_rejects_each_bad_argument_by_name(args, message):
    """Too few orders used to raise IndexError, a third order of a 2D mesh
    was kept, and an element count of 2.7 was truncated to 2."""
    with pytest.raises(ConfigurationError) as exc:
        build_box_mesh(*args)
    assert str(exc.value) == message


def test_box_mesh_checks_the_periodicity_flags():
    for periodicity, message in (((True, True), "len(periodicity) = 2: expected one of 1"),
                                 ((1,), "periodicity[0] = 1: expected one of false, true")):
        with pytest.raises(ConfigurationError) as exc:
            build_box_mesh((2.0, 1.0), (4, 3), 3, periodicity=periodicity)
        assert str(exc.value) == message


def test_lgl_rejects_an_order_that_is_not_an_integer():
    for order in (4.0, True):
        with pytest.raises(ConfigurationError, match="^LGL order = "):
            build_lgl_rule(order)
