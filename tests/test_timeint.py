import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from mmfsim import timeint
from scipy.linalg.blas import daxpy, dgemv

from mmfsim.cases import build_case
from mmfsim.dynamics import (DEFAULT_CONSTANTS, SpongeConfig, build_reference, evaluate_rhs,
                             sponge_profile)
from mmfsim.errors import ConfigurationError, SolverError
from mmfsim.grid import build_box_mesh
from mmfsim.operators import PrognosticState, SemOps, fixed_order_dot
from mmfsim.timeint import (Ark2Tableau, GmresConfig, ImexOperatorSplit,
                            ark2_tableau, gmres_solve, linear_moisture_rows, linear_operator,
                            solve_implicit, stability_function, step_ark2)

from conftest import isothermal_sounding

TIGHT = GmresConfig(tol=1e-13, restart=30, maxiter=300)


def test_tableau_structure():
    t = ark2_tableau()
    g = 1.0 - 1.0 / math.sqrt(2.0)
    assert abs(t.gamma - g) < 1e-15
    assert abs(t.b.sum() - 1.0) < 1e-15
    assert np.allclose(t.a_implicit[2], t.b)
    # both tables share the abscissae c = (0, 2 gamma, 1)
    assert np.allclose(t.a_explicit.sum(axis=1), [0.0, 2.0 * g, 1.0])
    assert np.allclose(t.a_implicit.sum(axis=1), [0.0, 2.0 * g, 1.0])


def test_tableau_second_order_conditions():
    t = ark2_tableau()
    c = t.c
    # shared b and c make b.1 = 1, b.c = 1/2 cover both tables
    assert abs(float(t.b @ c) - 0.5) < 1e-15
    g = 1.0 - 1.0 / math.sqrt(2.0)
    assert abs(t.a_explicit[1, 0] - 2.0 * g) < 1e-15
    assert abs(t.a_explicit[2, 1] - (3.0 + 2.0 * math.sqrt(2.0)) / 6.0) < 1e-15


def test_tableau_validation():
    t = ark2_tableau()
    bad_b = t.b.copy()
    bad_b[0] += 0.1
    with pytest.raises(ConfigurationError):
        Ark2Tableau(a_explicit=t.a_explicit, a_implicit=t.a_implicit, b=bad_b)


def test_stability_at_origin():
    t = ark2_tableau()
    assert abs(stability_function(t, 0.0) - 1.0) < 1e-15


def test_stability_small_z_expansion():
    t = ark2_tableau()
    for h in (1e-2, 1e-3):
        r = stability_function(t, h)
        assert abs(r - (1.0 + h + 0.5 * h * h)) < 0.25 * h ** 3


def test_stability_damps_stiff_modes():
    t = ark2_tableau()
    assert abs(stability_function(t, -1.0e6)) < 1e-5
    # A-stability along the imaginary axis
    for y in (0.1, 1.0, 10.0, 1e3):
        assert abs(stability_function(t, 1j * y)) <= 1.0 + 1e-12


def test_gmres_matches_dense_solve():
    rng = np.random.default_rng(5)
    n = 40
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal(n)
    x = gmres_solve(lambda v: A @ v, b, GmresConfig(tol=1e-12, restart=20, maxiter=400))
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)


def test_gmres_zero_rhs():
    x = gmres_solve(lambda v: 2.0 * v, np.zeros(7))
    assert np.array_equal(x, np.zeros(7))


def test_gmres_reports_failure_with_residual():
    # an ill-conditioned tridiagonal with a tiny matvec budget cannot
    # reach 1e-14; the error must carry the relative residual
    n = 100
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.ones(n)
    with pytest.raises(SolverError) as exc:
        gmres_solve(lambda v: A @ v, b, GmresConfig(tol=1e-14, restart=5, maxiter=10))
    assert exc.value.residual is not None
    assert 0.0 < exc.value.residual <= 1.0


def test_gmres_survives_aliasing_operator():
    """An operator that mutates and returns its own input buffer must not
    corrupt the Krylov basis."""
    rng = np.random.default_rng(6)
    n = 30
    A = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    buf = np.empty(n)

    def apply_alias(v):
        np.matmul(A, v, out=buf)
        return buf

    b = rng.standard_normal(n)
    x = gmres_solve(apply_alias, b, GmresConfig(tol=1e-12, restart=30, maxiter=300))
    assert np.linalg.norm(A @ x - b) < 1e-10


def _reference_gmres(apply_A, b, config):
    """The allocating MGS GMRES this module's in-place solver must reproduce:
    same iterates, same stopping rule, same true-residual check."""
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    target = config.tol * bnorm
    x = np.zeros_like(b)
    matvecs = 0
    resnorm = bnorm
    while matvecs < config.maxiter:
        r = b - apply_A(x) if matvecs else b.copy()
        resnorm = float(np.linalg.norm(r))
        if resnorm <= target:
            return x
        m = min(config.restart, config.maxiter - matvecs)
        V = np.empty((m + 1, b.size))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = resnorm
        V[0] = r / resnorm
        k_used = 0
        for k in range(m):
            w = np.array(apply_A(V[k]), dtype=float)
            matvecs += 1
            for j in range(k + 1):
                H[j, k] = V[j] @ w
                w -= H[j, k] * V[j]
            H[k + 1, k] = float(np.linalg.norm(w))
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
                H[j, k] = t
            denom = math.hypot(H[k, k], H[k + 1, k])
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            resnorm = abs(g[k + 1])
            happy = H[k + 1, k] <= 1e-14 * max(1.0, abs(H[k, k]))
            if resnorm <= target or happy:
                break
            V[k + 1] = w / H[k + 1, k]
        y = np.linalg.solve(np.triu(H[:k_used, :k_used]), g[:k_used])
        x = x + y @ V[:k_used]
        if resnorm <= target:
            true_res = float(np.linalg.norm(b - apply_A(x)))
            if true_res <= target * (1.0 + 1e-8) or true_res <= resnorm * 1.01 + 1e-300:
                return x
            resnorm = true_res
    raise SolverError("reference GMRES did not converge", residual=resnorm / bnorm)


def _assert_matches_reference(apply_A, b, config):
    counts = []
    for solve in (gmres_solve, _reference_gmres):
        calls = [0]

        def counted(v):
            calls[0] += 1
            return apply_A(v)

        counts.append((solve(counted, b, config), calls[0]))
    (x, n), (x_ref, n_ref) = counts
    assert n == n_ref
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_gmres_matches_reference_on_random_systems():
    # the systems of acceptance check 06, tight and default tolerances
    rng = np.random.default_rng(6)
    for _ in range(5):
        A = 5.0 * np.eye(50) + 0.3 * rng.standard_normal((50, 50))
        b = rng.standard_normal(50)
        for cfg in (GmresConfig(tol=1e-12, restart=50, maxiter=1000), GmresConfig()):
            _assert_matches_reference(lambda v: A @ v, b, cfg)
    # restarts and an early exit on the true-residual check
    A = np.eye(60) + 0.5 * rng.standard_normal((60, 60)) / math.sqrt(60)
    _assert_matches_reference(lambda v: A @ v, rng.standard_normal(60),
                              GmresConfig(tol=1e-10, restart=4, maxiter=400))


def test_gmres_matches_reference_on_squall_ssp_system(monkeypatch):
    """Both implicit solves of one desk squall embedded-grid substep."""
    setup = build_case("squall", "mmf", preset="desk")
    captured = []
    real = timeint.gmres_solve

    def capture(apply_A, b, config=GmresConfig(), **kwargs):
        captured.append((apply_A, np.array(b), config))
        return real(apply_A, b, config, **kwargs)

    monkeypatch.setattr(timeint, "gmres_solve", capture)
    setup.instances[0].sim.step(setup.dt / setup.mmf_config.substeps)
    monkeypatch.undo()
    assert len(captured) == 2
    for apply_A, b, cfg in captured:
        _assert_matches_reference(apply_A, b, cfg)


def _parent_gmres(apply_A, b, config=GmresConfig()):
    """The in-place solver as it was with an array Hessenberg matrix and
    numpy-scalar rotations, a basis of its own and one dot for every
    size: the oracle that the float bookkeeping must reproduce bit for
    bit."""
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    bnorm = math.sqrt(fixed_order_dot(b, b))
    if bnorm == 0.0:
        return x
    target = config.tol * bnorm
    basis = np.empty((config.restart + 1, b.size))

    def residual():
        return np.subtract(b, apply_A(x), out=basis[0])

    matvecs = 0
    resnorm = bnorm
    while matvecs < config.maxiter:
        r = residual() if matvecs else b
        resnorm = math.sqrt(fixed_order_dot(r, r))
        if resnorm <= target:
            return x
        m = min(config.restart, config.maxiter - matvecs)
        V = basis[:m + 1]
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = resnorm
        np.multiply(r, 1.0 / resnorm, out=V[0])
        k_used = 0
        for k in range(m):
            w = timeint._owned(apply_A(V[k]), V)
            matvecs += 1
            for j in range(k + 1):
                H[j, k] = fixed_order_dot(V[j], w)
                daxpy(V[j], w, a=-H[j, k])
            H[k + 1, k] = math.sqrt(fixed_order_dot(w, w))
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -sn[j] * H[j, k] + cs[j] * H[j + 1, k]
                H[j, k] = t
            denom = math.hypot(H[k, k], H[k + 1, k])
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            resnorm = abs(g[k + 1])
            happy = H[k + 1, k] <= 1e-14 * max(1.0, abs(H[k, k]))
            if resnorm <= target or happy:
                break
            np.multiply(w, 1.0 / H[k + 1, k], out=V[k + 1])
        y = np.linalg.solve(np.triu(H[:k_used, :k_used]), g[:k_used])
        dgemv(1.0, V[:k_used].T, y, beta=1.0, y=x, overwrite_y=True)
        if resnorm <= target:
            r = residual()
            true_res = math.sqrt(fixed_order_dot(r, r))
            if true_res <= target * (1.0 + 1e-8) or true_res <= resnorm * 1.01 + 1e-300:
                return x
            resnorm = true_res
    raise SolverError("parent GMRES did not converge", residual=resnorm / bnorm)


def _assert_bits_of_parent(apply_A, b, config):
    """gmres_solve and `_parent_gmres` give the same iterate bits after
    the same matvecs; returns the Arnoldi cycles' matvec count."""
    got = []
    for solve in (gmres_solve, _parent_gmres):
        calls = [0]

        def counted(v):
            calls[0] += 1
            return apply_A(v)

        got.append((solve(counted, b, config), calls[0]))
    (x, n), (x_parent, n_parent) = got
    assert n == n_parent
    assert np.array_equal(x, x_parent)
    return n


def test_gmres_float_bookkeeping_matches_parent_bits_on_random_systems():
    rng = np.random.default_rng(11)
    # restarts, long and short; a vector longer than one dot chunk
    for n, cfg in ((60, GmresConfig(tol=1e-10, restart=4, maxiter=400)),
                   (50, GmresConfig(tol=1e-12, restart=10, maxiter=1000)),
                   (9000, GmresConfig(tol=1e-9, restart=5, maxiter=200))):
        if n > 1000:
            A = sp.eye(n) + 0.4 * sp.random(n, n, density=5.0 / n, random_state=3)
        else:
            A = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / math.sqrt(n)
        assert _assert_bits_of_parent(lambda v: A @ v, rng.standard_normal(n), cfg) > cfg.restart


def test_gmres_float_bookkeeping_matches_parent_bits_at_happy_breakdown():
    """b in a three-dimensional invariant subspace: after three matvecs
    the new Krylov vector's norm is rounding (1.9e-16 against a rotated
    diagonal of 5.3), so the happy-breakdown test holds, and the fourth
    call is the true-residual check."""
    A = np.diag(np.arange(1.0, 31.0))
    b = np.zeros(30)
    b[[2, 11, 25]] = (1.0, -2.0, 0.5)
    assert _assert_bits_of_parent(lambda v: A @ v, b, GmresConfig(tol=1e-13)) == 4


@pytest.mark.parametrize("case", ["squall", "supercell"])
def test_gmres_matches_parent_bits_on_embedded_substep(case, monkeypatch):
    """Both implicit solves of a desk embedded-grid substep."""
    setup = build_case(case, "mmf", preset="desk")
    captured = []
    real = timeint.gmres_solve

    def capture(apply_A, b, config=GmresConfig(), **kwargs):
        captured.append((apply_A, np.array(b), config))
        return real(apply_A, b, config, **kwargs)

    monkeypatch.setattr(timeint, "gmres_solve", capture)
    setup.instances[0].sim.step(setup.dt / setup.substeps)
    monkeypatch.undo()
    assert len(captured) == 2
    for apply_A, b, cfg in captured:
        assert _assert_bits_of_parent(apply_A, b, cfg) > 1


def test_gmres_rejects_a_basis_it_cannot_use_before_any_matvec():
    rng = np.random.default_rng(2)
    A = np.eye(40) + 0.5 * rng.standard_normal((40, 40)) / math.sqrt(40)
    b = rng.standard_normal(40)
    calls = []

    def counted(v):
        calls.append(1)
        return A @ v

    cfg = GmresConfig(tol=1e-12, restart=30)
    for basis, what in ((np.empty((5, 40)), "1240 values"),
                        (np.empty(2 * 31 * 40)[::2], "strided"),
                        (np.empty(31 * 40, dtype=np.float32), "float32")):
        with pytest.raises(ValueError, match=what):
            gmres_solve(counted, b, cfg, basis=basis)
    assert calls == []


def test_full_system_step_rejects_the_coupled_rows_basis():
    """A split that solves every row, handed the plan's basis (sized for
    the coupled rows), fails before any matvec, naming both sizes."""
    setup = build_case("squall", "mmf", preset="desk")
    sim = setup.instances[0].sim
    mesh, ref = sim.mesh, sim.reference
    split = ImexOperatorSplit(s=lambda q: evaluate_rhs(q, ref, mesh),
                              lin=lambda q: linear_operator(q, ref, mesh))
    basis = mesh.plan.basis
    full = sim.state.data.size
    with pytest.raises(ValueError, match=f"{31 * full} values .*{basis.size}"):
        step_ark2(sim.state, setup.dt / setup.substeps, split, basis=basis)


@pytest.mark.parametrize("case", ["squall", "supercell"])
def test_reduced_solve_answers_the_full_system(case, monkeypatch):
    """The implicit solves of a desk squall embedded-grid substep (2D) and
    a desk supercell coarse step (3D) iterate on the coupled rows alone.
    They take the matvecs of the full-system solve, their coupled rows
    agree with its rows and are as close as those to a tight solve, their
    other rows are the substitution b_m + shift (L x)_m exactly, and the
    full-system residual is within the tolerance."""
    setup = build_case(case, "mmf", preset="desk")
    if case == "squall":
        sim, dt = setup.instances[0].sim, setup.dt / setup.mmf_config.substeps
    else:
        sim, dt = setup.simulator, setup.dt
    captured = []
    real = timeint.solve_implicit

    def capture(split, shift, b, *args, **kwargs):
        captured.append((split, shift, b.copy()))
        return real(split, shift, b, *args, **kwargs)

    monkeypatch.setattr(timeint, "solve_implicit", capture)
    sim.step(dt)
    monkeypatch.undo()
    assert len(captured) == 2
    tight = GmresConfig(tol=1e-12, restart=60, maxiter=1000)
    for split, shift, b in captured:
        nc = 2 + b.dim
        assert split.implicit_rows == nc
        full = dataclasses.replace(split, implicit_rows=None, lin_rest=None)
        solves = []
        for sp_, cfg in ((split, GmresConfig()), (full, GmresConfig()), (full, tight)):
            calls = []

            def counted(q, lin=sp_.lin):
                calls.append(1)
                return lin(q)

            x = solve_implicit(dataclasses.replace(sp_, lin=counted), shift, b, cfg)
            solves.append((x, len(calls)))
        (x, n), (x_full, n_full), (x_ref, _) = solves
        assert n == n_full > 1
        # the distance to the tight solve is the error of a tol 1e-6
        # solve, up to tol times the conditioning
        x_c, full_c, ref_c = x.data[:nc], x_full.data[:nc], x_ref.data[:nc]
        assert np.linalg.norm(x_c - full_c) <= 1e-10 * np.linalg.norm(full_c)
        assert np.linalg.norm(x_c - ref_c) <= 1.001 * np.linalg.norm(full_c - ref_c)
        Lx = split.lin(x).data
        assert np.array_equal(x.data[nc:], b.data[nc:] + shift * Lx[nc:])
        residual = b.data - (x.data - shift * Lx)
        assert np.linalg.norm(residual) <= GmresConfig().tol * np.linalg.norm(b.data)


def test_gmres_reuses_one_basis_across_solves():
    """Solves sharing one basis array, with different sizes and restart
    lengths, give the bits of solves with bases of their own; the
    solution lands in `out`, which must be apart from b."""
    rng = np.random.default_rng(5)
    systems = []
    for n, restart in ((60, 4), (40, 30), (60, 10)):
        A = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / math.sqrt(n)
        systems.append((A, rng.standard_normal(n), GmresConfig(tol=1e-10, restart=restart)))
    basis = np.empty(max((cfg.restart + 1) * b.size for _, b, cfg in systems))
    for A, b, cfg in systems:
        out = np.full_like(b, np.nan)
        assert gmres_solve(lambda v: A @ v, b, cfg, basis=basis, out=out) is out
        assert np.array_equal(out, gmres_solve(lambda v: A @ v, b, cfg))
    with pytest.raises(ValueError):
        gmres_solve(lambda v: A @ v, b, cfg, out=b)


@pytest.mark.parametrize("view", [lambda v: v, lambda v: v[::-1]])
def test_gmres_operator_returning_a_view_of_its_input(view):
    """The in-place orthogonalization must not write through an operator
    result that is (a view of) the Krylov vector it was given."""
    b = np.random.default_rng(7).standard_normal(25)
    x = gmres_solve(view, b, GmresConfig(tol=1e-12))
    assert np.allclose(view(x), b, rtol=0.0, atol=1e-12)


def test_gmres_copies_a_basis_aliasing_result_on_a_later_matvec():
    """The sharing test runs once per distinct result array, so a result
    that aliases the Krylov basis, returned after the operator's own
    buffer, is still copied: GMRES does not write into it, and the
    solution has the bits of an operator that returns fresh arrays. The
    aliasing results are basis rows that this cycle has not reached."""
    rng = np.random.default_rng(8)
    n, cfg = 40, GmresConfig(tol=1e-12, restart=20)
    A = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal(n)
    basis = np.empty((cfg.restart + 1) * n)
    rows, start = basis.reshape(-1, n), basis.__array_interface__["data"][0]
    buf, returned = np.empty(n), []

    def aliasing(v):
        if returned and returned[-1][0] is not buf:
            row, values = returned[-1]
            assert np.array_equal(row, values), "GMRES wrote into a basis-aliasing result"
        i = (v.__array_interface__["data"][0] - start) // (8 * n)
        if len(returned) < 2 or not np.shares_memory(v, basis) or i + 2 > cfg.restart:
            np.matmul(A, v, out=buf)
            returned.append((buf, None))
            return buf
        np.matmul(A, v, out=rows[i + 2])
        returned.append((rows[i + 2], rows[i + 2].copy()))
        return rows[i + 2]

    x = gmres_solve(aliasing, b, cfg, basis=basis)
    assert sum(r is not buf for r, _ in returned) > 3
    assert np.array_equal(x, gmres_solve(lambda v: A @ v, b, cfg))


@pytest.fixture(scope="module")
def dense_case():
    """A small 2D mesh whose reference has vapor and a sponge, the
    matrix of L on the flat state assembled from unit increments, and a
    random right-hand side."""
    snd = isothermal_sounding()
    snd = dataclasses.replace(snd, qv=0.014 * np.exp(-snd.z / 2500.0))
    mesh = build_box_mesh((12e3, 10e3), (2, 4), (3, 3), periodicity=(True,))
    ref = build_reference(snd, mesh, DEFAULT_CONSTANTS, SpongeConfig(6e3, 10e3, 0.25))
    size = (5 + mesh.dim) * mesh.npts
    L = np.stack([linear_operator(PrognosticState.from_vector(e, mesh.dim), ref, mesh).as_vector()
                  for e in np.eye(size)], axis=1)
    b = PrognosticState.from_vector(np.random.default_rng(4).standard_normal(size), mesh.dim)
    return mesh, ref, L, b


def _implicit_split(mesh, ref, reduced):
    if not reduced:
        return ImexOperatorSplit(s=abs, lin=lambda q: linear_operator(q, ref, mesh))
    return ImexOperatorSplit(s=abs, lin=lambda q: linear_operator(q, ref, mesh),
                             implicit_rows=2 + mesh.dim,
                             lin_rest=lambda q, out: linear_moisture_rows(q.u[-1], ref, out))


@pytest.mark.parametrize("reduced", [False, True], ids=["full_state", "implicit_rows"])
def test_solve_implicit_matches_a_dense_solve(dense_case, reduced):
    """The shifted-system solve gives the x of (I - shift L) x = b that a
    dense solve of the assembled matrix gives, on the full-state path and
    on the coupled rows with the moisture rows by substitution."""
    mesh, ref, L, b = dense_case
    shift = 0.5 * ark2_tableau().gamma
    expect = np.linalg.solve(np.eye(len(L)) - shift * L, b.as_vector())
    x = solve_implicit(_implicit_split(mesh, ref, reduced), shift, b,
                       GmresConfig(tol=1e-12, restart=100, maxiter=2000))
    assert np.linalg.norm(x.as_vector() - expect) <= 1e-9 * np.linalg.norm(expect)


@pytest.mark.parametrize("shift", [0.0, -0.5, math.nan, math.inf])
def test_solve_implicit_checks_its_shift(dense_case, shift):
    mesh, ref, _, b = dense_case
    with pytest.raises(ConfigurationError, match="^implicit shift = "):
        solve_implicit(_implicit_split(mesh, ref, True), shift, b)


def test_gmres_config_validation():
    with pytest.raises(ConfigurationError):
        GmresConfig(tol=0.0)
    with pytest.raises(ConfigurationError):
        GmresConfig(restart=0)


def _scalar_split(lam, delta=1):
    def tend(st):
        v = st.as_vector()
        return PrognosticState.from_vector(lam * v, st.dim)
    return ImexOperatorSplit(s=tend, lin=tend, delta=delta)


def _one_point_state(value=1.0):
    st = PrognosticState(np.array([value]), np.array([[value], [value]]),
                         np.array([value]), np.array([value]),
                         np.array([value]), np.array([value]))
    return st


def test_step_matches_stability_function():
    """For dq/dt = lambda q with S = L the step IS R(lambda dt)."""
    t = ark2_tableau()
    for lam, dt in ((-3.0, 0.25), (-40.0, 0.1), (-0.7, 1.0)):
        out = step_ark2(_one_point_state(1.0), dt, _scalar_split(lam), TIGHT)
        expect = float(stability_function(t, lam * dt).real)
        assert np.max(np.abs(out.as_vector() - expect)) < 1e-12


def test_explicit_delta_zero_path():
    # purely explicit: q1 = q0 (1 + z b^T (I + z A_e 1-ish)); just check
    # it reproduces the classical 3-stage explicit update of the table
    lam, dt = -1.5, 0.1
    t = ark2_tableau()
    z = lam * dt
    k = np.zeros(3)
    for i in range(3):
        k[i] = lam * (1.0 + dt * float(t.a_explicit[i, :i] @ k[:i]))
    expect = 1.0 + dt * float(t.b @ k)
    out = step_ark2(_one_point_state(1.0), dt, _scalar_split(lam, delta=0))
    assert np.max(np.abs(out.as_vector() - expect)) < 1e-14


def test_zero_linear_operator_matches_explicit():
    lam, dt = -2.0, 0.05

    def tend(st):
        return PrognosticState.from_vector(lam * st.as_vector(), st.dim)

    def zero(st):
        return PrognosticState.from_vector(0.0 * st.as_vector(), st.dim)

    a = step_ark2(_one_point_state(0.7), dt,
                  ImexOperatorSplit(s=tend, lin=zero, delta=1), TIGHT)
    b = step_ark2(_one_point_state(0.7), dt,
                  ImexOperatorSplit(s=tend, lin=tend, delta=0))
    assert np.max(np.abs(a.as_vector() - b.as_vector())) < 1e-13


def test_constant_coupling_enters_linearly():
    dt = 0.2

    def zero(st):
        return PrognosticState.from_vector(0.0 * st.as_vector(), st.dim)

    forcing = _one_point_state(2.5)
    out = step_ark2(_one_point_state(1.0), dt,
                    ImexOperatorSplit(s=zero, lin=zero, delta=0, coupling=forcing))
    # with no dynamics a constant source integrates exactly: q + dt*c
    assert np.max(np.abs(out.as_vector() - (1.0 + dt * 2.5))) < 1e-14


def test_step_with_aliasing_split_matches_copying_split():
    """S and L that return views of their input, or one buffer that both
    overwrite on every call, must neither be written through nor change
    the step: the result equals, bit for bit, that of a split whose
    tendencies are fresh copies."""
    rng = np.random.default_rng(9)
    n = 40
    state = PrognosticState.from_vector(rng.standard_normal(7 * n), 2)
    before = state.data.copy()
    coupling = PrognosticState.from_vector(rng.standard_normal(7 * n), 2)
    buf = PrognosticState.from_vector(np.empty(7 * n), 2)

    def buffered(scale):
        def tend(st):
            np.multiply(st.data, scale, out=buf.data)
            return buf
        return tend

    splits = {
        "view": (lambda st: st, lambda st: st),
        "copy": (lambda st: st.copy(), lambda st: st.copy()),
        "copy, halved L": (lambda st: st.copy(),
                           lambda st: PrognosticState.from_vector(0.5 * st.data, 2)),
        "buffer, halved L": (buffered(1.0), buffered(0.5)),
    }
    out = {}
    for name, (s, lin) in splits.items():
        for delta in (0, 1):
            split = ImexOperatorSplit(s=s, lin=lin, delta=delta, coupling=coupling)
            out[name, delta] = step_ark2(state, 0.3, split, TIGHT).data
            assert np.array_equal(state.data, before)
    for delta in (0, 1):
        assert np.array_equal(out["view", delta], out["copy", delta])
        assert np.array_equal(out["buffer, halved L", delta], out["copy, halved L", delta])


def test_step_rejects_bad_dt():
    with pytest.raises(ConfigurationError):
        step_ark2(_one_point_state(), 0.0, _scalar_split(-1.0))


def test_linear_operator_is_linear(small_mesh, small_reference):
    rng = np.random.default_rng(8)
    n = small_mesh.npts

    def rand_state():
        return PrognosticState(rng.standard_normal(n), rng.standard_normal((2, n)),
                               rng.standard_normal(n), rng.standard_normal(n),
                               rng.standard_normal(n), rng.standard_normal(n))

    q1, q2 = rand_state(), rand_state()
    a, b = 1.7, -0.4
    mix = PrognosticState.from_vector(a * q1.as_vector() + b * q2.as_vector(), 2)
    lhs = linear_operator(mix, small_reference, small_mesh).as_vector()
    rhs = (a * linear_operator(q1, small_reference, small_mesh).as_vector()
           + b * linear_operator(q2, small_reference, small_mesh).as_vector())
    scale = np.max(np.abs(lhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


# (extents, elements, orders, lateral periodicity) of the operator meshes
OPERATOR_MESHES = {
    "2d_periodic": ((50e3, 24e3), (3, 15), (4, 4), (True,)),
    "3d_periodic": ((30e3, 20e3, 24e3), (3, 2, 4), (3, 3, 3), (True, True)),
    "3d_mixed": ((30e3, 20e3, 24e3), (3, 2, 4), (4, 3, 2), (True, False)),
}


def test_linear_operator_moisture_rows():
    """On each operator mesh, L reads only the coupled rows (rho', u,
    theta_v'), and its other rows are -w dq_v0/dz, 0 and 0: the block
    structure that lets the implicit solves iterate on the coupled rows
    alone."""
    snd = isothermal_sounding()
    snd = dataclasses.replace(snd, qv=0.014 * np.exp(-snd.z / 2500.0))
    rng = np.random.default_rng(12)
    for extents, elems, orders, periodic in OPERATOR_MESHES.values():
        mesh = build_box_mesh(extents, elems, orders, periodicity=periodic)
        ref = build_reference(snd, mesh, DEFAULT_CONSTANTS,
                              SpongeConfig(extents[-1] - 6e3, extents[-1], 0.25))
        assert np.any(ref.dq_v0_dz != 0.0)
        nc = 2 + mesh.dim
        q = PrognosticState.from_vector(rng.standard_normal((5 + mesh.dim) * mesh.npts),
                                        mesh.dim)
        L = linear_operator(q, ref, mesh)
        assert np.array_equal(L.q_vp, -q.u[-1] * ref.dq_v0_dz)
        assert np.all(L.q_c == 0.0)
        assert np.all(L.q_r == 0.0)
        assert np.all(L.u[-1][mesh.bottom_nodes] == 0.0)
        assert np.all(L.u[-1][mesh.top_nodes] == 0.0)
        for fill in (rng.standard_normal((3, mesh.npts)), np.nan):
            other = q.copy()
            other.data[nc:] = fill
            assert np.array_equal(linear_operator(other, ref, mesh).data[:nc],
                                  L.data[:nc])
        # the coupled rows alone give the coupled rows of L, and only those
        out = np.full((nc, mesh.npts), np.nan)
        assert linear_operator(q.data[:nc].copy(), ref, mesh, out=out) is out
        assert np.array_equal(out, L.data[:nc])


@pytest.fixture(scope="module",
                params=[(m, s) for m in OPERATOR_MESHES for s in (False, True)],
                ids=lambda p: f"{p[0]}-{'sponge' if p[1] else 'nosponge'}")
def operator_case(request):
    """(mesh, reference with or without a sponge, the sponge profile on
    every node or None, random increment)."""
    name, sponge = request.param
    extents, elems, orders, periodic = OPERATOR_MESHES[name]
    mesh = build_box_mesh(extents, elems, orders, periodicity=periodic)
    z_top = extents[-1]
    cfg = SpongeConfig(z_top - 6e3, z_top, 0.25) if sponge else None
    ref = build_reference(isothermal_sounding(), mesh, DEFAULT_CONSTANTS, sponge=cfg)
    rw = sponge_profile(mesh.coords[:, -1], cfg) if sponge else None
    rng = np.random.default_rng(len(name) + 10 * sponge)
    q = PrognosticState.from_vector(rng.standard_normal((5 + mesh.dim) * mesh.npts), mesh.dim)
    return mesh, ref, rw, q


def _separate_calls_operator(q, ref, mesh, sponge_rw):
    """L as separate gradient and divergence calls, row by row, in the
    fused operator's order on the reference's coefficient rows: the
    expressions it must reproduce bit for bit. Negating the summed
    divergence equals subtracting each direction's term from the first
    one's negation, bit for bit."""
    ops, rho0 = SemOps(mesh), ref.rho0
    p_lin = ref.gamma_p0_rho0 * q.rho_p + ref.gamma_p0_theta_v0 * q.theta_vp
    d_rho = -ops.div(rho0 * q.u)
    du = ops.grad(p_lin) * ref.neg_inv_rho0
    w = q.u[-1]
    du[-1] += ref.neg_g_rho0 * q.rho_p
    if sponge_rw is not None:
        du[-1] -= sponge_rw * w
    du[-1][mesh.bottom_nodes] = 0.0
    du[-1][mesh.top_nodes] = 0.0
    zero = np.zeros_like(d_rho)
    return PrognosticState(rho_p=d_rho, u=du, theta_vp=-w * ref.dtheta_v0_dz,
                           q_vp=-w * ref.dq_v0_dz, q_c=zero, q_r=zero)


def _assembled_operator(ref, mesh, sponge_rw):
    """L as one sparse matrix on the flat state, from Kronecker products
    of the 1D weak derivatives (x runs fastest in a field)."""
    c, n1d, dim, n = DEFAULT_CONSTANTS, mesh.npts_1d, mesh.dim, mesh.npts
    G = [sp.kron(sp.kron(sp.identity(math.prod(n1d[d + 1:])), D),
                 sp.identity(math.prod(n1d[:d])))
         for d, D in enumerate(mesh.weak_derivative_1d)]
    gam, diag = c.c_p / c.c_v, sp.diags
    blocks = [[sp.csr_matrix((n, n)) for _ in range(5 + dim)] for _ in range(5 + dim)]
    for d in range(dim):
        blocks[0][1 + d] = -G[d] @ diag(ref.rho0)
        blocks[1 + d][0] = -diag(1.0 / ref.rho0) @ G[d] @ diag(gam * ref.p0 / ref.rho0)
        blocks[1 + d][-4] = -diag(1.0 / ref.rho0) @ G[d] @ diag(gam * ref.p0 / ref.theta_v0)
    blocks[dim][0] = blocks[dim][0] - diag(c.g / ref.rho0)
    if sponge_rw is not None:
        blocks[dim][dim] = -diag(sponge_rw)
    interior = np.ones(n)
    interior[mesh.bottom_nodes] = 0.0
    interior[mesh.top_nodes] = 0.0
    blocks[dim] = [diag(interior) @ b for b in blocks[dim]]
    blocks[-4][dim] = -diag(ref.dtheta_v0_dz)
    blocks[-3][dim] = -diag(ref.dq_v0_dz)
    return sp.bmat(blocks, format="csr")


def test_linear_operator_matches_separate_calls_bit_for_bit(operator_case):
    mesh, ref, rw, q = operator_case
    got = linear_operator(q, ref, mesh)
    assert np.array_equal(got.data, _separate_calls_operator(q, ref, mesh, rw).data)
    out = PrognosticState.zeros(mesh)
    assert linear_operator(q, ref, mesh, out=out) is out
    assert np.array_equal(out.data, got.data)


@pytest.mark.parametrize("name", OPERATOR_MESHES)
def test_reference_operator_rows_match_their_formulas(name):
    """The rows L multiplies by are its formulas on the broadcast
    reference, to rounding, and constant within each level."""
    extents, elems, orders, periodic = OPERATOR_MESHES[name]
    mesh = build_box_mesh(extents, elems, orders, periodicity=periodic)
    c = DEFAULT_CONSTANTS
    ref = build_reference(isothermal_sounding(), mesh, c)
    gam = c.c_p / c.c_v
    for row, expect in ((ref.gamma_p0_rho0, gam * ref.p0 / ref.rho0),
                        (ref.gamma_p0_theta_v0, gam * ref.p0 / ref.theta_v0),
                        (ref.neg_inv_rho0, -1.0 / ref.rho0),
                        (ref.neg_g_rho0, -c.g / ref.rho0)):
        assert row.shape == (mesh.npts,)
        assert np.max(np.abs(row - expect)) <= 1e-15 * np.max(np.abs(expect))
        levels = row.reshape(mesh.npts_1d[-1], -1)
        assert np.all(levels == levels[:, :1])
    assert ref.constants is c


def test_linear_operator_rejects_constants_unlike_the_reference(operator_case):
    """gamma and g come from the reference, so other c_p, c_v or g must
    fail loudly; nu does not enter L."""
    mesh, ref, rw, q = operator_case
    C = DEFAULT_CONSTANTS
    expect = linear_operator(q, ref, mesh).data
    for same in (C, C.with_nu(150.0)):
        assert np.array_equal(linear_operator(q, ref, mesh, same).data, expect)
    for other in (dataclasses.replace(C, g=9.8), dataclasses.replace(C, c_p=1005.0),
                  dataclasses.replace(C, R_d=287.05)):
        with pytest.raises(ConfigurationError, match="c_p, c_v or g"):
            linear_operator(q, ref, mesh, other)


def test_linear_operator_matches_assembled_matrix(operator_case):
    mesh, ref, rw, q = operator_case
    got = linear_operator(q, ref, mesh).data
    expect = (_assembled_operator(ref, mesh, rw) @ q.as_vector()).reshape(got.shape)
    for row_got, row_expect in zip(got, expect):
        scale = np.max(np.abs(row_expect))
        if scale == 0.0:
            assert np.all(row_got == 0.0)
        else:
            assert np.max(np.abs(row_got - row_expect)) <= 1e-14 * scale


def test_linear_operator_leaves_its_input_alone(operator_case):
    mesh, ref, rw, q = operator_case
    before = q.data.copy()
    got = linear_operator(q, ref, mesh)
    assert not np.shares_memory(got.data, q.data)
    assert np.array_equal(q.data, before)


@pytest.mark.parametrize("field, value", [("restart", 2.5), ("maxiter", 0), ("tol", 1.0),
                                          ("restart", True)])
def test_gmres_config_is_checked(field, value):
    """A fractional restart used to be accepted."""
    with pytest.raises(ConfigurationError, match=f"^GmresConfig.{field} = "):
        GmresConfig(**{field: value})
