import math

import numpy as np
import pytest

from semistab.geometry import (
    BoundaryFrame,
    BoundaryProfile,
    MongeSurface,
    boundary_lyapunov,
    coarea_check,
    frame,
    fundamental_forms,
    gram_det_two_ways,
    level_set_density,
    make_polynomial_surface,
    make_surface,
    offset_jacobian,
    signed_distance,
    weingarten_identity_check,
)

PARABOLA = make_surface("parabola")
PARABOLOID = make_surface("paraboloid")
FLAT_IN = make_surface("flat", epsilon=-1)
PARABOLA_IN = make_surface("parabola", epsilon=-1)


def test_frame_parabola_vertex_and_slope():
    fr = frame(PARABOLA, [0.0])
    np.testing.assert_allclose(fr.N, [0.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(fr.T, [[1.0, 0.0]], atol=1e-14)
    assert fr.g[0, 0] == pytest.approx(1.0)

    fr = frame(PARABOLA, [1.0])
    assert fr.g[0, 0] == pytest.approx(5.0)
    np.testing.assert_allclose(fr.N, np.array([2.0, -1.0]) / math.sqrt(5), atol=1e-14)


def test_frame_paraboloid_metric():
    fr = frame(PARABOLOID, [1.0, 0.0])
    np.testing.assert_allclose(fr.g, [[5.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_frame_invariants_random_points():
    rng = np.random.default_rng(0)
    for surf in (PARABOLA, PARABOLOID):
        for _ in range(1000):
            th = rng.uniform(-1.9, 1.9, size=surf.chart_dim)
            fr = frame(surf, th)
            assert abs(np.linalg.norm(fr.N) - 1) < 1e-10
            assert np.abs(fr.T @ fr.N).max() < 1e-10
            a, b = gram_det_two_ways(surf, th)
            assert a == pytest.approx(b, abs=1e-10)


def test_fundamental_forms_closed_values():
    assert fundamental_forms(PARABOLA, [0.0]).W[0, 0] == pytest.approx(-2.0)
    assert fundamental_forms(PARABOLA, [1.0]).W[0, 0] == pytest.approx(
        -2.0 / 5 ** 1.5
    )
    W = fundamental_forms(PARABOLOID, [0.0, 0.0]).W
    np.testing.assert_allclose(W, -2.0 * np.eye(2), atol=1e-12)


def test_orientation_flip_changes_signs_only():
    ff1 = fundamental_forms(PARABOLA, [0.7])
    ff2 = fundamental_forms(PARABOLA_IN, [0.7])
    np.testing.assert_allclose(ff2.N, -ff1.N, atol=1e-14)
    np.testing.assert_allclose(ff2.W, -ff1.W, atol=1e-14)
    np.testing.assert_allclose(ff2.g, ff1.g, atol=1e-14)


def test_weingarten_identity():
    plane = make_polynomial_surface([0.5, 0.3], (-3, 3), name="plane")
    assert weingarten_identity_check(plane, [0.4]) < 1e-12
    assert np.abs(fundamental_forms(plane, [0.4]).W).max() < 1e-12
    assert weingarten_identity_check(PARABOLA, [0.7]) < 1e-5
    assert weingarten_identity_check(PARABOLOID, [0.5, -0.3]) < 1e-5


def test_weingarten_identity_many_random_points():
    rng = np.random.default_rng(1)
    for surf in (PARABOLA, PARABOLOID):
        for _ in range(100):
            th = rng.uniform(-1.8, 1.8, size=surf.chart_dim)
            assert weingarten_identity_check(surf, th) < 1e-5


def test_offset_jacobian_values():
    assert offset_jacobian(PARABOLA, [0.0], 0.0) == pytest.approx(1.0)
    assert offset_jacobian(PARABOLA, [0.0], 0.1) == pytest.approx(1.2)
    assert offset_jacobian(PARABOLOID, [0.0, 0.0], 0.1) == pytest.approx(1.44)


def test_offset_jacobian_log_derivative_is_trace():
    h = 1e-6
    for surf, th in ((PARABOLA, [0.6]), (PARABOLOID, [0.3, -0.2])):
        ff = fundamental_forms(surf, th)
        lo = math.log(offset_jacobian(surf, th, -h))
        hi = math.log(offset_jacobian(surf, th, h))
        dlog = (hi - lo) / (2 * h)
        assert dlog == pytest.approx(-float(np.trace(ff.W)), abs=1e-6)


def test_offset_jacobian_focal_rejection():
    # curvature -2 at the vertex: focal distance 0.5 on the center side
    with pytest.raises(ValueError):
        offset_jacobian(PARABOLA, [0.0], -0.6)
    assert offset_jacobian(PARABOLA, [0.0], -0.4) > 0


def test_signed_distance_flat():
    res = signed_distance(FLAT_IN, [0.3, 0.7], tube_alpha=2.0)
    assert res.d == pytest.approx(0.7, abs=1e-10)
    assert res.foot_theta[0] == pytest.approx(0.3, abs=1e-10)
    assert res.roundtrip_error < 1e-8


def test_signed_distance_parabola():
    # (0, 0.5) is the focal point of the parabola: the objective is
    # quartic-flat there, so the foot tolerance is looser than d itself
    res = signed_distance(PARABOLA_IN, [0.0, 0.5], tube_alpha=2.0)
    assert res.d == pytest.approx(0.5, abs=1e-9)
    assert abs(res.foot_theta[0]) < 1e-4
    # a surface point projects to itself with zero distance
    on = PARABOLA_IN.embed([0.8])
    res = signed_distance(PARABOLA_IN, on, tube_alpha=2.0)
    assert abs(res.d) < 1e-9
    # orientation flip flips the sign of d
    res_out = signed_distance(PARABOLA, [0.0, 0.5], tube_alpha=2.0)
    assert res_out.d == pytest.approx(-0.5, abs=1e-9)


def test_signed_distance_rejections():
    with pytest.raises(ValueError):
        signed_distance(FLAT_IN, [0.3, 1.5], tube_alpha=1.0)  # outside tube
    with pytest.raises(ValueError):
        # projection foot at the chart edge
        signed_distance(PARABOLA_IN, [5.0, 25.0], tube_alpha=100.0)


def test_signed_distance_roundtrip_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        th = rng.uniform(-1.5, 1.5)
        u = rng.uniform(-0.2, 0.2)
        fr = frame(PARABOLA_IN, [th])
        x = PARABOLA_IN.embed([th]) + u * fr.N
        res = signed_distance(PARABOLA_IN, x, tube_alpha=0.5)
        assert res.d == pytest.approx(u, abs=1e-8)
        assert res.roundtrip_error <= 1e-8


def test_coarea_flat_strip():
    flat = make_surface("flat", epsilon=-1)
    rep = coarea_check(flat, lambda r: 1.0, alpha=0.5, n_r=16, n_theta=32)
    length = 16.0  # chart (-8, 8)
    assert rep.tube_integral == pytest.approx(0.5 * length, rel=1e-12)
    assert rep.iterated_integral == pytest.approx(0.5 * length, rel=1e-12)
    assert rep.ok


def test_coarea_parabola_singular_profile():
    rep = coarea_check(PARABOLA_IN, lambda r: r ** -0.5, alpha=0.2)
    assert rep.ok
    assert rep.rel_gap <= 1e-3
    assert rep.alpha_used == 0.2


def test_coarea_shrinks_alpha_at_focal_crossing():
    # offsets toward the center of curvature hit the focal point at 0.5
    rep = coarea_check(PARABOLA_IN, lambda r: 1.0, alpha=0.8, n_r=8, n_theta=16)
    assert rep.alpha_used < 0.8


def test_profile_finiteness():
    prof = BoundaryProfile(0.5, alpha=0.2)
    assert prof.chi_bar() == pytest.approx(0.2 ** 0.5 / 0.5)
    assert prof.chi(0.5) == pytest.approx(2 ** 0.5)
    with pytest.raises(ValueError):
        BoundaryProfile(1.5)


def test_level_set_density_flat_gaussian():
    flat = make_surface("flat", epsilon=-1)
    kernel = {"c_t": 1.0 / (2 * math.pi), "sigma_t": 1.0, "m_t": lambda x: x}
    res = level_set_density(kernel, flat, x=[0.0, 1.0], r=0.0, alpha=0.3)
    expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert res.value == pytest.approx(expected, rel=1e-6)
    assert res.ok


def test_level_set_density_far_field_and_bound():
    kernel = {"c_t": 1.0 / (2 * math.pi), "sigma_t": 1.0, "m_t": lambda x: x}
    far = level_set_density(kernel, FLAT_IN, x=[0.0, 9.0], r=0.0, alpha=0.3)
    assert far.value < 1e-10
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = [rng.uniform(-2, 2), rng.uniform(0.3, 3.0)]
        r = rng.uniform(0.0, 0.2)
        res = level_set_density(kernel, PARABOLA_IN, x=x, r=r, alpha=0.25,
                                n_theta=32)
        assert res.ok


def test_boundary_lyapunov_interval():
    prof = BoundaryProfile(0.5)
    assert boundary_lyapunov(prof, (0.0, 1.0), 0.5) == pytest.approx(math.sqrt(2))
    vals = [boundary_lyapunov(prof, (0.0, 1.0), x) for x in (0.4, 0.2, 0.05, 0.01)]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # blows up at the edge


def test_boundary_lyapunov_dirichlet_drift():
    from semistab.kernels import DirichletHeat, discretize

    prof = BoundaryProfile(0.5)
    d = DirichletHeat(50)
    g = d.default_grid(200)
    K = discretize(d, g, 0.5)
    v = np.array([boundary_lyapunov(prof, (0.0, 1.0), x) for x in g.points])
    qv = K.matrix @ v
    c_t = qv.max()
    assert np.isfinite(c_t)
    # Q V_b <= c_t pointwise, so Q(V_b)/V_b <= c_t / V_b decays at the edges
    k = g.size // 20
    assert max(qv[:k].max(), qv[-k:].max()) < c_t


def test_alternate_chart_consistency():
    charts = make_surface("graph_example_8_4")
    psi0 = charts["psi0"]
    # same geometric point x = (theta, theta^2) described in psi0 and in the
    # swapped-axis charts; shape eigenvalues agree in absolute value
    for theta in (1.2, 1.5, 1.9):
        w0 = fundamental_forms(psi0, [theta]).W[0, 0]
        assert w0 == pytest.approx(-2.0 * (1 + 4 * theta**2) ** -1.5, abs=1e-12)
        side = charts["psi_minus"] if theta > 0 else charts["psi_plus"]
        w1 = fundamental_forms(side, [theta**2]).W[0, 0]
        assert abs(w1) == pytest.approx(abs(w0), abs=1e-8)
        # and the two charts embed the same ambient point
        np.testing.assert_allclose(
            side.embed([theta**2]), psi0.embed([theta]), atol=1e-12
        )


def test_chart_domain_enforced():
    with pytest.raises(ValueError):
        frame(PARABOLA, [2.5])


def _counted(surface):
    """The surface with every chart callback recording the stacks it gets."""
    calls = {"phi": [], "grad": [], "hess": []}

    def wrap(name):
        def f(th):
            calls[name].append(th.shape)
            return getattr(surface, name)(th)
        return f

    counted = MongeSurface(**{**surface.__dict__, **{k: wrap(k) for k in calls}})
    return counted, calls


def test_coarea_evaluates_the_forms_once_per_chart_node():
    surf, calls = _counted(PARABOLA_IN)
    coarea_check(surf, lambda r: r ** -0.5, alpha=0.2, n_r=16, n_theta=24)
    # one stack of the 24 midpoint nodes per callback
    assert calls == {"phi": [(24, 1)], "grad": [(24, 1)], "hess": [(24, 1)]}


def _reference_nodes(surface, n_theta):
    steps = [(hi - lo) / n_theta for lo, hi in surface.chart_domain]
    axes = [lo + (np.arange(n_theta) + 0.5) * h
            for (lo, _), h in zip(surface.chart_domain, steps)]
    if surface.chart_dim == 1:
        return [np.array([t]) for t in axes[0]], steps[0]
    return [np.array([a, b]) for a in axes[0] for b in axes[1]], steps[0] * steps[1]


def _reference_coarea(surface, f, alpha, n_r, n_theta):
    """Per-node loop: every offset Jacobian and focal test one node at a time."""
    nodes, w = _reference_nodes(surface, n_theta)
    forms = [fundamental_forms(surface, th) for th in nodes]
    eye = np.eye(surface.chart_dim)

    def crosses(W, u):
        lam = np.linalg.eigvals(W)
        lam = lam.real[(np.abs(lam.imag) <= 1e-12) & (lam.real != 0)]
        return any(u / l > 0 and abs(1 / l) <= abs(u) for l in lam)

    a = alpha
    for _ in range(20):
        if not any(crosses(ff.W, a) for ff in forms):
            break
        a *= 0.5

    def radial(s):
        u = s * s
        area = 0.0
        for ff in forms:
            area += abs(float(np.linalg.det(eye - u * ff.W))) * math.sqrt(
                float(np.linalg.det(ff.g))) * w
        return 2.0 * s * float(f(u)) * area

    hs = math.sqrt(a) / n_r
    route1 = sum(radial((k + 0.5) * hs) * hs for k in range(n_r))
    hg, xi = math.sqrt(a) / (2 * n_r), 0.5 / math.sqrt(3.0)
    route2 = sum(0.5 * hg * (radial((k + 0.5 - xi) * hg) + radial((k + 0.5 + xi) * hg))
                 for k in range(2 * n_r))
    return route1, route2, a


@pytest.mark.parametrize("surface, f, alpha, n_r, n_theta", [
    (PARABOLA_IN, lambda r: r ** -0.5, 0.2, 16, 24),
    (PARABOLA, lambda r: r ** -0.5, 0.3, 8, 16),
    (PARABOLA_IN, lambda r: 1.0, 0.8, 8, 16),            # focal shrink
    (make_surface("paraboloid", epsilon=-1), lambda r: r ** -0.5, 0.2, 6, 12),
    (make_surface("paraboloid", epsilon=-1), lambda r: r ** -0.5, 0.9, 4, 8),  # focal
])
def test_coarea_matches_a_per_node_loop(surface, f, alpha, n_r, n_theta):
    rep = coarea_check(surface, f, alpha=alpha, n_r=n_r, n_theta=n_theta)
    route1, route2, a = _reference_coarea(surface, f, alpha, n_r, n_theta)
    assert rep.alpha_used == a
    assert (a < alpha) == (alpha in (0.8, 0.9))
    assert rep.tube_integral == pytest.approx(route1, rel=1e-12)
    assert rep.iterated_integral == pytest.approx(route2, rel=1e-12)
    # rel_gap is itself a relative quantity: ulps of the routes move it by ~1e-16
    assert rep.rel_gap == pytest.approx(abs(route1 - route2) / route2, abs=1e-12)


def test_level_set_density_matches_a_per_node_loop():
    kernel = {"c_t": 1.0 / (2 * math.pi), "sigma_t": 1.0, "m_t": lambda x: x}
    eye = np.eye(1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = np.array([rng.uniform(-2, 2), rng.uniform(0.3, 3.0)])
        r, alpha = rng.uniform(0.0, 0.2), 0.25
        res = level_set_density(kernel, PARABOLA_IN, x=x, r=r, alpha=alpha,
                                n_theta=32)
        prev, n_cur = None, 32
        while True:
            nodes, w = _reference_nodes(PARABOLA_IN, n_cur)
            total = kappa = kappa_minus = 0.0
            for th in nodes:
                ff = fundamental_forms(PARABOLA_IN, th)
                y = PARABOLA_IN.embed(th) + r * ff.N
                q = kernel["c_t"] * math.exp(-float((y - x) @ (y - x)) / 2)
                total += q * abs(float(np.linalg.det(eye - r * ff.W))) * math.sqrt(
                    float(np.linalg.det(ff.g))) * w
                for rr in (0.0, 0.5 * alpha, alpha):
                    kappa = max(kappa, abs(float(np.linalg.det(eye - rr * ff.W))))
                    kappa_minus = max(kappa_minus,
                                      abs(float(np.linalg.det(eye + rr * ff.W))))
            if prev is not None and abs(total - prev) <= 1e-5 * max(abs(total), 1e-6):
                break
            prev, n_cur = total, 2 * n_cur
        bound = 2 * math.exp(alpha ** 2 / 2) * kappa_minus * kappa / alpha
        assert res.value == pytest.approx(total, rel=1e-12)
        assert res.bound == pytest.approx(bound, rel=1e-12)


def test_finite_difference_fallback_keeps_its_stencils():
    """Surfaces without grad/hess callbacks: the central-difference stencils."""
    def reference(phi, theta, h):
        d = theta.size
        g, H = np.empty(d), np.empty((d, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            g[i] = (phi(theta + e) - phi(theta - e)) / (2 * h)
            H[i, i] = (phi(theta + e) - 2 * phi(theta) + phi(theta - e)) / h**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                H[i, j] = H[j, i] = (
                    phi(theta + e + ej) - phi(theta + e - ej)
                    - phi(theta - e + ej) + phi(theta - e - ej)
                ) / (4 * h**2)
        return g, H

    rng = np.random.default_rng(11)
    for phi, domain in (
        (lambda th: np.sin(th[..., 0]) + th[..., 0] ** 3, ((-2.0, 2.0),)),
        (lambda th: np.sin(th[..., 0]) * np.cos(2 * th[..., 1])
         + th[..., 0] * th[..., 1] ** 2, ((-2.0, 2.0), (-2.0, 2.0))),
    ):
        surf = MongeSurface(phi=phi, chart_domain=domain)
        for _ in range(20):
            th = rng.uniform(-1.9, 1.9, size=surf.chart_dim)
            g, H = reference(phi, th, surf.fd_step)
            assert np.array_equal(surf.gradient(th), g)
            assert np.array_equal(surf.hessian(th), H)


def test_fundamental_forms_reads_the_gradient_once():
    calls = []

    def grad(th):
        calls.append(th)
        return 2.0 * np.asarray(th, dtype=float)

    surf = MongeSurface(phi=lambda th: th[:, 0] ** 2 + th[:, 1] ** 2, grad=grad,
                        hess=lambda th: np.broadcast_to(2.0 * np.eye(2), (len(th), 2, 2)),
                        chart_domain=((-2.0, 2.0), (-2.0, 2.0)))
    for th in ([0.0, 0.0], [0.5, -1.2], [1.9, 0.3]):
        calls.clear()
        ff = fundamental_forms(surf, th)
        assert len(calls) == 1
        np.testing.assert_array_equal(ff.W, fundamental_forms(PARABOLOID, th).W)


def test_signed_distance_builds_one_frame(monkeypatch):
    import semistab.geometry as geo

    calls = []

    def counting_frame(surface, theta):
        calls.append(theta)
        return frame(surface, theta)

    monkeypatch.setattr(geo, "frame", counting_frame)
    for surf, th in ((PARABOLA_IN, [0.7]), (PARABOLOID, [0.4, -0.9])):
        x = surf.embed(th) + 0.1 * frame(surf, th).N
        calls.clear()
        res = signed_distance(surf, x, tube_alpha=0.5)
        assert len(calls) == 1
        assert res.d == pytest.approx(0.1, abs=1e-8)


@pytest.mark.parametrize("epsilon", [1, -1])
def test_signed_distance_roundtrip_paraboloid(epsilon):
    surf = make_surface("paraboloid", epsilon=epsilon)
    rng = np.random.default_rng(3)
    for _ in range(20):
        th = rng.uniform(-1.2, 1.2, size=2)
        u = rng.uniform(-0.2, 0.2)
        x = surf.embed(th) + u * frame(surf, th).N
        res = signed_distance(surf, x, tube_alpha=0.5)
        assert res.d == pytest.approx(u, abs=1e-8)
        np.testing.assert_allclose(res.foot_theta, th, atol=1e-6)
        assert res.roundtrip_error <= 1e-8


def _reference_newton(surface, x, theta, max_iter=60):
    """The per-start damped Newton that the stacked one replaced: one start,
    one chart point and one line-search step at a time."""
    d, ax, others = surface.chart_dim, surface.graph_axis, surface._other_axes()
    lo_b, hi_b = np.array(surface.chart_domain, dtype=float).T
    delta = x - surface.embed(theta)
    f_cur = float(delta @ delta)
    for _ in range(max_iter):
        grad_phi = surface.gradient(theta)
        grad_f = -2.0 * (delta[others] + grad_phi * delta[ax])
        H = 2.0 * (np.eye(d) + np.outer(grad_phi, grad_phi)
                   - delta[ax] * surface.hessian(theta))
        lo_eig = float(np.linalg.eigvalsh(0.5 * (H + H.T)).min())
        if lo_eig < 1e-10:
            H = H + (1e-10 - lo_eig) * np.eye(d)
        step = np.linalg.solve(H, -grad_f)
        t_ls = 1.0
        while t_ls > 1e-8:
            new = np.clip(theta + t_ls * step, lo_b, hi_b)
            delta_new = x - surface.embed(new)
            f_new = float(delta_new @ delta_new)
            if f_new <= f_cur + 1e-12:
                break
            t_ls *= 0.5
        else:
            break
        stalled = np.linalg.norm(new - theta) < 1e-14
        theta, delta, f_cur = new, delta_new, f_new
        if stalled:
            break
    return theta, f_cur


def _starts(surface, n_starts=9):
    d = surface.chart_dim
    axes = [np.linspace(lo, hi, max(2, round(n_starts ** (1 / d))))
            for lo, hi in surface.chart_domain]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def _reference_signed_distance(surface, x, tube_alpha):
    """Per-start Newton from the same lattice: every start's end point and
    value, the winner's index and (d, foot, round-trip error)."""
    runs = [_reference_newton(surface, x, s) for s in _starts(surface)]
    best = min(range(len(runs)), key=lambda i: runs[i][1])
    foot = runs[best][0]
    if not surface.in_chart(foot, margin=1e-6):
        raise ValueError("projection foot lies on the chart boundary")
    fr = frame(surface, foot)
    dist = float((x - surface.embed(foot)) @ fr.N)
    if abs(dist) > tube_alpha:
        raise ValueError("outside the tube")
    rt = float(np.linalg.norm(surface.embed(foot) + dist * fr.N - x))
    if rt > 1e-8:
        raise ValueError("round trip")
    return runs, best, (dist, foot, rt)


_ATLAS = make_surface("graph_example_8_4")


@pytest.mark.parametrize("surface, n_points", [
    (PARABOLA, 100), (PARABOLA_IN, 100), (PARABOLOID, 100),
    (make_surface("paraboloid", epsilon=-1), 100),
    (_ATLAS["psi_plus"], 25), (_ATLAS["psi_minus"], 25),
], ids=["parabola", "parabola_in", "paraboloid", "paraboloid_in", "psi_plus",
        "psi_minus"])
def test_stacked_newton_matches_the_per_start_newton(surface, n_points):
    import semistab.geometry as geo

    rng = np.random.default_rng(17)
    lo, hi = np.array(surface.chart_domain).T
    accepted = 0
    for _ in range(n_points):
        x = surface.embed(rng.uniform(lo, hi)) + rng.uniform(-0.6, 0.6, size=surface.n)
        theta, _, f = geo._project(surface, x, _starts(surface), 60)
        try:
            runs, best, (d, foot, rt) = _reference_signed_distance(surface, x, 0.5)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                signed_distance(surface, x, tube_alpha=0.5)
            continue
        accepted += 1
        # every start ends where the per-start loop ends, and the same one wins
        np.testing.assert_allclose(theta, [r[0] for r in runs], rtol=0, atol=1e-12)
        np.testing.assert_allclose(f, [r[1] for r in runs], rtol=0, atol=1e-12)
        assert int(np.argmin(f)) == best
        res = signed_distance(surface, x, tube_alpha=0.5)
        assert abs(res.d - d) <= 1e-12
        np.testing.assert_allclose(res.foot_theta, foot, rtol=0, atol=1e-12)
        assert abs(res.roundtrip_error - rt) <= 1e-12
    assert accepted >= n_points // 2


def test_signed_distance_reads_phi_once_per_newton_round():
    for base, th in ((PARABOLA_IN, [0.7]), (PARABOLOID, [0.4, -0.9]),
                     (_ATLAS["psi_minus"], [3.0])):
        surf, calls = _counted(base)
        x = base.embed(th) + 0.1 * frame(base, th).N
        res = signed_distance(surf, x, tube_alpha=0.5)
        assert res.d == pytest.approx(0.1, abs=1e-8)
        # Hessians are read once per round; phi once per round and at the starts
        rounds = len(calls["hess"])
        assert 1 <= rounds <= 60
        assert len(calls["phi"]) <= rounds + 1


def _per_node_chart_forms(surface, n_theta):
    """The chart-form table built one fundamental_forms call per node."""
    import semistab.geometry as geo

    steps = [(hi - lo) / n_theta for lo, hi in surface.chart_domain]
    axes = [lo + (np.arange(n_theta) + 0.5) * h
            for (lo, _), h in zip(surface.chart_domain, steps)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    nodes = nodes.reshape(-1, surface.chart_dim)
    forms = [geo.fundamental_forms(surface, th) for th in nodes]
    points = np.array([surface.embed(th) for th in nodes])
    N = np.array([ff.N for ff in forms])
    W = np.array([ff.W for ff in forms])
    area = np.sqrt(np.linalg.det(np.array([ff.g for ff in forms]))) * math.prod(steps)
    return points, N, W, area


@pytest.mark.parametrize("surface, alpha, n_r, n_theta", [
    (PARABOLA_IN, 0.2, 16, 24), (PARABOLA, 0.3, 8, 16),
    (PARABOLA_IN, 0.8, 8, 16),                                  # focal shrink
    (make_surface("paraboloid", epsilon=-1), 0.2, 6, 12),
    (make_surface("paraboloid", epsilon=-1), 0.9, 4, 8),        # focal shrink
    (_ATLAS["psi_plus"], 0.2, 8, 16),
])
def test_stacked_chart_forms_match_the_per_node_table(monkeypatch, surface, alpha,
                                                      n_r, n_theta):
    import semistab.geometry as geo

    f = lambda u: u ** -0.5  # noqa: E731
    rep = coarea_check(surface, f, alpha=alpha, n_r=n_r, n_theta=n_theta)
    monkeypatch.setattr(geo, "_chart_forms", _per_node_chart_forms)
    ref = coarea_check(surface, f, alpha=alpha, n_r=n_r, n_theta=n_theta)
    assert (rep.alpha_used, rep.ok) == (ref.alpha_used, ref.ok)
    for a, b in ((rep.tube_integral, ref.tube_integral),
                 (rep.iterated_integral, ref.iterated_integral)):
        assert a == pytest.approx(b, rel=1e-15, abs=0)


def test_stacked_level_set_density_matches_the_per_node_table(monkeypatch):
    import semistab.geometry as geo

    kernel = {"c_t": 1.0 / (2 * math.pi), "sigma_t": 1.0, "m_t": lambda x: x}
    rng = np.random.default_rng(8)
    args = [([rng.uniform(-2, 2), rng.uniform(0.3, 3.0)], rng.uniform(0.0, 0.2))
            for _ in range(6)]
    new = [level_set_density(kernel, PARABOLA_IN, x=x, r=r, alpha=0.25, n_theta=32)
           for x, r in args]
    monkeypatch.setattr(geo, "_chart_forms", _per_node_chart_forms)
    for res, (x, r) in zip(new, args):
        ref = level_set_density(kernel, PARABOLA_IN, x=x, r=r, alpha=0.25, n_theta=32)
        assert res.ok == ref.ok
        assert res.value == pytest.approx(ref.value, rel=1e-15, abs=0)
        assert res.bound == pytest.approx(ref.bound, rel=1e-15, abs=0)


def test_an_asymmetric_hessian_at_one_node_is_rejected():
    def hess(th):
        H = np.tile(2.0 * np.eye(2), (len(th), 1, 1))
        H[(th[:, 0] > 1.7) & (th[:, 1] > 1.7), 0, 1] += 1e-3  # node (1.75, 1.75)
        return H

    surf = MongeSurface(**{**PARABOLOID.__dict__, "hess": hess})
    with pytest.raises(ValueError, match="Hessian not symmetric"):
        coarea_check(surf, lambda u: 1.0, alpha=0.2, n_r=4, n_theta=8)
    with pytest.raises(ValueError, match="Hessian not symmetric"):
        fundamental_forms(surf, [1.75, 1.75])
    assert fundamental_forms(surf, [1.25, 1.75]).W.shape == (2, 2)


@pytest.mark.parametrize("field, value, message", [
    ("N", 0.5, "unit length"), ("T", 0.3, "orthogonal"),
    ("g", -7.0, "positive definite"), ("W", 0.5, "W != g"),
])
def test_a_stack_of_frames_checks_every_node(field, value, message):
    import semistab.geometry as geo

    nodes = np.array([[-1.0, 0.5], [0.3, 0.2], [1.5, -1.2]])
    parts = dict(zip(("T", "N", "g", "Omega", "W"), geo._forms(PARABOLOID, nodes)))
    BoundaryFrame(**parts)
    bad = parts[field].copy()
    bad[1].flat[0] += value  # the middle node only
    with pytest.raises(ValueError, match=message):
        BoundaryFrame(**{**parts, field: bad})


@pytest.mark.parametrize("domain", [(), ((0.0, 1.0),) * 3])
def test_chart_domains_of_zero_or_three_intervals_rejected(domain):
    with pytest.raises(ValueError, match="chart_domain must have 1 or 2 intervals"):
        MongeSurface(phi=lambda th: th.sum(axis=1), chart_domain=domain)


def test_ambient_dimension_follows_the_chart_domain():
    assert make_surface("parabola").n == 2
    assert make_surface("paraboloid").n == 3
    assert make_surface("paraboloid").chart_dim == 2
