import pickle
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import warnings

from frnse import nonlinear, picard
from frnse.errors import DivergenceDetected, NonConvergence
from frnse.grid import (GridSpec, h1_norm, random_band_limited, scaled_gaussian,
                        spectral_h1_norm, to_spectral)
from frnse.kernel import _workspace, kernel_multiplier
from frnse.nonlinear import PhysParams, integrand
from frnse.picard import (PicardConfig, _node_integral, contraction_report, duhamel_map,
                          march_solve, picard_solve)
from frnse.trajectory import sup_h1_distance


def _samples(f, m, T):
    t = np.linspace(0.0, T, m + 1)
    return [np.array([f(x)]) for x in t], t


def _prefix_integrals(W, dt, quad):
    # every node's running integral P_j by _node_integral, P_0 = 0
    P = [np.zeros_like(W[0])]
    for j in range(1, len(W)):
        P.append(_node_integral(P, W, j, dt, quad))
    return P


def test_config_validation(kfull):
    params = PhysParams(1.0, 1.0)
    with pytest.raises(ValueError):
        PicardConfig(T=0.0, m=4, kspec=kfull, params=params)
    with pytest.raises(ValueError):
        PicardConfig(T=1.0, m=1, kspec=kfull, params=params)
    with pytest.raises(ValueError):
        PicardConfig(T=1.0, m=5, kspec=kfull, params=params, quad="simpson")
    with pytest.raises(ValueError):
        PicardConfig(T=1.0, m=4, kspec=kfull, params=params, quad="gauss")
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        PicardConfig(T=1.0, m=4, kspec=kfull, params=params, max_iter=0)
    for tol in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            PicardConfig(T=1.0, m=4, kspec=kfull, params=params, tol=tol)
    cfg = PicardConfig(T=1.0, m=4, kspec=kfull, params=params)
    assert np.allclose(cfg.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_trapezoid_exact_on_linear():
    W, t = _samples(lambda x: 2.0 * x + 1.0, 7, 1.4)
    P = _prefix_integrals(W, 0.2, "trapezoid")
    expect = t**2 + t
    got = np.array([p[0] for p in P])
    assert np.max(np.abs(got - expect)) < 1e-13


def test_simpson_exact_on_quadratics():
    W, t = _samples(lambda x: 3.0 * x**2 - x + 0.5, 8, 0.8)
    P = _prefix_integrals(W, 0.1, "simpson")
    expect = t**3 - t**2 / 2.0 + 0.5 * t
    got = np.array([p[0] for p in P])
    assert np.max(np.abs(got - expect)) < 1e-13


def test_simpson_cubic_only_node_one_defects():
    # cubics are integrated exactly at every node except node 1, whose
    # three-point rule carries the single local O(dt^4) defect dt^4/4
    dt = 0.1
    W, t = _samples(lambda x: x**3, 8, 0.8)
    P = _prefix_integrals(W, dt, "simpson")
    got = np.array([p[0] for p in P])
    expect = t**4 / 4.0
    errs = np.abs(got - expect)
    assert errs[1] == pytest.approx(dt**4 / 4.0, rel=1e-10)
    mask = np.ones(9, dtype=bool)
    mask[1] = False
    assert np.max(errs[mask]) < 1e-14


def test_simpson_fourth_order_convergence():
    # smooth integrand: halving dt shrinks the worst node error ~16x
    errors = []
    for m in (16, 32, 64):
        W, t = _samples(np.cos, m, 1.6)
        P = _prefix_integrals(W, 1.6 / m, "simpson")
        got = np.array([p[0] for p in P])
        errors.append(np.max(np.abs(got - np.sin(t))))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.25)


def test_duhamel_free_case(gspec8, rng, kfull):
    # with alpha2 = 0 the integrand vanishes: whatever the input, the image
    # is phi_hat at every node, i.e. the free trajectory of phi, and the
    # map reports its distances from the input and from phi_hat
    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.4, m=4, kspec=kfull, params=PhysParams(1.0, 0.0))
    phi_hat = to_spectral(phi)
    start = [phi_hat] + [to_spectral(random_band_limited(gspec8, rng)) for _ in cfg.times[1:]]
    old = [u.copy() for u in start]
    delta, excursion = duhamel_map(gspec8, start, phi_hat, cfg)
    assert len(start) == cfg.m + 1
    for u in start:
        assert np.array_equal(u, phi_hat)
    assert delta == max(spectral_h1_norm(gspec8, phi_hat - u) for u in old)
    assert excursion == 0.0
    # so the march streams the free trajectory too: U_j = phi_hat at each node
    assert sum(np.array_equal(u, phi_hat) for u in march_solve(phi, cfg)) == cfg.m + 1


def test_duhamel_node_zero_is_phi(gspec8, rng, kfull):
    phi = random_band_limited(gspec8, rng)
    phi = phi * (0.3 / h1_norm(phi))  # inside the contraction regime
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0))
    phi_hat = to_spectral(phi)
    nodes = [phi_hat] * (cfg.m + 1)
    duhamel_map(gspec8, nodes, phi_hat, cfg)
    assert len(nodes) == cfg.m + 1
    assert np.array_equal(nodes[0], phi_hat)
    assert not np.array_equal(nodes[1], phi_hat)
    traj, _ = picard_solve(phi, cfg)
    assert traj.fields[0] is phi
    assert np.allclose(traj.times, cfg.times)


def test_duhamel_validates_nodes(gspec8, rng, kfull):
    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0))
    phi_hat = to_spectral(phi)
    nodes = [phi_hat, phi_hat]
    with pytest.raises(ValueError):
        duhamel_map(gspec8, nodes, phi_hat, cfg)
    assert nodes[0] is phi_hat and nodes[1] is phi_hat  # left untouched


@pytest.mark.parametrize("quad, m", [("trapezoid", 4), ("simpson", 4), ("simpson", 6)])
def test_duhamel_map_in_place_is_bitwise_jacobi(gspec8, kfull, quad, m):
    # the streaming map replaces U_j in place, yet every integrand must be
    # taken at the old nodes (Simpson's node 1 reads W_2 before U_1 moves):
    # the image equals the map built from all old integrands, bit for bit
    rng = np.random.default_rng([m, len(quad)])
    phi = random_band_limited(gspec8, rng)
    phi = phi * (0.3 / h1_norm(phi))
    cfg = PicardConfig(T=0.2, m=m, kspec=kfull, params=PhysParams(1.0, 1.0), quad=quad)
    phi_hat = to_spectral(phi)
    old = [phi_hat] + [to_spectral(random_band_limited(gspec8, rng) * 0.3)
                       for _ in cfg.times[1:]]
    W = [integrand(gspec8, t, u, cfg.params, kfull) for t, u in zip(cfg.times, old)]
    ref = [p + phi_hat for p in _prefix_integrals(W, cfg.T / m, quad)]
    nodes = list(old)
    delta, excursion = duhamel_map(gspec8, nodes, phi_hat, cfg)
    for got, want in zip(nodes, ref):
        assert np.array_equal(got, want)
    assert delta == max(spectral_h1_norm(gspec8, r - u) for r, u in zip(ref, old))
    assert excursion == max(spectral_h1_norm(gspec8, r - phi_hat) for r in ref)


def test_picard_converges_small_data(gspec16, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec16, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-11)
    traj, report = picard_solve(phi, cfg)
    assert report.converged
    assert len(traj) == 9
    assert report.residual < 1e-10
    incs = report.increments
    assert all(b < a for a, b in zip(incs[1:], incs[2:])) or len(incs) <= 2
    assert not report.left_ball
    # the iteration table numbers the maps from 1 and holds the residual on
    # its last row only, NaN above it
    header, rows = report.table()
    assert header == ("iteration", "increment", "residual")
    assert [(k, d) for k, d, _ in rows] == list(enumerate(incs, 1))
    assert np.isnan([r for _, _, r in rows[:-1]]).all() and rows[-1][2] == report.residual


def test_picard_warns_when_iterates_leave_the_ball(gspec8, kfull):
    # at H1 norm 12 the iteration still converges, but its iterates stray
    # about 22 from the free trajectory, outside the ball of radius ||phi||_H1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=12.0)
    cfg = PicardConfig(T=0.5, m=16, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-10, max_iter=60)
    with pytest.warns(UserWarning, match="iterates left the H\\^1 ball"):
        _, report = picard_solve(phi, cfg)
    assert report.converged and report.left_ball
    assert report.ball_excursion > report.phi_h1


def test_picard_transform_counts(gspec8, kfull, count_transforms):
    # each map, and the residual pass, sends every node after node 0 through
    # one inverse and one forward n^3 transform; phi is transformed once,
    # node 0's integrand is taken once per solve, and the returned
    # trajectory transforms a node back only when it is read
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.4)
    cfg = PicardConfig(T=0.2, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="trapezoid", tol=1e-12, max_iter=40)
    calls = count_transforms()
    traj, report = picard_solve(phi, cfg)
    nodes = 1 + (report.iterations + 1) * cfg.m
    assert calls == {"fftn": 1 + nodes, "ifftn": nodes}
    traj.final()
    assert calls == {"fftn": 1 + nodes, "ifftn": nodes + 1}


def test_picard_memory_holds_one_node_list(gspec16, kfull):
    # a Picard solve holds its m+1 nodes, the node loop's window of
    # integrands and prefixes, one integrand's temporaries and, if this
    # process has not built them yet, the cached multiplier and kernel
    # workspace; three node lists (iterate, integrands, prefixes) would need
    # 3(m+1) arrays. A march consumed without keeping its nodes holds the
    # rest, and no m+1 term at all
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec16, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=32, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-12)
    solves = {"picard_solve": (lambda: picard_solve(phi, cfg), cfg.m + 1),
              "march_solve": (lambda: deque(march_solve(phi, cfg), maxlen=0), 0)}
    for name, (solve, kept) in solves.items():
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        node = 16 * gspec16.n**3
        cached = kernel_multiplier(gspec16, kfull).nbytes + _workspace(gspec16.n).nbytes
        assert peak < (kept + 24) * node + cached, name


def test_nonconvergence_carries_report(gspec8, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=4, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="trapezoid", tol=1e-30, max_iter=2)
    with pytest.raises(NonConvergence) as exc:
        picard_solve(phi, cfg)
    report = exc.value.report
    assert not report.converged
    assert report.iterations == 2
    with pytest.raises(ValueError):
        contraction_report(report)  # too few increments to fit
    # unconverged, the table still ends on the residual, the last increment
    _, rows = report.table()
    assert [k for k, _, _ in rows] == [1, 2] and np.isnan(rows[0][2])
    assert rows[-1][1:] == (report.increments[-1], report.increments[-1])
    # a battery job's exception reaches the parent process pickled
    again = pickle.loads(pickle.dumps(exc.value))
    assert str(again) == str(exc.value)
    assert again.report.increments == report.increments
    assert (again.report.iterations, again.report.converged) == (2, False)


def test_divergence_raises_without_overflow_warnings(gspec8, kfull):
    # a huge but finite iterate overflows in the H^1 distances before the
    # next map goes non-finite; only DivergenceDetected may reach the caller
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec8, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=4, kspec=kfull, params=PhysParams(1.0, 1000.0),
                       quad="trapezoid", max_iter=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceDetected):
            picard_solve(phi, cfg)


def test_contraction_report_shape(gspec16, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec16, 0.15, h1_target=0.5)
    cfg = PicardConfig(T=0.25, m=8, kspec=kfull, params=PhysParams(1.0, 1.0),
                       quad="simpson", tol=1e-12)
    _, report = picard_solve(phi, cfg)
    con = contraction_report(report)
    assert not con.degenerate
    assert con.C_fit > 0.0
    assert con.C_fit * report.T < 0.5  # small-data contraction regime
    assert con.envelope_ok
    assert con.increments_decreasing
    # increments at or below 1e-13 of the first are round-off: the fit
    # stops before them
    tail = replace(report, increments=report.increments + (1e-13 * report.increments[0], 1.0))
    assert contraction_report(tail) == con
    with pytest.raises(ValueError, match="report holds no increments"):
        contraction_report(replace(report, increments=()))


def test_contraction_degenerate_free_case(gspec8, rng, kfull):
    phi = random_band_limited(gspec8, rng)
    cfg = PicardConfig(T=0.3, m=4, kspec=kfull, params=PhysParams(1.0, 0.0))
    _, report = picard_solve(phi, cfg)
    con = contraction_report(report)
    assert con.degenerate
    assert con.C_fit == 0.0


def _march_case(gspec, kfull, quad, m=8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = scaled_gaussian(gspec, 0.15, h1_target=0.5)
    return phi, PicardConfig(T=0.25, m=m, kspec=kfull, params=PhysParams(1.0, 1.0),
                             quad=quad, tol=1e-12)


# the last case is the quick battery's contraction problem
@pytest.mark.parametrize("n, m, quad", [(8, 8, "simpson"), (8, 8, "trapezoid"),
                                        (16, 16, "simpson")])
def test_march_lands_on_picard_fixed_point(kfull, n, m, quad):
    # the march streams m+1 nodes from phi_hat, each within tol of the
    # point its integrand was taken at, else it raises
    phi, cfg = _march_case(GridSpec(n, 1.6), kfull, quad, m)
    ref, _ = picard_solve(phi, cfg)
    nodes = march_solve(phi, cfg)
    assert np.array_equal(next(nodes), to_spectral(phi))
    assert sup_h1_distance(phi.spec, nodes, ref.fields.coeffs[1:]) < 1e-11


@pytest.mark.parametrize("quad", ["simpson", "trapezoid"])
def test_march_kernel_apply_count(gspec8, kfull, monkeypatch, quad):
    # node 0's integrand once, then one per iteration at every later node;
    # the last integrand of a node is kept, not evaluated again. Each pass
    # takes one integrand and one node integral per node of its block, so
    # the integrands after node 0 equal the node integrals
    calls = {"apply": 0, "integral": 0}

    def counting(key, real):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    phi, cfg = _march_case(gspec8, kfull, quad)
    monkeypatch.setattr(nonlinear, "apply_kernel", counting("apply", nonlinear.apply_kernel))
    monkeypatch.setattr(picard, "_node_integral", counting("integral", _node_integral))
    deque(march_solve(phi, cfg), maxlen=0)
    assert calls["integral"] >= 2 * cfg.m
    assert calls["apply"] == 1 + calls["integral"]


def test_march_nonconvergence_names_the_block(gspec8, kfull):
    phi, cfg = _march_case(gspec8, kfull, "trapezoid")
    nodes = march_solve(phi, replace(cfg, tol=1e-30, max_iter=2))
    next(nodes)  # node 0, phi_hat, needs no iteration
    with pytest.raises(NonConvergence, match="after 2 iterations at node 1;") as exc:
        next(nodes)
    assert exc.value.report is None
    # a node's iteration contracts by about c dt L: the step is too large,
    # not the horizon
    assert "step T/m=0.03125 too large" in str(exc.value)
    assert "horizon" not in str(exc.value)


def _diverging_march(gspec8, kfull, m):
    phi, cfg = _march_case(gspec8, kfull, "trapezoid", m)
    return march_solve(phi, replace(cfg, params=PhysParams(1.0, 1000.0), max_iter=40))


def test_march_divergence_raises_without_overflow_warnings(gspec8, kfull):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceDetected):
            deque(_diverging_march(gspec8, kfull, 8), maxlen=0)


def test_march_leaves_the_callers_error_state(gspec8, kfull):
    # the march ignores overflow only within its own blocks: no errstate of
    # its spans a yield, so between nodes the consumer sees its own; at 64
    # nodes the march diverges at node 12
    before, seen = np.geterr(), []
    with pytest.raises(DivergenceDetected):
        for _ in _diverging_march(gspec8, kfull, 64):
            seen.append(np.geterr())
    assert len(seen) >= 10 and all(state == before for state in seen)
