"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``PASS``/``FAIL`` line (visible with ``pytest -s``)
and enforces its runtime budget.  Criteria that reference published
values assert them; derived expectations are computed by independent
oracles inside this module (dense grids, quadrature, brute-force
enumeration, mass-property bookkeeping), never by the code path under
test.
"""

import functools
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from flexasm import linss, modal, pathopt as po, robust, scenario as sc
from flexasm import multibody as mb
from flexasm.linss import StateSpace

from conftest import make_rng, random_stable_system
from wired import rigid_nport_inverted, wired_close_loop, wired_open_loop

HOME = (sc.HOME_JOINTS,) * 3


def criterion(name, budget_s):
    """Decorator: enforce the runtime budget and print one result line."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kw):
            t0 = time.monotonic()
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"FAIL {name}")
                raise
            dt = time.monotonic() - t0
            print(f"PASS {name} ({dt:.1f}s, budget {budget_s}s)")
            assert dt < budget_s, f"{name} exceeded its runtime budget"
        return run
    return wrap


@pytest.fixture(scope="module")
def desk6():
    return sc.ScenarioModels(sc.table_scenario(6, n_struct_modes=4))


@pytest.fixture(scope="module")
def planner4():
    # the end-to-end configuration: N = 4, z = 7 (14 systems per edge)
    return po.AssemblyPlanner(sc.table_scenario(4, z_grid=7))


# ---------------------------------------------------------------------------
# 1. DC-gain / inertia reciprocity
# ---------------------------------------------------------------------------

@criterion("criterion 1: DC-gain/inertia reciprocity (20 random states, 1e-5)", 60)
def test_ac1_dc_gain_inertia_reciprocity(desk6):
    rng = make_rng(2026)
    models = desk6
    N = models.cfg.n_tiles
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, N + 1))
        state = sc.AssemblyState(n, int(rng.integers(1, n + 1)),
                                 int(rng.integers(1, 3)), int(rng.integers(0, 2)))
        qs = tuple(rng.uniform(-0.6, 0.6, 5) for _ in range(3))
        plant = models.open_loop(state, qs)
        # independent oracle: rigid mass-property composition about G
        [J] = models.total_inertia([(state, qs)])
        gain_inv = np.linalg.inv(
            plant.dc_gain()[plant.out_slice("omega_dot_G"), :]
            [:, plant.in_slice("T_G")])
        for i in range(3):
            assert abs(gain_inv[i, i] - J[i, i]) <= 1e-5 * abs(J[i, i]), state
        # full-matrix reciprocity, same tolerance
        assert np.max(np.abs(gain_inv - J)) <= 1e-5 * np.max(np.abs(J))
        checked += 1


# ---------------------------------------------------------------------------
# 2. antiresonance placement
# ---------------------------------------------------------------------------

@criterion("criterion 2: antiresonances at 1.2850 / 6.5896 Hz (1%)", 10)
def test_ac2_antiresonance_placement(desk6):
    state = sc.AssemblyState(1, 1, 1, 0)
    plant = desk6.open_loop(state, HOME)
    ch = plant.subsystem(outputs=["omega_dot_G"], inputs=["T_G"])
    for target in (1.2850, 6.5896):
        f = np.linspace(0.97 * target, 1.03 * target, 4001)
        mags = np.array([abs(ch.transfer_at(2j * np.pi * fi)[0, 0]) for fi in f])
        k = int(np.argmin(mags))
        assert 0 < k < f.size - 1, f"no interior dip near {target} Hz"
        assert abs(f[k] - target) / target < 0.01


# ---------------------------------------------------------------------------
# 3. norm oracles
# ---------------------------------------------------------------------------

def dense_grid_peak(sys):
    """Independent H-infinity oracle: eigen-seeded dense grid + polish."""
    eigs = np.linalg.eigvals(sys.A)
    ws = list(np.geomspace(1e-3, 1e3, 900))
    for lam in eigs:
        w0 = abs(lam.imag)
        if w0 > 1e-9:
            ws.extend(np.linspace(0.9 * w0, 1.1 * w0, 60))
    ws = np.array(sorted(set(ws)))
    vals = np.array([linss.sigma_max(sys, w) for w in ws])
    k = int(np.argmax(vals))
    lo = ws[max(k - 1, 0)]
    hi = ws[min(k + 1, ws.size - 1)]
    res = scipy.optimize.minimize_scalar(
        lambda w: -linss.sigma_max(sys, w), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12})
    return max(vals[k], -res.fun, linss.sigma_max(sys, 1e-9))


def h2_by_quadrature(sys):
    eigs = np.linalg.eigvals(sys.A)
    pts = sorted({float(abs(l.imag)) for l in eigs if abs(l.imag) > 1e-9})
    frob2 = lambda w: float(np.sum(np.abs(sys.transfer_at(1j * w)) ** 2))
    hi = 1e3 * max(1.0, float(np.max(np.abs(eigs))))
    val, _ = scipy.integrate.quad(frob2, 0.0, hi, limit=500,
                                  points=[p for p in pts if p < hi])
    tail, _ = scipy.integrate.quad(frob2, hi, np.inf, limit=200)
    return float(np.sqrt((val + tail) / np.pi))


@criterion("criterion 3: H-inf vs grid 1e-4 (50 systems), H2 vs quadrature 1e-3, "
           "resonant peak 100.0 within 0.1%", 120)
def test_ac3_norm_oracles():
    rng = make_rng(7331)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        sys = random_stable_system(rng, n, 2, 2, margin=0.15)
        norm = linss.hinf_norm(sys)
        peak = dense_grid_peak(sys)
        assert abs(norm - peak) <= 1e-4 * peak
    for _ in range(15):
        n = int(rng.integers(2, 12))
        sys = random_stable_system(rng, n, 2, 2, margin=0.4, feedthrough=False)
        assert linss.h2_norm([sys])[0] == pytest.approx(h2_by_quadrature(sys), rel=1e-3)
    xi, w0 = 0.005, 2.0 * np.pi * 1.2850
    res = StateSpace([[0.0, 1.0], [-w0 * w0, -2 * xi * w0]], [[0.0], [w0 * w0]],
                     [[1.0, 0.0]], [[0.0]], (("u", 1),), (("y", 1),))
    assert abs(linss.hinf_norm(res) - 100.0) / 100.0 < 1e-3


# ---------------------------------------------------------------------------
# 4. LFR closure exactness
# ---------------------------------------------------------------------------

@criterion("criterion 4: mode LFR closure reproduces (1 + 0.2 d) x 1.2850 Hz "
           "(1e-9)", 5)
def test_ac4_lfr_closure_exact():
    from flexasm.modal import load_body_file
    import flexasm

    data = load_body_file(flexasm.data_path("solar_array.yaml"))
    w0 = data.freqs[0]
    assert w0 / (2 * np.pi) == pytest.approx(1.2850)
    lfr = mb.mode_freq_lfr(data, 0, 0.2)
    for delta in (-1.0, -0.5, 0.0, 0.5, 1.0):
        closed = linss.lft_upper(lfr, delta)
        target = w0 * (1.0 + 0.2 * delta)
        freqs = np.abs(np.linalg.eigvals(closed.A))
        assert np.min(np.abs(freqs - target)) <= 1e-9 * target


# ---------------------------------------------------------------------------
# 5. structured-singular-value exactness
# ---------------------------------------------------------------------------

def brentq_margin(sys, delta_max=10.0, n=2001):
    def alpha(d):
        try:
            return linss.spectral_abscissa(linss.lft_upper(sys, d).A)
        except Exception:
            return 1.0

    best = None
    for sign in (1.0, -1.0):
        prev = 0.0
        for t in np.linspace(0.0, delta_max, n)[1:]:
            if alpha(sign * t) >= -linss.STAB_TOL:
                root = scipy.optimize.brentq(
                    lambda x: alpha(sign * x) + linss.STAB_TOL, prev, t,
                    xtol=1e-13, rtol=1e-15)
                if best is None or root < abs(best):
                    best = sign * root
                break
            prev = t
    return best


@criterion("criterion 5: exact real margin vs dense sweep (1e-6, 20 plants) "
           "and the 400% reading at mu = 0.2", 120)
def test_ac5_mu_exactness():
    rng = make_rng(515)
    crossings = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.35) * np.eye(n)
        sys = StateSpace(A, rng.standard_normal((n, 2)),
                         rng.standard_normal((2, n)), np.zeros((2, 2)),
                         (("w_omega", 2),), (("z_omega", 2),))
        res = robust.mu_real_repeated(sys, delta_max=10.0)
        oracle = brentq_margin(sys)
        if oracle is None:
            assert res.mu_lower == 0.0
        else:
            crossings += 1
            assert abs(res.mu_lower - 1.0 / abs(oracle)) <= 1e-6 / abs(oracle)
        assert res.mu_lower <= robust.mu_upper_bound(sys) + 1e-9
    assert crossings >= 8

    # margin 0.2 tolerates a 400 percent uncertainty increase
    sys02 = StateSpace([[-1.0]], [[1.0]], [[0.2]], [[0.0]],
                       (("w_omega", 1),), (("z_omega", 1),))
    res = robust.mu_real_repeated(sys02, delta_max=20.0)
    assert res.mu_lower == pytest.approx(0.2, rel=1e-6)
    for d in list(np.linspace(-4.99, 4.99, 21)) + [1.0, -1.0]:
        assert linss.spectral_abscissa(linss.lft_upper(sys02, d).A) < -linss.STAB_TOL


# ---------------------------------------------------------------------------
# 6. composition physics
# ---------------------------------------------------------------------------

@criterion("criterion 6: welded rigid bodies match the composite (1e-8); "
           "stiff lattice matches rigid DC (1e-4)", 30)
def test_ac6_composition_physics():
    rng = make_rng(606)
    for _ in range(5):
        m1, m2 = rng.uniform(1.0, 20.0, 2)
        J1 = np.diag(rng.uniform(0.5, 3.0, 3))
        J2 = np.diag(rng.uniform(0.5, 3.0, 3))
        # triangle inequality holds for diagonals drawn in this range?
        J1 = J1 + 0.6 * np.trace(J1) * np.eye(3)
        J2 = J2 + 0.6 * np.trace(J2) * np.eye(3)
        r1, r2 = rng.standard_normal(3), rng.standard_normal(3)
        b1 = mb.RigidBodyData(m1, J1, {"J": r1})
        b2 = mb.RigidBodyData(m2, J2, {"J": r2})
        welded = linss.interconnect(
            [("a", mb.rigid_nport(b1, ["J"])),
             ("b", rigid_nport_inverted(b2, "J", with_com_port=False))],
            [("a.xdd_J", "b.xdd_J"), ("b.W_J", "a.W_J")],
            [("W_G", "a.W_G")], [("xdd_G", "a.xdd_G")])
        g2 = r1 - r2
        m, com, J = mb.compose_rigid([(m1, np.zeros(3), J1, None),
                                      (m2, g2, J2, None)])
        assert m == pytest.approx(m1 + m2, rel=1e-14)
        ref = mb.rigid_nport(mb.RigidBodyData(m, J, {"P": -com}), ["P"]).subsystem(
            ["xdd_P"], ["W_P"])
        scale = np.max(np.abs(ref.D))
        assert np.max(np.abs(welded.D - ref.D)) < 1e-8 * max(1.0, scale)

    # stiff-limit lattice vs rigid composite two-port at low frequency
    lay = modal.TileLayout([(0, 0), (0, 1), (1, 1)])
    stiff = modal.LatticeStiffness(k_trans=modal.DEFAULT_K_TRANS * 1e6,
                                   k_rot=0.25 * modal.DEFAULT_K_TRANS * 1e6)
    data = modal.modal_reduce(modal.build_lattice(lay, modal.DEFAULT_TILE_MASS,
                                                  modal.DEFAULT_TILE_INERTIA, stiff),
                              18, modal.DEFAULT_DAMPING)[2]
    flex = mb.titop_two_port(data)
    mass, com, J = mb.compose_rigid(
        [(modal.DEFAULT_TILE_MASS, lay.center(t), modal.DEFAULT_TILE_INERTIA, None)
         for t in (1, 2, 3)])
    rigid = mb.titop_two_port(mb.ModalBodyData(
        mass=mass, com=com, inertia_P=mb.transport_inertia(J, mass, com),
        freqs=[], dampings=[], L_P=np.zeros((0, 6)),
        phi_C=np.zeros((6, 0)), pc=lay.center(3)))
    scale = np.max(np.abs(mb.d_p_matrix(data)))
    for w in (1e-2, 0.1, 1.0):
        dev = np.max(np.abs(flex.transfer_at(1j * w) - rigid.transfer_at(1j * w)))
        assert dev / scale < 1e-4


# ---------------------------------------------------------------------------
# 7. graph layer
# ---------------------------------------------------------------------------

def exhaustive_best(adjacency, weights, s, t):
    best = None
    stack = [(s, (s,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == t:
            key = (cost, len(path) - 1, path)
            if best is None or key < best:
                best = key
            continue
        for nxt in range(adjacency.shape[0]):
            if adjacency[node, nxt] > 0 and np.isfinite(weights[node, nxt]) \
                    and nxt not in path:
                stack.append((nxt, path + (nxt,), cost + weights[node, nxt]))
    return best


@criterion("criterion 7: graph counts (2n+1 nodes, 2N graphs, 2N(N+1) family, "
           "N=28 -> 1624) and Dijkstra vs enumeration", 30)
def test_ac7_graph_layer():
    cfg = sc.table_scenario(4)
    rng = make_rng(707)
    graphs = []
    for n in range(1, cfg.n_tiles + 1):
        pick, asm = po.build_node_graphs(cfg, n)
        graphs += [pick, asm]
        for g in (pick, asm):
            assert len(g.nodes) == 2 * n + 1
            assert np.all(np.diag(g.adjacency) == 0)
    assert len(graphs) == 2 * cfg.n_tiles

    for g in graphs:
        if len(g.nodes) > 9 or not g.edges():
            continue
        W = np.where(g.adjacency > 0,
                     rng.uniform(0.1, 3.0, g.adjacency.shape), np.inf)
        g.weights = W
        for start in range(2 * g.n):
            best = exhaustive_best(g.adjacency, W, start, g.action_index)
            if best is None:
                continue
            path, cost = po.shortest_path(g, start, g.action_index, "dijkstra")
            assert cost == pytest.approx(best[0], rel=1e-12)
            assert tuple(path) == best[2]

    fam = sc.enumerate_model_family(28)
    assert len(fam) == 2 * 28 * 29 == 1624


# ---------------------------------------------------------------------------
# 8. end-to-end dominance
# ---------------------------------------------------------------------------

@criterion("criterion 8: N=4, z=7 full assembly: optimized <= baseline for all "
           "four costs; H-inf wrench plan stays at least as close to the hub",
           30)
def test_ac8_end_to_end_dominance(planner4):
    assert planner4.cfg.z_grid == 7
    results = {}
    for kind in po.COST_KINDS:
        res = planner4.plan_full_assembly(po.CostSpec(kind))
        assert np.isfinite(res.cumulative), kind
        assert res.cumulative <= res.cumulative_baseline + 1e-9, kind
        e0 = next(e for st in res.stages for e in st.edges if e.edge_id >= 0)
        key = (e0.kind, e0.n, e0.src, e0.dst)
        planner4._build([key])
        assert planner4._edges[key].values.shape == (14, len(po.COST_KINDS))
        results[kind] = res
    hw = results["hinf-wrench"]
    assert hw.mean_dock_distance <= hw.mean_dock_distance_baseline + 1e-9


# ---------------------------------------------------------------------------
# 9. controller sanity
# ---------------------------------------------------------------------------

@criterion("criterion 9: rigid loop poles at -0.0628319 rad/s (1e-6), "
           "no step overshoot", 5)
def test_ac9_controller_sanity():
    models = sc.ScenarioModels(sc.table_scenario(2))
    state = sc.AssemblyState(1, 1, 1, 0)
    K = sc.attitude_gains(models.total_inertia([(state, HOME)])[0], 1.0, 0.01)
    cl = wired_close_loop(wired_open_loop(models, state, HOME, rigid=True), K)
    poles = np.linalg.eigvals(cl.A)
    assert np.max(np.abs(poles - (-0.0628319))) < 1e-6

    # step torque disturbance: attitude rises monotonically (no overshoot)
    sub = cl.subsystem(outputs=["Theta_G"], inputs=["d_t"])
    A, B, C = sub.A, sub.B[:, 0], sub.C
    ts = np.linspace(0.0, 400.0, 600)
    x = np.zeros(A.shape[0])
    y = []
    import scipy.linalg as sla
    dt = ts[1] - ts[0]
    Ad = sla.expm(A * dt)
    Bd = np.linalg.solve(A, (Ad - np.eye(A.shape[0]))) @ B
    for _ in ts:
        y.append(C @ x)
        x = Ad @ x + Bd
    y = np.array(y)
    y_final = y[-1]
    for axis in range(3):
        trace = y[:, axis] * np.sign(y_final[axis]) if abs(y_final[axis]) > 1e-12 \
            else y[:, axis]
        assert np.max(trace) <= abs(y_final[axis]) * (1 + 1e-6) + 1e-12
