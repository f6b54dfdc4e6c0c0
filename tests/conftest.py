"""Shared test helpers: random stable systems, similarity transforms,
mission closed loops and response comparison."""

import numpy as np
import pytest

from flexasm import linss
from flexasm import pathopt as po
from flexasm import scenario as sc


def make_rng(seed=0):
    return np.random.default_rng(seed)


def random_stable_system(rng, n=8, m=2, p=2, margin=0.2, feedthrough=True):
    """Random strictly stable system with spectral abscissa <= -margin."""
    A = rng.standard_normal((n, n))
    alpha = np.max(np.linalg.eigvals(A).real)
    A -= (alpha + margin) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m)) if feedthrough else np.zeros((p, m))
    return linss.StateSpace(A, B, C, D, (("u", m),), (("y", p),))


def state_transform(sys, T):
    """Similarity transform z = T^-1 x (response invariant)."""
    Ti = np.linalg.inv(T)
    return linss.StateSpace(Ti @ sys.A @ T, Ti @ sys.B, sys.C @ T, sys.D,
                            sys.in_channels, sys.out_channels)


def count_constructors(monkeypatch):
    """``(checked, unchecked)``: lists that grow by one per validating
    ``StateSpace(...)`` and per unchecked ``StateSpace._unchecked`` build."""
    checked, unchecked = [], []
    post_init = linss.StateSpace.__post_init__
    monkeypatch.setattr(linss.StateSpace, "__post_init__",
                        lambda self: checked.append(1) or post_init(self))
    build = linss.StateSpace._unchecked
    monkeypatch.setattr(linss.StateSpace, "_unchecked",
                        classmethod(lambda cls, *a: unchecked.append(1) or build(*a)))
    return checked, unchecked


def assert_same_system(got, want):
    """Bitwise equal matrices and equal channels."""
    assert got.in_channels == want.in_channels
    assert got.out_channels == want.out_channels
    for a, b in zip((got.A, got.B, got.C, got.D), (want.A, want.B, want.C, want.D)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def mission_states(count, seed, N=4):
    """Random ``(state, qs)`` pairs of the ``N``-tile mission."""
    rng = make_rng(seed)
    family = sc.enumerate_model_family(N)
    for idx in rng.choice(len(family), count, replace=False):
        yield family[idx], [rng.uniform(-1.0, 1.0, 5) for _ in range(3)]


def plan_keys(cfg):
    """The planner's key of every edge of a full-assembly plan's stage
    graphs, in build order."""
    return [key for n in range(1, cfg.n_tiles) for g in po.build_node_graphs(cfg, n)
            for key in po._edge_keys(g)]


def closed_loop(models, state, qs, K):
    """The attitude loop ``close_loop`` closes with gain ``K`` around the
    open loop of one ``(state, qs)`` waypoint of ``models``."""
    return sc.close_loop([models.open_loop(state, qs)], K)[0]


def mission_loops(count, seed):
    """Closed loops of the 4-tile mission at random states and joints."""
    models = sc.ScenarioModels(sc.table_scenario(4))
    K = models.design_gains()
    for state, qs in mission_states(count, seed):
        yield closed_loop(models, state, qs, K)


def dense_spectral_radius_peak(sys, points=20_000):
    """Largest spectral radius of the w_omega -> z_omega transfer over
    ``points`` log-spaced frequencies of the stacked solve across the seed
    grid's range, at w = 0 (the static gain) and at infinity (D): the
    oracle for ``robust.mu_upper_bound``."""
    sub = sys.subsystem(outputs=["z_omega"], inputs=["w_omega"])
    seeds = linss._seed_grid(sub)
    ws = np.geomspace(seeds.min(), seeds.max(), points)
    stack = np.concatenate([linss._transfer_batch(sub, ws), [sub.dc_gain(), sub.D]])
    return float(np.abs(np.linalg.eigvals(stack)).max())


def max_response_deviation(sys_a, sys_b, grid, chan_a=None, chan_b=None):
    """Max |G_a - G_b| over a grid, optionally on named channel pairs."""
    dev = 0.0
    for w in np.asarray(grid, dtype=float):
        ga = sys_a.transfer_at(1j * w)
        gb = sys_b.transfer_at(1j * w)
        if chan_a is not None:
            oa, ia = chan_a
            ga = ga[sys_a.out_slice(oa), :][:, sys_a.in_slice(ia)]
        if chan_b is not None:
            ob, ib = chan_b
            gb = gb[sys_b.out_slice(ob), :][:, sys_b.in_slice(ib)]
        dev = max(dev, float(np.max(np.abs(ga - gb))))
    return dev


@pytest.fixture
def rng():
    return make_rng(1234)
