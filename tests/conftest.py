"""Shared test helpers: random stable systems, similarity transforms,
mission closed loops and response comparison."""

import numpy as np
import pytest

from flexasm import linss
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


def mission_states(count, seed):
    """Random ``(state, qs)`` pairs of the 4-tile mission."""
    rng = make_rng(seed)
    family = sc.enumerate_model_family(4)
    for idx in rng.choice(len(family), count, replace=False):
        yield family[idx], [rng.uniform(-1.0, 1.0, 5) for _ in range(3)]


def mission_loops(count, seed):
    """Closed loops of the 4-tile mission at random states and joints."""
    models = sc.ScenarioModels(sc.table_scenario(4))
    K = models.design_gains()
    for state, qs in mission_states(count, seed):
        yield models.closed_loop(state, qs, K)


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
