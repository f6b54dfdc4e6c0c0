"""State-space algebra: interconnection, inversion, LFTs, norms."""

import ast
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from flexasm import linss, pathopt, robust
from flexasm import scenario as sc
from flexasm.errors import (
    EigenFailure,
    IllPosedLoop,
    NonSquareSelection,
    NonzeroFeedthrough,
    SingularDBlock,
    UnknownChannel,
    UnstableSystem,
    WidthMismatch,
)

from conftest import (assert_same_system, closed_loop, count_constructors,
                      dense_spectral_radius_peak, make_rng, max_response_deviation,
                      mission_loops, mission_states, random_stable_system,
                      state_transform)
from wired import integrator


def siso(A, B, C, D):
    return linss.StateSpace(A, B, C, D, (("u", 1),), (("y", 1),))


def first_order_lag():
    # 1/(s+1)
    return siso([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


# ---------------------------------------------------------------------------
# interconnect
# ---------------------------------------------------------------------------

def test_interconnect_static_gains_in_series():
    g2 = linss.gain([[2.0]], (("u", 1),), (("y", 1),))
    g3 = linss.gain([[3.0]], (("u", 1),), (("y", 1),))
    sys = linss.interconnect(
        [("a", g2), ("b", g3)],
        [("a.y", "b.u")],
        [("u", "a.u")],
        [("y", "b.y")],
    )
    assert sys.n_states == 0
    assert sys.D == pytest.approx(np.array([[6.0]]))


def test_block_diag_matches_scipy_bitwise():
    # zero-size blocks still take their rows or columns: the tile stack of
    # the open loop has no states
    rng = make_rng(5)
    shapes = [(2, 3), (0, 0), (0, 2), (3, 0), (1, 1), (4, 2)]
    mats = [rng.standard_normal(shape) for shape in shapes]
    for k in range(1, len(mats) + 1):
        got = linss._block_diag(mats[:k])
        want = scipy.linalg.block_diag(*mats[:k])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert linss._block_diag([]).shape == (0, 0)


def test_interconnect_integrator_unity_feedback():
    # 1/s with unity negative feedback closes to 1/(s+1)
    integ = integrator(1, "u", "y")
    inverter = linss.gain([[-1.0]], (("u", 1),), (("y", 1),))
    closed = linss.interconnect(
        [("i", integ), ("m", inverter)],
        [("i.y", "m.u"), ("m.y", "i.u")],
        [("r", "i.u")],
        [("y", "i.y")],
    )
    ref = first_order_lag()
    grid = np.geomspace(1e-2, 1e2, 40)
    assert max_response_deviation(closed, ref, grid) < 1e-12


def test_interconnect_width_mismatch():
    wide = linss.gain(np.ones((6, 3)), (("u", 3),), (("y", 6),))
    narrow = linss.gain(np.ones((1, 6)), (("u", 6),), (("y", 1),))
    bad = linss.gain(np.ones((1, 3)), (("u", 3),), (("y", 1),))
    with pytest.raises(WidthMismatch):
        linss.interconnect(
            [("a", wide), ("b", bad)],
            [("a.y", "b.u")],
            [("u", "a.u")],
            [("y", "b.y")],
        )
    # sanity: the compatible wiring goes through
    linss.interconnect([("a", wide), ("b", narrow)], [("a.y", "b.u")],
                       [("u", "a.u")], [("y", "b.y")])


def test_interconnect_unknown_channel():
    g = linss.gain([[1.0]], (("u", 1),), (("y", 1),))
    with pytest.raises(UnknownChannel):
        linss.interconnect([("a", g)], [], [("u", "a.nope")], [("y", "a.y")])


def test_interconnect_additive_external_input():
    # external input adds on top of a wired signal at the same target
    g = linss.gain([[1.0]], (("u", 1),), (("y", 1),))
    two = linss.gain([[2.0]], (("u", 1),), (("y", 1),))
    sys = linss.interconnect(
        [("a", g), ("b", two)],
        [("b.y", "a.u")],
        [("d", "a.u"), ("u", "b.u")],
        [("y", "a.y")],
    )
    # y = d + 2 u
    assert sys.D == pytest.approx(np.array([[1.0, 2.0]]))


def test_interconnect_associative_on_response():
    rng = make_rng(7)
    s1 = random_stable_system(rng, 4, 2, 2)
    s2 = random_stable_system(rng, 3, 2, 2)
    s3 = random_stable_system(rng, 5, 2, 2)
    grid = np.geomspace(1e-2, 1e2, 25)

    flat = linss.interconnect(
        [("a", s1), ("b", s2), ("c", s3)],
        [("a.y", "b.u"), ("b.y", "c.u")],
        [("u", "a.u")], [("y", "c.y")])
    inner = linss.interconnect(
        [("a", s1), ("b", s2)], [("a.y", "b.u")],
        [("u", "a.u")], [("y", "b.y")])
    nested = linss.interconnect(
        [("ab", inner), ("c", s3)], [("ab.y", "c.u")],
        [("u", "ab.u")], [("y", "c.y")])

    assert flat.n_states == s1.n_states + s2.n_states + s3.n_states
    assert max_response_deviation(flat, nested, grid) < 1e-8


def test_interconnect_ill_posed_loop():
    # unit-gain positive feedback: I - D_loop = 0
    g = linss.gain([[1.0]], (("u", 1),), (("y", 1),))
    with pytest.raises(IllPosedLoop):
        linss.interconnect([("a", g)], [("a.y", "a.u")],
                           [("u", "a.u")], [("y", "a.y")])


# ---------------------------------------------------------------------------
# invert_channels
# ---------------------------------------------------------------------------

def test_invert_static_gain():
    g = linss.gain([[2.0]], (("u", 1),), (("y", 1),))
    inv = linss.invert_channels(g, ["u"], ["y"])
    assert inv.D == pytest.approx(np.array([[0.5]]))


def test_invert_strictly_proper_rejected():
    with pytest.raises(SingularDBlock):
        linss.invert_channels(first_order_lag(), ["u"], ["y"])


def test_invert_non_square_selection_rejected():
    # one input against two outputs: no feedthrough block to invert
    g = linss.gain([[1.0], [2.0]], (("u", 1),), (("y", 2),))
    with pytest.raises(NonSquareSelection, match="invert widths 1 vs 2"):
        linss.invert_channels(g, ["u"], ["y"])


def test_invert_roundtrip_identity_on_response():
    rng = make_rng(3)
    sys = random_stable_system(rng, 6, 3, 3)
    inv = linss.invert_channels(sys, ["u"], ["y"])
    back = linss.invert_channels(inv, ["y"], ["u"])
    grid = np.geomspace(1e-2, 1e2, 30)
    assert max_response_deviation(sys, back, grid,
                                  ("y", "u"), ("y", "u")) < 1e-8


# ---------------------------------------------------------------------------
# upper LFT
# ---------------------------------------------------------------------------

def test_lft_upper_zero_delta_is_nominal():
    rng = make_rng(5)
    plant = random_stable_system(rng, 5, 3, 3)
    plant = linss.split_channel(plant, "u", [("u", 1), ("w_omega", 2)])
    plant = linss.split_channel(plant, "y", [("y", 1), ("z_omega", 2)])
    closed = linss.lft_upper(plant, 0.0)
    assert [c for c, _ in closed.in_channels] == ["u"]
    assert [c for c, _ in closed.out_channels] == ["y"]
    grid = np.geomspace(1e-2, 1e2, 20)
    assert max_response_deviation(closed, plant, grid,
                                  ("y", "u"), ("y", "u")) < 1e-12


def test_lft_upper_singular_closure():
    # z = w  (D_zw = 1), delta = 1 makes I - delta*D singular
    D = np.array([[0.0, 1.0], [1.0, 1.0]])
    plant = linss.gain(D, (("u", 1), ("w_omega", 1)), (("y", 1), ("z_omega", 1)))
    with pytest.raises(IllPosedLoop):
        linss.lft_upper(plant, 1.0)


def test_lft_upper_is_a_static_closure(monkeypatch):
    # no diagram is wired: the pair closes on the plant's matrices, and an
    # unequal pair is a width mismatch
    rng = make_rng(6)
    base = random_stable_system(rng, 4, 3, 3)
    plant = linss.split_channel(base, "u", [("u", 1), ("w_omega", 2)])
    for name in ("interconnect", "gain"):
        monkeypatch.setattr(linss, name, lambda *a, name=name: pytest.fail(name))
    unequal = linss.split_channel(plant, "y", [("y", 2), ("z_omega", 1)])
    plant = linss.split_channel(plant, "y", [("y", 1), ("z_omega", 2)])
    [want] = linss.StaticClosure(plant, "w_omega", "z_omega")([0.5 * np.eye(2)])
    assert_same_system(linss.lft_upper(plant, 0.5), want)
    with pytest.raises(WidthMismatch):
        linss.lft_upper(unequal, 0.5)


def test_uncertainty_channels_are_named_once():
    # the library names the pair through linss.W_CHANNEL / Z_CHANNEL only
    src = Path(linss.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in ("w_omega", "z_omega"):
                found.append((path.name, node.lineno))
    assert [name for name, _ in found] == ["linss.py", "linss.py"]
    assert (linss.W_CHANNEL, linss.Z_CHANNEL) == ("w_omega", "z_omega")


def test_static_closure_matches_interconnect():
    # the loop channels sit between the kept ones, so dropping them must
    # keep the order of the rest
    rng = make_rng(21)
    sys = random_stable_system(rng, 6, 6, 6)
    sys = linss.split_channel(sys, "u", [("a", 1), ("w", 3), ("b", 2)])
    sys = linss.split_channel(sys, "y", [("c", 2), ("z", 3), ("d", 1)])
    K = 0.3 * rng.standard_normal((3, 3))
    [got] = linss.StaticClosure(sys, "w", "z")([K])
    ref = linss.interconnect(
        [("p", sys), ("k", linss.gain(K, (("z", 3),), (("w", 3),)))],
        [("p.z", "k.z"), ("k.w", "p.w")],
        [("a", "p.a"), ("b", "p.b")], [("c", "p.c"), ("d", "p.d")])
    assert got.in_channels == ref.in_channels == (("a", 1), ("b", 2))
    assert got.out_channels == ref.out_channels == (("c", 2), ("d", 1))
    for M, R in ((got.A, ref.A), (got.B, ref.B), (got.C, ref.C), (got.D, ref.D)):
        assert np.allclose(M, R, rtol=0.0, atol=1e-12)


def test_static_closure_rejects_singular_and_misshaped_loops():
    # D_zw = I: closing w = K z with K = I leaves I - D_zw K = 0
    D = np.zeros((3, 3))
    D[1:, 1:] = np.eye(2)
    plant = linss.gain(D, (("u", 1), ("w", 2)), (("y", 1), ("z", 2)))
    # np.linalg.inv raises on the singular loop: rcond 0, as cond reports it
    with pytest.raises(IllPosedLoop, match=r"ill posed \(rcond=0\.00e\+00\)"):
        linss.StaticClosure(plant, "w", "z")([np.eye(2)])
    assert linss._rcond(np.zeros((2, 2))) == 0.0
    linss.StaticClosure(plant, "w", "z")([0.5 * np.eye(2)])
    with pytest.raises(WidthMismatch):
        linss.StaticClosure(plant, "w", "z")([np.eye(3)])


def test_a_gain_stack_fails_as_its_failing_slice_alone():
    # D_zw = I, so the loop of a slice K is I - K: one non-finite or
    # ill-posed slice fails the whole stack with the error and message of
    # closing it alone, whether the stacked inverse fails (a singular
    # loop) or not (rcond 1e-12)
    D = np.zeros((3, 3))
    D[1:, 1:] = np.eye(2)
    plant = linss.gain(D, (("u", 1), ("w", 2)), (("y", 1), ("z", 2)))
    close = linss.StaticClosure(plant, "w", "z")
    good = 0.5 * np.eye(2)
    for bad in (np.array([[0.5, np.inf], [0.0, 0.5]]), np.eye(2), np.diag([0.0, 1.0 - 1e-12])):
        with pytest.raises(IllPosedLoop) as alone:
            close([bad])
        with pytest.raises(IllPosedLoop) as stacked:
            close([good, bad, good])
        assert str(stacked.value) == str(alone.value)
    loops = np.eye(2) - np.stack([good, np.diag([0.0, 1.0 - 1e-12]), 0.1 * np.ones((2, 2))])
    assert linss._rcond(loops) == [linss._rcond(loop) for loop in loops]
    assert linss._rcond(loops)[1] < linss.WELLPOSED_RCOND
    for misshaped in (good, np.stack([np.eye(3)] * 2), np.ones((2, 2, 3))):
        with pytest.raises(WidthMismatch):
            close(misshaped)


# ---------------------------------------------------------------------------
# frequency response / stability
# ---------------------------------------------------------------------------

def test_freq_response_first_order():
    fr = linss.freq_response(first_order_lag(), np.array([1.0]))
    assert abs(fr.values[0][0, 0]) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_freq_response_static_gain():
    D = np.array([[2.0, 0.5], [0.0, 3.0]])
    g = linss.gain(D, (("u", 2),), (("y", 2),))
    fr = linss.freq_response(g, np.array([0.1, 10.0, 1e4]))
    for v in fr.values:
        assert v == pytest.approx(D)


def test_freq_response_pure_integrator_and_pole_skip():
    integ = integrator(1)
    fr = linss.freq_response(integ, np.array([0.5, 2.0]))
    assert abs(fr.values[0][0, 0]) == pytest.approx(2.0, rel=1e-12)
    assert abs(fr.values[1][0, 0]) == pytest.approx(0.5, rel=1e-12)
    # a grid point sitting exactly on the pole is skipped, not errored
    fr2 = linss.freq_response(
        siso([[0.0, 1.0], [-4.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]),
        np.array([1.0, 2.0, 3.0]))
    assert fr2.skipped == (2.0,)
    assert fr2.points.tolist() == [1.0, 3.0]


def per_point_transfer(sys, ws):
    """Reference for the batched kernel: one ``transfer_at`` per frequency."""
    return np.array([sys.transfer_at(1j * w) for w in ws]).reshape(
        (len(ws),) + sys.D.shape)


def test_transfer_batch_equals_per_point_transfer():
    rng = make_rng(8)
    systems = [random_stable_system(rng, int(rng.integers(1, 40)),
                                    int(rng.integers(1, 4)), int(rng.integers(1, 4)))
               for _ in range(10)]
    for cl in mission_loops(2, 6):
        systems += [cl] + [cl.subsystem([out], [inp]) for inp, out in
                           (("W_ext", "omega_dot_G"), ("d_t", "e_t"))]
    systems.append(linss.gain([[2.0, -1.0], [0.5, 3.0]], (("u", 2),), (("y", 2),)))
    for sys in systems:
        ws = np.asarray(linss._seed_frequencies(np.linalg.eigvals(sys.A))
                        if sys.n_states else [0.1, 1.0])
        G = linss._transfer_batch(sys, ws)
        assert np.array_equal(G, per_point_transfer(sys, ws))
        assert np.array_equal(np.linalg.svd(G, compute_uv=False)[:, 0],
                              [linss.sigma_max(sys, w) for w in ws])
    # more frequencies than one chunk holds
    big = systems[-2]
    ws = np.geomspace(1e-3, 1e3, 3 * linss._BATCH_BYTES // (16 * big.n_states ** 2) + 5)
    assert np.array_equal(linss._transfer_batch(big, ws), per_point_transfer(big, ws))


def test_freq_response_equals_per_point_transfer():
    rng = make_rng(9)
    marginal = siso([[0.0, 1.0], [-4.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    static = linss.gain([[1.5, 0.0, -2.0]], (("u", 3),), (("y", 1),))
    cases = [(random_stable_system(rng, 12, 2, 3), np.geomspace(1e-2, 1e2, 57)),
             (next(mission_loops(1, 2)), np.geomspace(1e-2, 1e2, 41)),
             (marginal, np.array([0.5, 2.0, 3.0])),
             (static, np.array([0.1, 10.0]))]
    for sys, grid in cases:
        fr = linss.freq_response(sys, grid)
        assert np.array_equal(fr.values, per_point_transfer(sys, fr.points))
        assert np.array_equal(fr.magnitude(), [np.linalg.svd(v, compute_uv=False)[0]
                                               for v in fr.values])
    # the marginal pole at 2 rad/s is skipped, not evaluated
    assert linss.freq_response(marginal, [0.5, 2.0, 3.0]).skipped == (2.0,)


def test_is_stable():
    # strictly stable means a spectral abscissa below -STAB_TOL
    assert linss.spectral_abscissa(first_order_lag().A) < -linss.STAB_TOL
    alpha = linss.spectral_abscissa(integrator(1).A)
    assert not alpha < -linss.STAB_TOL
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert linss.spectral_abscissa(np.zeros((0, 0))) == -np.inf


# ---------------------------------------------------------------------------
# priced channel projection
# ---------------------------------------------------------------------------

# the edge costs that price a norm, and the channel pair each prices
PRICED_KINDS = ("hinf-wrench", "h2-theta", "hinf-isens")
PRICED_CHANNELS = (("W_ext", "omega_dot_G"), ("W_ext", "Theta_G"), ("d_t", "e_t"))


def test_priced_norms_reject_visible_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys = linss.StateSpace(A, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]],
                           (("u", 1),), (("y", 1),))
    for norm in (linss.hinf_norm, lambda sys: linss.h2_norm([sys])):
        with pytest.raises(UnstableSystem):
            norm(linss.minimal_stable_projection(sys, "u", "y"))


@pytest.mark.parametrize("norm", [
    linss.hinf_norm, pytest.param(lambda sys: linss.h2_norm([sys]), id="h2_norm")])
def test_priced_norms_reject_unstable_pole(norm):
    # a pole at +1 behind a stable one
    sys = siso([[-2.0, 0.0], [0.0, 1.0]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    with pytest.raises(UnstableSystem, match="abscissa 1.000e"):
        norm(sys)


@pytest.mark.parametrize("first", ["parent", "slice"])
@pytest.mark.parametrize("norm", [
    linss.hinf_norm, pytest.param(lambda sys: linss.h2_norm([sys]), id="h2_norm")])
def test_slice_of_unstable_system_raises_from_each_norm(norm, first):
    # the slice reads its parent's decomposition, whoever computed it, and
    # still runs its own stability test: a pole at +1 behind a stable one
    sys = linss.StateSpace([[-2.0, 0.0], [0.0, 1.0]], np.eye(2), np.eye(2),
                           np.zeros((2, 2)), (("u1", 1), ("u2", 1)),
                           (("y1", 1), ("y2", 1)))
    sub = sys.subsystem(["y2"], ["u1"])
    (sys if first == "parent" else sub).eig()
    with pytest.raises(UnstableSystem, match="abscissa 1.000e"):
        norm(sub)
    assert sub.eig() is sys.eig()


def test_slices_share_their_parents_decomposition():
    cl = next(mission_loops(1, 4))
    eig = np.linalg.eig(cl.A)
    subs = [linss.minimal_stable_projection(cl, *channels)
            for channels in PRICED_CHANNELS]
    # the first slice computes it; the parent and the other slices read it
    first = subs[0].eig()
    assert all(np.array_equal(a, b) for a, b in zip(first, eig))
    for sub in subs:
        assert sub.A is cl.A
        assert sub.eig() is first
        assert sub.subsystem(sub.out_channels[0][:1], sub.in_channels[0][:1]).eig() is first
    assert cl.eig() is first
    # a system built anew from the same matrices decomposes on its own
    assert linss.StateSpace(cl.A, cl.B, cl.C, cl.D, cl.in_channels,
                            cl.out_channels).eig() is not first


def test_subsystem_with_no_channels_on_one_side():
    rng = make_rng(23)
    sys = linss.split_channel(random_stable_system(rng, 4, 3, 2), "u",
                              [("a", 1), ("b", 2)])
    no_inputs = sys.subsystem(["y"], [])
    assert no_inputs.B.shape == (4, 0) and no_inputs.D.shape == (2, 0)
    assert no_inputs.in_channels == () and no_inputs.out_channels == (("y", 2),)
    no_outputs = sys.subsystem([], ["b", "a"])
    assert no_outputs.C.shape == (0, 4) and no_outputs.D.shape == (0, 3)
    assert no_outputs.out_channels == () and no_outputs.in_channels == (("b", 2), ("a", 1))
    assert np.array_equal(no_outputs.B, sys.B[:, [1, 2, 0]])
    for sub in (no_inputs, no_outputs):
        assert sub.A is sys.A
        assert linss.hinf_norm(sub) == 0.0
        assert linss.h2_norm([sub])[0] == 0.0
    with pytest.raises(UnknownChannel):
        sys.subsystem(["y"], ["a", "c"])
    with pytest.raises(UnknownChannel):
        sys.subsystem(["x"], [])
    with pytest.raises(ValueError, match="duplicate input"):
        sys.subsystem(["y"], ["a", "a"])
    with pytest.raises(ValueError, match="duplicate output"):
        sys.subsystem(["y", "y"], [])


def test_one_constructor_per_projection(monkeypatch):
    # the one construction is the unchecked one: a slice of a checked
    # system is not validated again
    cl = next(mission_loops(1, 4))
    checked, unchecked = count_constructors(monkeypatch)
    for channels in PRICED_CHANNELS:
        linss.minimal_stable_projection(cl, *channels)
    assert len(checked) == 0
    assert len(unchecked) == len(PRICED_CHANNELS)


def test_unchecked_systems_are_read_only():
    rng = make_rng(22)
    sys = random_stable_system(rng, 5, 4, 4)
    sys = linss.split_channel(sys, "u", [("a", 1), ("w", 3)])
    sys = linss.split_channel(sys, "y", [("z", 3), ("c", 1)])
    [closed] = linss.StaticClosure(sys, "w", "z")([0.2 * rng.standard_normal((3, 3))])
    for built in (closed, sys.subsystem(["c"], ["w", "a"])):
        for M in (built.A, built.B, built.C, built.D):
            with pytest.raises(ValueError):
                M[0, 0] = 1.0
    with pytest.raises(ValueError):
        sys.subsystem(["c", "c"], ["a"])


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_hinf_first_order():
    assert linss.hinf_norm(first_order_lag()) == pytest.approx(1.0, rel=1e-6)


def test_hinf_resonant_peak_lightly_damped():
    xi, w0 = 0.005, 2.0 * np.pi * 1.2850
    A = [[0.0, 1.0], [-w0 * w0, -2.0 * xi * w0]]
    sys = siso(A, [[0.0], [w0 * w0]], [[1.0, 0.0]], [[0.0]])
    analytic = 1.0 / (2.0 * xi * np.sqrt(1.0 - xi * xi))
    assert linss.hinf_norm(sys) == pytest.approx(analytic, rel=1e-6)
    # Table-value phrasing: the peak is 100.0 to within 0.1 percent
    assert abs(linss.hinf_norm(sys) - 100.0) / 100.0 < 1e-3


def test_hinf_unstable_rejected():
    with pytest.raises(UnstableSystem):
        linss.hinf_norm(siso([[1.0]], [[1.0]], [[1.0]], [[0.0]]))


def test_hinf_uncertified_norm_is_an_eigen_failure(monkeypatch):
    # no certificate round left: the typed error the CLI maps to exit 3,
    # also for a primed channel, whose cached value is then None
    monkeypatch.setattr(linss, "_MAX_ROUNDS", 0)
    with pytest.raises(EigenFailure, match="certificate failed after 0 rounds"):
        linss.hinf_norm(first_order_lag())
    primed = first_order_lag()
    linss._prime_peaks([primed])
    assert primed._modes[linss._peak_key(primed)] is None
    with pytest.raises(EigenFailure, match="certificate failed after 0 rounds"):
        linss.hinf_norm(primed)


SHARP_MODES = [(2.0, 0.3), (13.0, 1e-3)]     # (omega, xi), unit static gains


def sharp_mode_system(monkeypatch):
    """The two-mode system of ``SHARP_MODES``, with the seed grid cut to
    its four decade points, which miss the sharp mode at 13 rad/s."""
    A, B = np.zeros((4, 4)), np.zeros((4, 1))
    for k, (w, xi) in enumerate(SHARP_MODES):
        A[2 * k, 2 * k + 1] = 1.0
        A[2 * k + 1, 2 * k:2 * k + 2] = -w * w, -2.0 * xi * w
        B[2 * k + 1, 0] = w * w
    monkeypatch.setattr(linss, "_seed_frequencies",
                        lambda eigs: np.array([1e-6, 1e-3, 1.0, 1e3]))
    return siso(A, B, [[1.0, 0.0, 1.0, 0.0]], [[0.0]])


def test_hinf_certificate_round_polishes_a_peak_the_seeds_missed(monkeypatch):
    # decade seeds alone miss the sharp mode at 13 rad/s: the first
    # Hamiltonian test finds its crossings, one round evaluates them and
    # their midpoints and polishes the best, and the next test certifies
    sys = sharp_mode_system(monkeypatch)
    found, crossings = [], linss._hamiltonian_imag_crossings
    monkeypatch.setattr(linss, "_hamiltonian_imag_crossings",
                        lambda ss, gs: [found.append(c) or c for c in crossings(ss, gs)])
    norm = linss.hinf_norm(sys)
    # one round ran, and after its polish the certificate passes
    assert [c.size > 0 for c in found] == [True, False]
    ws = np.linspace(0.99 * 13.0, 1.01 * 13.0, 200_001)
    peak = np.abs(sum(w * w / (w * w - ws * ws + 2j * xi * w * ws)
                      for w, xi in SHARP_MODES)).max()
    assert peak <= norm <= peak * (1.0 + 2.0 * linss.HINF_RTOL)
    assert norm == pytest.approx(500.0024988, abs=1e-6)


def test_hinf_static_gain():
    g = linss.gain([[3.0, 0.0], [0.0, 1.0]], (("u", 2),), (("y", 2),))
    assert linss.hinf_norm(g) == pytest.approx(3.0)


def test_hinf_of_a_stable_system_with_no_gain_is_zero():
    # C = 0 and D = 0: every gain of the seed grid is 0
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    sys = linss.StateSpace(A, np.ones((2, 2)), np.zeros((3, 2)), np.zeros((3, 2)),
                           (("u", 2),), (("y", 3),))
    assert linss.hinf_norm(sys) == 0.0


def test_seed_frequencies_of_no_poles_are_the_four_decades():
    # every seed grid holds these four points, so the seed screen of
    # hinf_norm always sees at least four
    ws = linss._seed_frequencies(np.empty(0, dtype=complex))
    assert ws.tolist() == [1e-6, 1e-3, 1.0, 1e3]


def test_distinct_has_the_bits_of_np_unique():
    # linss drops repeated frequencies without np.unique, which imports
    # numpy.ma on its first call; the result keeps np.unique's bits
    rng = make_rng(21)
    ev = np.linalg.eigvals(rng.standard_normal((12, 12)))
    cases = [rng.choice(rng.standard_normal(8), 40),      # random, with repeats
             rng.integers(0, 6, 50) / 4.0,
             np.round(np.abs(ev.imag), 12),               # conjugate pairs
             np.array([0.0, -0.0, 1.0, -0.0, 0.0]),       # signed zeros
             np.array([-0.0, 0.0, -1.5]),
             np.array([2.5]), np.empty(0)]
    for x in cases:
        got, want = linss._distinct(x.copy()), np.unique(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), x


def test_hinf_dominates_grid_and_matches_peak():
    rng = make_rng(42)
    for _ in range(12):
        n = int(rng.integers(2, 12))
        sys = random_stable_system(rng, n, 2, 2, margin=0.1)
        norm = linss.hinf_norm(sys)
        grid = np.geomspace(1e-3, 1e3, 800)
        vals = linss.freq_response(sys, grid).magnitude()
        assert norm >= np.max(vals) - 1e-9
        # match the grid peak after a local polish
        wstar = grid[int(np.argmax(vals))]
        local = np.linspace(wstar * 0.9, wstar * 1.1, 2001)
        peak = max(np.max(linss.freq_response(sys, local).magnitude()),
                   np.max(vals), linss.sigma_max(sys, 1e-9))
        assert norm == pytest.approx(peak, rel=2e-4)




def peak_gain(sys):
    """Independent oracle for the H-infinity norm: the largest sigma_max
    on a dense log grid through the pole frequencies, polished by a
    bounded scalar search between the best point's neighbours."""
    wp = np.abs(np.linalg.eigvals(sys.A).imag)
    wp = np.unique(wp[wp > 1e-9])
    grid = np.union1d(np.geomspace(wp.min() / 100.0, wp.max() * 10.0, 4000), wp)
    vals = linss.freq_response(sys, grid).magnitude()
    k = int(np.argmax(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    res = scipy.optimize.minimize_scalar(
        lambda w: -linss.sigma_max(sys, w), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12 * hi})
    return max(vals[k], -res.fun)


def h2_by_quadrature(sys):
    """Independent oracle: (1/pi) * int_0^inf ||G(jw)||_F^2 dw, one
    quadrature per interval between consecutive pole frequencies, so
    lightly damped peaks sit at interval ends."""
    wp = np.abs(np.linalg.eigvals(sys.A).imag)
    edges = np.concatenate([[0.0], np.unique(wp[wp > 1e-9]), [np.inf]])

    def frob2(w):
        return float(np.sum(np.abs(sys.transfer_at(1j * w)) ** 2))

    total = sum(scipy.integrate.quad(frob2, a, b, epsabs=0.0, epsrel=1e-12,
                                     limit=500)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return np.sqrt(total / np.pi)


@pytest.fixture(scope="module")
def mission():
    """Three sampled 4-tile mission closed loops."""
    return list(mission_loops(3, 4))


@pytest.mark.parametrize("k, channels", [
    pytest.param(k, ch, id=f"{k}-{'-'.join(ch)}")
    for k in range(3) for ch in (("W_ext", "omega_dot_G"), ("d_t", "e_t"))])
def test_hinf_matches_peak_on_mission_loops(mission, k, channels):
    sys = mission[k].subsystem([channels[1]], [channels[0]])
    norm = linss.hinf_norm(sys)
    peak = peak_gain(sys)
    # hinf_norm's bracket has relative width HINF_RTOL = 1e-6
    assert norm <= peak * (1.0 + 1e-6)
    assert norm >= peak * (1.0 - 1e-6)


def test_hinf_matches_oracle_tightly_on_mission_loops():
    # the polished peak is far inside the certificate's 2 * HINF_RTOL: it
    # sits on the oracle, and the level-set test just above it finds no
    # crossing
    for cl in mission_loops(12, 17):
        for inp, out in (("W_ext", "omega_dot_G"), ("d_t", "e_t")):
            sys = cl.subsystem([out], [inp])
            norm = linss.hinf_norm(sys)
            assert norm == pytest.approx(peak_gain(sys), rel=1e-9, abs=0.0)
            assert linss._hamiltonian_imag_crossings([sys], [norm * (1.0 + 2e-6)])[0].size == 0


def block_hamiltonian(sys, g):
    """The H-infinity test Hamiltonian assembled with ``np.block``."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    R = g * g * np.eye(sys.n_inputs) - D.T @ D
    Rinv = np.linalg.solve(R, np.eye(sys.n_inputs))
    Ah = A + B @ Rinv @ D.T @ C
    return np.block([
        [Ah, B @ Rinv @ B.T],
        [-C.T @ (np.eye(sys.n_outputs) + D @ Rinv @ D.T) @ C, -Ah.T],
    ])


def test_hamiltonian_crossings_match_the_loop_filter(monkeypatch):
    # the array filter keeps, rounds and deduplicates exactly the
    # eigenvalues a per-eigenvalue loop keeps, and the Hamiltonian filled in
    # place has the bits of the np.block form, feedthrough or none; each
    # test here is a list of one, and the last slice of the last stack is
    # its Hamiltonian
    spectra, matrices = [], []
    eigvals = np.linalg.eigvals

    def recorded(H):
        ev = eigvals(H)
        matrices.append(H[-1])
        spectra.append(ev[-1])
        return ev

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    found = 0
    rng = make_rng(17)
    with_d = random_stable_system(rng, 5, 2, 3)
    assert np.all(with_d.D != 0.0)
    level = 2.0 * linss.hinf_norm(with_d)
    linss._hamiltonian_imag_crossings([with_d], [level])
    assert np.array_equal(matrices[-1], block_hamiltonian(with_d, level))
    for cl in mission_loops(4, 5):
        for inp, out in (("W_ext", "omega_dot_G"), ("d_t", "e_t")):
            sys = cl.subsystem([out], [inp])
            norm = linss.hinf_norm(sys)
            for level in (0.5 * norm, 0.9 * norm, norm * (1.0 + 2e-6)):
                (got,) = linss._hamiltonian_imag_crossings([sys], [level])
                assert np.array_equal(matrices[-1], block_hamiltonian(sys, level))
                loop = [abs(l.imag) for l in spectra[-1]
                        if abs(l.real) <= 1e-8 * max(1.0, abs(l.imag))]
                assert got.tolist() == sorted(set(np.round(loop, 12)))
                found += got.size
    assert found > 0


@pytest.mark.parametrize("k", range(3))
def test_h2_matches_quadrature_on_mission_loops(mission, k):
    sys = mission[k].subsystem(["Theta_G"], ["W_ext"])
    assert linss.h2_norm([sys])[0] == pytest.approx(h2_by_quadrature(sys),
                                                    rel=1e-8)


def test_priced_norms_match_unprojected_channel_on_mission_loops():
    # every edge price sits on the independent oracle of the loop's sliced
    # channel pair, every state kept: the dense peak for H-infinity (all 24
    # loops), split quadrature for H2 (every third loop, as it is slow)
    oracles = dict(zip(PRICED_KINDS, (peak_gain, h2_by_quadrature, peak_gain)))
    for k, cl in enumerate(mission_loops(24, 7)):
        for kind, (inp, out) in zip(PRICED_KINDS, PRICED_CHANNELS):
            if kind == "h2-theta" and k % 3:
                continue
            price = pathopt._loop_values([cl], pathopt.CostSpec(kind))[0]
            oracle = oracles[kind](cl.subsystem([out], [inp]))
            assert price == pytest.approx(oracle, rel=1e-9, abs=0.0), (k, kind)


def test_one_state_eigensolve_per_loop_for_every_cost(monkeypatch):
    # the four costs of one loop read one np.linalg.eig of its A and one
    # inverse of its eigenvectors, shared by the priced channel slices, and
    # the seed grid of the two H-infinity channels once; a further eig or
    # eigvals of A, a second n x n inv or any n x n cond would be counted
    cl = next(mission_loops(1, 4))
    n = cl.n_states
    of_A, invs, conds, seeds = [], [], [], []
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, solver=solver: of_A.append(
                                np.array_equal(a, cl.A)) or solver(a))
    inv, cond, seed = np.linalg.inv, np.linalg.cond, linss._seed_frequencies
    monkeypatch.setattr(np.linalg, "inv", lambda a: invs.append(np.shape(a)) or inv(a))
    monkeypatch.setattr(np.linalg, "cond",
                        lambda a, p=None: conds.append(np.shape(a)) or cond(a, p))
    monkeypatch.setattr(linss, "_seed_frequencies",
                        lambda eigs: seeds.append(1) or seed(eigs))
    for kind in pathopt.COST_KINDS:
        pathopt._loop_values([cl], pathopt.CostSpec(kind))
    # the margin's closed-loop probes and the Hamiltonian level-set tests
    # solve other matrices: not counted
    assert of_A.count(True) == 1
    assert invs.count((n, n)) == 1
    assert conds.count((n, n)) == 0
    assert len(seeds) == 1


@pytest.fixture(scope="module")
def hinf_channels():
    """The 48 H-infinity channels of ``mission_loops(24, 7)``: both priced
    pairs of each loop, wide 3 x 6 and square 3 x 3."""
    return [cl.subsystem([out], [inp]) for cl in mission_loops(24, 7)
            for inp, out in (("W_ext", "omega_dot_G"), ("d_t", "e_t"))]


def test_pole_residue_kernel_matches_stacked_solve(hinf_channels):
    # the kernel hinf_norm evaluates every gain through, against its
    # oracle on the seed grid, relative to the largest entry there (which
    # is tighter than to the channel peak).  The worst mission channel is
    # 1.36e-12 off at w = 1e-6: its close slow real poles bound the
    # eigenvectors' accuracy, while the stacked solve sits within 6e-15 of
    # a 40-digit evaluation there
    rng = make_rng(12)
    systems = list(hinf_channels)
    systems += [random_stable_system(rng, int(rng.integers(1, 20)),
                                     int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                for _ in range(8)]
    for sys in systems:
        eigs, V = sys.eig()
        assert np.linalg.cond(V) < linss.MODAL_COND_MAX
        assert sys.modal_inverse() is not None
        ws = np.asarray(linss._seed_frequencies(eigs))
        G = linss._transfer_kernel(sys)(ws)
        ref = linss._transfer_batch(sys, ws)
        assert np.max(np.abs(G - ref)) <= 2e-12 * np.max(np.abs(ref))


def test_gram_sigma_max_matches_svd(hinf_channels):
    # the top eigenvalue of G G^H against the SVD: on the seed-grid
    # transfers of the mission channels (wide and square stacks) and of tall
    # random systems, whose G G^H is rank deficient and which no mission
    # channel is
    rng = make_rng(31)
    tall = [random_stable_system(rng, int(rng.integers(2, 16)), m,
                                 int(rng.integers(m + 1, 6)))
            for m in (1, 2, 3) for _ in range(3)]
    for sys in list(hinf_channels) + tall:
        G = linss._transfer_batch(
            sys, linss._seed_frequencies(np.linalg.eigvals(sys.A)))
        ref = np.linalg.svd(G, compute_uv=False)[:, 0]
        assert np.all(np.abs(linss._gram_sigma_max(G) - ref) <= 1e-14 * ref)
    assert any(sys.n_outputs > sys.n_inputs for sys in tall)


def three_best_polish(sys):
    """The polish before peak-only searches: Brent searches from each of
    the seed grid's three best points, sigma_max by SVD.  Returns the
    polished gain and the number of sigma calls."""
    eigs, _ = sys.eig()
    kernel = linss._transfer_kernel(sys)
    calls = []

    def sigma(G):
        calls.append(G)
        return np.linalg.svd(G, compute_uv=False)[..., 0]

    ws = linss._seed_frequencies(eigs)
    (vals,) = linss._gains([kernel], [ws], sigma)
    sd = float(np.linalg.svd(sys.D, compute_uv=False)[0])
    (polished,) = linss._polish([kernel], sigma, [(ws, vals, np.argsort(vals)[-3:])])
    return max(sd, polished), len(calls)


def test_peak_only_polish_matches_three_best_polish(hinf_channels, monkeypatch):
    # searches that start beside a higher grid neighbour never reach the
    # peak but crawl to their bracket edge, and the lockstep waits for
    # them: dropping them keeps every norm, takes well under the sigma calls
    # (500 of 1,107 here; the Gram matrix in place of the SVD alone changes
    # the count by one), and buys back no steps with an extra certificate
    # round
    old = [three_best_polish(sys) for sys in hinf_channels]
    sigma_calls, certificates = [], []
    gram, crossings = linss._gram_sigma_max, linss._hamiltonian_imag_crossings
    monkeypatch.setattr(linss, "_gram_sigma_max",
                        lambda G: sigma_calls.append(G) or gram(G))
    monkeypatch.setattr(linss, "_hamiltonian_imag_crossings",
                        lambda ss, gs: certificates.extend(gs) or crossings(ss, gs))
    for sys, (gamma, _) in zip(hinf_channels, old):
        certificates.clear()
        assert linss.hinf_norm(sys) == pytest.approx(gamma, rel=1e-12, abs=0.0)
        assert len(certificates) == 1
    assert len(sigma_calls) < 0.6 * sum(calls for _, calls in old)
    # the count holds the polish steps, not only one screen per channel
    assert len(sigma_calls) > 5 * len(hinf_channels)


def every_point_hinf(sys):
    """``hinf_norm`` of a system with states, with sigma_max taken at
    every seed point: no screen."""
    kernel = linss._transfer_kernel(sys)

    def sigma(ws):
        return linss._gains([kernel], [ws], linss._gram_sigma_max)[0]

    def polish(ws, vals, idx):
        return linss._polish([kernel], linss._gram_sigma_max, [(ws, vals, idx)])[0]

    sd = float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
    ws = linss._seed_grid(sys)
    vals = sigma(ws)
    peak = np.ones(vals.size, dtype=bool)
    peak[1:] &= vals[1:] >= vals[:-1]
    peak[:-1] &= vals[:-1] >= vals[1:]
    top = np.argsort(vals, kind="stable")[-3:]
    gamma = max(sd, polish(ws, vals, top[peak[top]]))
    if gamma <= 0.0:
        return 0.0
    for _ in range(linss._MAX_ROUNDS):
        level = gamma * (1.0 + 2.0 * linss.HINF_RTOL)
        (cross,) = linss._hamiltonian_imag_crossings([sys], [level])
        if not cross.size:
            return gamma
        ws = np.unique(np.concatenate([cross, 0.5 * (cross[:-1] + cross[1:])]))
        vals = sigma(ws)
        best = polish(ws, vals, [int(np.argmax(vals))])
        if best <= gamma:
            return gamma
        gamma = best
    raise AssertionError("no certificate")


def test_seed_screen_keeps_the_grid_answer(hinf_channels, monkeypatch):
    # the Frobenius screen takes sigma_max at fewer than half the seed
    # points of the mission channels (about 1 in 7 on the wide 3 x 6 pair,
    # 3 in 4 on the flatter square one), and every norm keeps the bits of
    # taking it at all of them: on the mission channels, on a constant gain
    # (every grid value ties, so the screen keeps every point) and on a
    # channel with no input (an empty transfer, norm 0, as with no output)
    rng = make_rng(5)
    base = random_stable_system(rng, 6, 2, 3)
    constant = linss.StateSpace(base.A, base.B, np.zeros_like(base.C), base.D,
                                base.in_channels, base.out_channels)
    no_input = linss.StateSpace(base.A, np.zeros((6, 0)), base.C, np.zeros((3, 0)),
                                (), base.out_channels)
    screened, kept, seeds = [], 0, 0
    gram = linss._gram_sigma_max
    monkeypatch.setattr(linss, "_gram_sigma_max",
                        lambda G: screened.append(G.shape[0]) or gram(G))
    for sys in list(hinf_channels) + [constant, no_input]:
        oracle = every_point_hinf(sys)
        screened.clear()
        norm = linss.hinf_norm(sys)
        assert norm == oracle
        if sys is constant:
            assert norm == pytest.approx(np.linalg.svd(base.D, compute_uv=False)[0],
                                         rel=1e-14)
            assert screened[0] == linss._seed_grid(sys).size
        elif sys is no_input:
            assert norm == 0.0
        else:
            kept += screened[0]
            seeds += linss._seed_grid(sys).size
    assert kept < 0.5 * seeds
    no_output = linss.StateSpace(base.A, base.B, np.zeros((0, 6)), np.zeros((0, 2)),
                                 base.in_channels, ())
    assert linss.hinf_norm(no_output) == 0.0


def dict_polish(sigma, ws, vals, idx):
    """The lockstep polish as it was: a dict of Brent generators keyed by
    search, numpy-float brackets and one ``np.max`` per step."""
    edges = np.concatenate([[0.0], ws, [2.0 * ws[-1]]])
    best = float(np.max(vals[idx]))
    steps = {}
    for k in idx:
        search = linss._brent_max(edges[k], edges[k + 2], ws[k], vals[k])
        steps[search] = next(search)
    while steps:
        fs = sigma(list(steps.values()))
        best = max(best, float(np.max(fs)))
        for search, f in zip(list(steps), fs):
            try:
                steps[search] = search.send(f)
            except StopIteration:
                del steps[search]
    return best


def block_filled_crossings(sys, g):
    """The level-set crossings as they were: two identities, the blocks
    filled in place, and the eigenvalues always rounded and deduplicated."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n_states
    R = g * g * np.eye(sys.n_inputs) - D.T @ D
    Rinv = np.linalg.solve(R, np.eye(sys.n_inputs))
    BR = B @ Rinv
    Q = D @ Rinv @ D.T
    Q[np.diag_indices_from(Q)] += 1.0
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A + BR @ D.T @ C
    H[:n, n:] = BR @ B.T
    H[n:, :n] = -C.T @ Q @ C
    H[n:, n:] = -H[:n, :n].T
    ev = np.linalg.eigvals(H)
    keep = np.abs(ev.real) <= 1e-8 * np.maximum(1.0, np.abs(ev.imag))
    return np.unique(np.round(np.abs(ev.imag[keep]), 12))


def reference_hinf(sys):
    """``hinf_norm`` of a system with states and a modal form, as it was:
    the resolvent from ``np.asarray(ws).ravel()``, ``svd(D)`` always taken,
    ``dict_polish`` and ``block_filled_crossings``.  Returns the norm and
    every polish's inputs and result, and every certificate level."""
    eigs = sys.eig()[0]
    CV, VB = linss._modal_form(sys)
    p, m = sys.D.shape
    res = (CV.T[:, :, None] * VB[:, None, :]).reshape(eigs.size, p * m)

    def transfer(ws):
        R = 1.0 / (1j * np.asarray(ws, dtype=float).ravel()[:, None] - eigs)
        return (R @ res).reshape(R.shape[0], p, m) + sys.D

    def sigma(ws):
        return linss._gram_sigma_max(transfer(ws))

    polishes, levels = [], []

    def polish(ws, vals, idx):
        polishes.append((ws, vals, idx, dict_polish(sigma, ws, vals, idx)))
        return polishes[-1][-1]

    sd = float(np.linalg.svd(sys.D, compute_uv=False)[0])
    ws = linss._seed_grid(sys)
    vals = linss._screened_sigma_max(transfer(ws)[None])[0]
    peak = np.ones(vals.size, dtype=bool)
    peak[1:] &= vals[1:] >= vals[:-1]
    peak[:-1] &= vals[:-1] >= vals[1:]
    top = np.argsort(vals, kind="stable")[-3:]
    gamma = max(sd, polish(ws, vals, top[peak[top]]))
    for _ in range(linss._MAX_ROUNDS):
        level = gamma * (1.0 + 2.0 * linss.HINF_RTOL)
        levels.append(level)
        cross = block_filled_crossings(sys, level)
        if not cross.size:
            return gamma, polishes, levels
        ws = np.unique(np.concatenate([cross, 0.5 * (cross[:-1] + cross[1:])]))
        vals = sigma(ws)
        best = polish(ws, vals, [int(np.argmax(vals))])
        if best <= gamma:
            return gamma, polishes, levels
        gamma = best
    raise AssertionError("no certificate")


def test_lean_norm_pieces_keep_the_bits_of_the_old_ones(hinf_channels, monkeypatch):
    # the list-based polish, the crossings without their rounding when
    # none is imaginary and the inline resolvent give every bit of the
    # forms they replaced: on both channel pairs of the mission loops, on
    # random systems and on 1 - 0.5 / (s + 1), whose peak 1 = sigma_max(D)
    # is at infinity.  Each norm takes one SVD, of D, for its gain at
    # infinity.  No system here needs a second certificate round, so the
    # polish of one is run from the crossings below the norm
    rng = make_rng(41)
    at_infinity = siso([[-1.0]], [[1.0]], [[-0.5]], [[1.0]])
    systems = list(hinf_channels) + [at_infinity]
    systems += [random_stable_system(rng, int(rng.integers(2, 12)),
                                     int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                     margin=float(rng.choice([0.01, 0.2])),
                                     feedthrough=bool(k % 2))
                for k in range(16)]
    refs = [reference_hinf(sys) for sys in systems]
    assert refs[len(hinf_channels)][0] == 1.0
    rounds = 0
    for sys, (_, polishes, levels) in zip(systems, refs):
        kernel = linss._transfer_kernel(sys)

        def sigma(ws):
            return linss._gram_sigma_max(kernel(ws))

        def polish(ws, vals, idx):
            return linss._polish([kernel], linss._gram_sigma_max, [(ws, vals, idx)])[0]

        for ws, vals, idx, best in polishes:
            assert polish(ws, vals, idx).hex() == best.hex()
        # below the norm the level set crosses: polish from the best of
        # the crossings and their midpoints, as a certificate round does
        for level in levels + [0.5 * levels[0], 0.9 * levels[0]]:
            (got,) = linss._hamiltonian_imag_crossings([sys], [level])
            want = block_filled_crossings(sys, level)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            if got.size:
                ws = np.unique(np.concatenate([got, 0.5 * (got[:-1] + got[1:])]))
                vals = sigma(ws)
                idx = [int(np.argmax(vals))]
                assert (polish(ws, vals, idx).hex()
                        == dict_polish(sigma, ws, vals, idx).hex())
                rounds += 1
    assert rounds > len(systems)
    svd = np.linalg.svd
    svds = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: svds.append(1) or svd(a, **kw))
    took_svd = []
    for sys, (gamma, _, _) in zip(systems, refs):
        svds.clear()
        assert linss.hinf_norm(sys).hex() == gamma.hex()
        took_svd.append(len(svds))
    assert took_svd == [1] * len(systems)


def test_defective_state_matrix_takes_the_stacked_solve(monkeypatch):
    # a Jordan-block double pole: 1 / (s + 1)^2 peaks at 1 at w = 0, and
    # its eigenvector matrix is numerically singular
    jordan = siso([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    assert np.linalg.cond(np.linalg.eig(jordan.A)[1]) >= linss.MODAL_COND_MAX
    assert jordan.modal_inverse() is None
    calls = []
    batch = linss._transfer_batch
    monkeypatch.setattr(linss, "_transfer_batch",
                        lambda sys, ws: calls.append(sys) or batch(sys, ws))
    assert linss.hinf_norm(jordan) == pytest.approx(1.0, rel=linss.HINF_RTOL)
    assert calls and all(sys is jordan for sys in calls)
    # a mission channel never reaches the stacked solve
    calls.clear()
    linss.hinf_norm(next(mission_loops(1, 4)).subsystem(["e_t"], ["d_t"]))
    assert calls == []


def test_h2_first_order_analytic():
    # ||1/(s+1)||_2 = sqrt(1/2)
    assert linss.h2_norm([first_order_lag()])[0] == pytest.approx(np.sqrt(0.5), rel=1e-12)


def kronecker_h2(sys):
    """H2 norm from the Lyapunov equation solved as one dense Kronecker
    system, ``(I (x) A + A (x) I) vec P = -vec(B B^T)``."""
    n = sys.n_states
    eye = np.eye(n)
    P = np.linalg.solve(np.kron(eye, sys.A) + np.kron(sys.A, eye),
                        -(sys.B @ sys.B.T).ravel()).reshape(n, n)
    return float(np.sqrt(np.trace(sys.C @ P @ sys.C.T)))


def test_h2_matches_kronecker_solve_on_mission_loops():
    # the priced H2 channel of all 24 loops, through the pole-residue form
    for k, cl in enumerate(mission_loops(24, 7)):
        sys = cl.subsystem(["Theta_G"], ["W_ext"])
        assert np.linalg.cond(np.linalg.eig(sys.A)[1]) < linss.MODAL_COND_MAX
        assert sys.modal_inverse() is not None
        assert linss.h2_norm([sys])[0] == pytest.approx(kronecker_h2(sys),
                                                        rel=1e-11, abs=0.0), k


def pencil_crossings(sys):
    """Independent oracle for the margin's crossings: the real finite
    generalized eigenvalues delta of the Kronecker-sum pencil ``(A (+) A) +
    delta (M (+) M)``, ``M = B_w C_z``, ``X (+) Y = X (x) I + I (x) Y``,
    at which two eigenvalues of ``A + delta M`` sum to zero.  Imaginary
    parts within 1e-6 of the modulus count as real."""
    M = sys.B[:, sys.in_slice("w_omega")] @ sys.C[sys.out_slice("z_omega"), :]
    eye = np.eye(sys.n_states)

    def ksum(X):
        return np.kron(X, eye) + np.kron(eye, X)

    ev = scipy.linalg.eigvals(ksum(sys.A), -ksum(M))
    ev = ev[np.isfinite(ev)]
    return ev[np.abs(ev.imag) <= 1e-6 * np.abs(ev)].real


def test_priced_norms_and_margin_match_oracles_on_mission_scale_loops():
    # four closed loops of the 28-tile mission, gains sized at N = 28: each
    # price sits on its independent oracle, no loop falls back from the
    # modal form, and the margin has the bits of the scan by probing alone.
    # On each sign the margin's nearest crossing candidate below 1e6 in
    # magnitude sits on the Kronecker-sum pencil's nearest real eigenvalue
    # (within 6e-13 relative, checked to 1e-9); a sign with none (the
    # positive one here, whose candidates near 1e14 come from a Phi
    # eigenvalue at rounding level, an infinite one of the pencil) has no
    # pencil eigenvalue either
    models = sc.ScenarioModels(sc.table_scenario(28))
    K = models.design_gains()
    oracles = dict(zip(PRICED_KINDS, (peak_gain, kronecker_h2, peak_gain)))
    for k, (state, qs) in enumerate(mission_states(4, 5, N=28)):
        cl = closed_loop(models, state, qs, K)
        assert cl.modal_inverse() is not None
        for kind, (inp, out) in zip(PRICED_KINDS, PRICED_CHANNELS):
            price = pathopt._loop_values([cl], pathopt.CostSpec(kind))[0]
            oracle = oracles[kind](cl.subsystem([out], [inp]))
            assert price == pytest.approx(oracle, rel=1e-9, abs=0.0), (k, kind)
        assert robust.mu_real_repeated(cl).delta_crit == robust._scan_crossing(cl, 20.0)
        deltas = robust._crossings(cl, *cl.eig(), cl.modal_inverse())
        deltas = deltas[np.abs(deltas) < 1e6]
        pencil = pencil_crossings(cl)
        assert np.any(deltas < 0.0), k
        for sign in (1.0, -1.0):
            ours = np.abs(deltas[np.sign(deltas) == sign])
            theirs = np.abs(pencil[np.sign(pencil) == sign])
            assert (ours.size > 0) == (theirs.size > 0), (k, sign)
            if ours.size:
                assert ours.min() == pytest.approx(theirs.min(), rel=1e-9, abs=0.0), (k, sign)


def test_hinf_prices_match_a_dense_stacked_solve_grid_on_mission_scale_loops():
    # the four loops above, both H-infinity prices, against the largest
    # sigma_max (numpy's SVD) of the stacked solve at 20,000 log-spaced
    # frequencies across the loop's seed grid (1e-6 to 1e3 rad/s, 0.1 %
    # apart).  No grid point may top the certified bound.  Between its
    # points the grid falls short of a peak, by about (0.05 % / xi)^2 / 2
    # on a resonance of damping xi; the priced peaks of these loops are
    # broad, and it falls short by at most 3.0e-5, so the price must lie
    # within 1e-4 of the grid's peak.  The complex mu bound, the spectral
    # radius of w_omega -> z_omega polished on the same seed grid, is
    # checked against the same grid plus w = 0 and infinity: no point may
    # top it, and its peaks are sharper (it lies 1e-5 to 4.4e-4 above the
    # grid's peak here), so it must lie within 1e-3
    models = sc.ScenarioModels(sc.table_scenario(28))
    K = models.design_gains()
    for k, (state, qs) in enumerate(mission_states(4, 5, N=28)):
        cl = closed_loop(models, state, qs, K)
        bound, peak = robust.mu_upper_bound(cl), dense_spectral_radius_peak(cl)
        assert peak <= bound * (1.0 + 1e-9), k
        assert bound == pytest.approx(peak, rel=1e-3, abs=0.0), k
        for kind, (inp, out) in zip(PRICED_KINDS, PRICED_CHANNELS):
            if kind == "h2-theta":
                continue
            price = pathopt._loop_values([cl], pathopt.CostSpec(kind))[0]
            sys = cl.subsystem([out], [inp])
            seeds = linss._seed_grid(sys)
            ws = np.geomspace(seeds.min(), seeds.max(), 20_000)
            peak = np.linalg.svd(linss._transfer_batch(sys, ws),
                                 compute_uv=False)[:, 0].max()
            assert peak <= price * (1.0 + 2.0 * linss.HINF_RTOL), (k, kind)
            assert price == pytest.approx(peak, rel=1e-4, abs=0.0), (k, kind)


@pytest.fixture(scope="module")
def mission_scale_loops():
    """The four N = 28 closed loops of the two tests above."""
    models = sc.ScenarioModels(sc.table_scenario(28))
    K = models.design_gains()
    return [closed_loop(models, state, qs, K) for state, qs in mission_states(4, 5, N=28)]


HINF_PAIRS = (("W_ext", "omega_dot_G"), ("d_t", "e_t"))


def test_bound_stage_lies_below_both_exact_stages(mission_scale_loops, monkeypatch):
    # hinf_norm and mu_upper_bound each build their seed grid through the
    # one bound stage, once per call and with their own gain, and polish
    # from its starts, the best of which is the grid's best point.  That
    # best grid gain is a lower bound on the peak, so it lies at or below
    # both exact stages: on random systems (square, the pair named w_omega
    # -> z_omega so that both stages apply to the whole system) and on both
    # H-infinity channels and the uncertainty pair of the N = 28 loops
    rng = make_rng(47)
    cases = []
    for k in range(12):
        m = int(rng.integers(1, 4))
        s = random_stable_system(rng, int(rng.integers(1, 16)), m, m,
                                 margin=float(rng.choice([0.01, 0.2])),
                                 feedthrough=bool(k % 2))
        wz = linss.StateSpace(s.A, s.B, s.C, s.D, (("w_omega", m),), (("z_omega", m),))
        cases.append(([wz], wz))
    cases += [([cl.subsystem([out], [inp]) for inp, out in HINF_PAIRS], cl)
              for cl in mission_scale_loops]
    stages = []
    bound, polish = linss._seed_bound, linss._polish

    def recorded_bound(kernels, gain):
        stages.append((kernels, gain, bound(kernels, gain)))
        return stages[-1][-1]

    def recorded_polish(kernels, gain, grids):
        stages.append(grids)
        return polish(kernels, gain, grids)

    for module in (linss, robust):
        monkeypatch.setattr(module, "_seed_bound", recorded_bound)
        monkeypatch.setattr(module, "_polish", recorded_polish)
    for channels, loop in cases:
        for gain, price, systems in ((linss._screened_sigma_max, linss.hinf_norm, channels),
                                     (robust._spectral_radius, robust.mu_upper_bound, [loop])):
            for sys in systems:
                stages.clear()
                value = price(sys)
                ((kernel,), used, grids), polished = stages[:2]
                ((ws, vals, starts),) = grids
                assert used is gain
                assert ws is linss._seed_grid(kernel.sys)
                assert polished is grids and vals[starts[-1]] == vals.max()
                assert vals.max() <= value


def loop_digest(sys) -> str:
    """The first 16 hex digits of a SHA-256 over the shapes and bits of
    ``sys``'s A, B, C and D."""
    h = hashlib.sha256()
    for M in (sys.A, sys.B, sys.C, sys.D):
        h.update(repr(M.shape).encode())
        h.update(M.tobytes())
    return h.hexdigest()[:16]


# hinf_norm of the two H-infinity channels and mu_upper_bound of each N = 28
# loop, as float.hex, keyed by the loop's digest, recorded from the search
# before its seed-grid stage was split out (numpy 2.4 with its OpenBLAS,
# x86-64).  The two loops at n = 26 close with other bits on one BLAS
# thread than on two or four, so each of them has a row per setting.
MISSION_SCALE_PEAKS = {
    # any thread count
    "41aef90f4dd7076f": ["0x1.6607ebbc33d07p-5", "0x1.052efe72a9189p+2",
                         "0x1.13a886e557f18p+4"],
    "1d3ed900420dc920": ["0x1.81aa9c5d2fceap-2", "0x1.5679320df741bp+0",
                         "0x1.1ff4768031322p+2"],
    # two or four BLAS threads
    "7db54f08e553d502": ["0x1.17b743937751dp-6", "0x1.4b3c0214fc1e9p+0",
                         "0x1.2252c8e36a1cap+4"],
    "44680379be2b5386": ["0x1.b61f9e8801136p-6", "0x1.5caffcc37e282p+0",
                         "0x1.21dbac836e742p+4"],
    # one BLAS thread
    "0e948018af84641e": ["0x1.17b74393491ddp-6", "0x1.4b3c0214f0464p+0",
                         "0x1.2252c8e380ff3p+4"],
    "a3e6ee9587fc2f26": ["0x1.b61f9e87a0c62p-6", "0x1.5caffcc3782f0p+0",
                         "0x1.21dbac83859a3p+4"],
}


def test_two_stage_peaks_keep_their_bits_on_mission_scale_loops(mission_scale_loops):
    keys = [loop_digest(cl) for cl in mission_scale_loops]
    # a loop with bits no row was recorded for fails here, not silently
    assert set(keys) <= set(MISSION_SCALE_PEAKS), keys
    got = [[linss.hinf_norm(cl.subsystem([out], [inp])).hex() for inp, out in HINF_PAIRS]
           + [robust.mu_upper_bound(cl).hex()] for cl in mission_scale_loops]
    assert got == [MISSION_SCALE_PEAKS[key] for key in keys]


def fresh(sys):
    """``sys`` with its own empty ``_modes`` cache."""
    return linss.StateSpace._unchecked(sys.A, sys.B, sys.C, sys.D,
                                       sys.in_channels, sys.out_channels)


def primed_cases(hinf_channels, mission_scale_loops):
    """The channels of ``test_primed_peaks_keep_the_bits_of_each_norm_alone``
    that ``_prime_peaks`` primes, and those it leaves to ``hinf_norm``.
    The first list mixes both channel shapes (3 x 6 and 3 x 3), the state
    counts of the N = 4 and N = 28 loops and of random systems with and
    without feedthrough, and ends with a defective A (the stacked-solve
    fallback); the second holds an unstable system, a static gain and a
    channel with no input."""
    rng = make_rng(53)
    randoms = [random_stable_system(rng, n, m, 3, margin=float(rng.choice([0.01, 0.2])),
                                    feedthrough=bool(k % 2))
               for n in (5, 11) for m in (6, 3) for k in range(3)]
    base = random_stable_system(rng, 6, 2, 3)
    jordan = siso([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    left_out = [
        siso([[1.0]], [[1.0]], [[1.0]], [[0.0]]),
        linss.gain([[3.0, 0.0], [0.0, 1.0]], (("u", 2),), (("y", 2),)),
        linss.StateSpace(base.A, np.zeros((6, 0)), base.C, np.zeros((3, 0)),
                         (), base.out_channels),
    ]
    mission = [cl.subsystem([out], [inp]) for cl in mission_scale_loops
               for inp, out in HINF_PAIRS]
    return list(hinf_channels) + mission + randoms + [jordan], left_out


def test_primed_peaks_keep_the_bits_of_each_norm_alone(hinf_channels, mission_scale_loops,
                                                       monkeypatch):
    # _prime_peaks polishes the peaks of a whole list in one lockstep and
    # certifies them in stacked level-set tests, as the planner does per
    # chunk of edges; hinf_norm then takes each norm, with no Hamiltonian
    # test of its own, and every norm has the bits of hinf_norm alone.
    # The polish runs from grids with 1, 2 and 3 starts, and the defective
    # A takes its stacked solve inside the pass.  The systems the list
    # leaves to hinf_norm are priced as before
    primed_systems, left_out = primed_cases(hinf_channels, mission_scale_loops)
    systems = primed_systems + left_out
    assert len({(s.n_states, s.D.shape) for s in primed_systems}) >= 4

    def alone(sys):
        try:
            return linss.hinf_norm(fresh(sys)).hex()
        except UnstableSystem:
            return "unstable"

    want = [alone(s) for s in systems]
    batch = linss._transfer_batch
    fallback = []
    monkeypatch.setattr(linss, "_transfer_batch",
                        lambda sys, ws: fallback.append(sys) or batch(sys, ws))
    bound, starts = linss._seed_bound, []
    monkeypatch.setattr(linss, "_seed_bound",
                        lambda kernels, gain: [starts.append(len(g[2])) or g
                                               for g in bound(kernels, gain)])
    crossings, tested = linss._hamiltonian_imag_crossings, []
    monkeypatch.setattr(linss, "_hamiltonian_imag_crossings",
                        lambda ss, gs: tested.append(len(ss)) or crossings(ss, gs))
    listed = [fresh(s) for s in systems]
    linss._prime_peaks(listed)
    assert {1, 2, 3} <= set(starts) and len(starts) == len(primed_systems)
    assert tested == [len(primed_systems)]
    assert fallback and all(sys is listed[len(primed_systems) - 1] for sys in fallback)
    # every primed norm is certified by the stacked round 1
    primed = [s._modes.get(linss._peak_key(s), "absent") for s in listed]
    assert [type(norm) for norm in primed] == ([float] * len(primed_systems)
                                               + [str] * len(left_out))
    fallback.clear()
    got = []
    for sys in listed:
        tested.clear()
        try:
            got.append(linss.hinf_norm(sys).hex())
        except UnstableSystem:
            got.append("unstable")
        assert linss._peak_key(sys) not in sys._modes
        assert tested == []
    assert got == want and want[-3] == "unstable"
    assert not fallback


def test_stacked_hamiltonians_keep_the_bits_of_each_alone(hinf_channels, mission_scale_loops,
                                                          monkeypatch):
    # every slice of a stacked level-set Hamiltonian is the matrix of its
    # system built alone, and its crossings are those of its test alone, at
    # levels above the norm (no crossing) and below it (crossings).  The
    # 24 channels of each mission shape span several _STACK_BYTES stacks
    systems, _ = primed_cases(hinf_channels, mission_scale_loops)
    levels = [linss.hinf_norm(fresh(s)) * f for s, f in
              zip(systems, itertools.cycle((1.0 + 2.0 * linss.HINF_RTOL, 0.9, 0.5)))]
    stacks, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda H: stacks.append(H) or eigvals(H))
    together = linss._hamiltonian_imag_crossings(systems, levels)
    slices = [H for stack in stacks for H in stack]
    assert len(slices) == len(systems)
    shapes = {}
    for i, s in enumerate(systems):
        shapes.setdefault((s.n_states, s.D.shape), []).append(i)
    per_stack = linss._STACK_BYTES // (32 * systems[0].n_states ** 2)
    assert len(shapes[(systems[0].n_states, systems[0].D.shape)]) > per_stack
    assert len(stacks) > len(shapes) and max(len(H) for H in stacks) == per_stack
    order = [i for idx in shapes.values() for i in idx]
    stacks.clear()
    crossed = 0
    for k, i in enumerate(order):
        (alone,) = linss._hamiltonian_imag_crossings([systems[i]], [levels[i]])
        assert np.array_equal(slices[k], stacks[-1][0])
        assert alone.dtype == together[i].dtype and np.array_equal(alone, together[i])
        crossed += alone.size > 0
    assert 0 < crossed < len(systems)


def test_a_primed_peak_with_crossings_takes_the_rounds_of_hinf_norm(hinf_channels,
                                                                    monkeypatch):
    # peaks the stacked round 1 cannot certify (here two, of different
    # shapes, polished to 0.9 of their values) run hinf_norm's crossing
    # rounds inside _prime_peaks, both in one stacked test per round; the
    # bits are those of hinf_norm alone from the same low peaks, and
    # hinf_norm then makes no Hamiltonian test
    low = [hinf_channels[4], hinf_channels[7]]
    assert low[0].D.shape != low[1].D.shape
    lowered = {id(s.B) for s in low}
    peaks = linss._hinf_peaks
    monkeypatch.setattr(linss, "_hinf_peaks",
                        lambda kernels: [0.9 * p if id(k.sys.B) in lowered else p
                                         for k, p in zip(kernels, peaks(kernels))])
    true_peaks = peaks([linss._transfer_kernel(s) for s in low])
    for sys, peak in zip(low, true_peaks):
        assert np.linalg.svd(sys.D, compute_uv=False)[0] < 0.9 * peak
    want = [linss.hinf_norm(fresh(s)).hex() for s in hinf_channels]
    crossings, tested = linss._hamiltonian_imag_crossings, []
    monkeypatch.setattr(linss, "_hamiltonian_imag_crossings",
                        lambda ss, gs: tested.append(len(ss)) or crossings(ss, gs))
    listed = [fresh(s) for s in hinf_channels]
    linss._prime_peaks(listed)
    assert tested == [len(listed), 2]
    got = []
    for sys in listed:
        tested.clear()
        got.append(linss.hinf_norm(sys).hex())
        assert tested == []
    assert got == want
    for i, peak in zip((4, 7), true_peaks):
        assert float.fromhex(got[i]) == pytest.approx(peak, rel=2.0 * linss.HINF_RTOL)


def test_prime_peaks_runs_each_certificate_round_for_the_channels_still_open(monkeypatch):
    # the sharp-mode system, whose seeds miss its sharp mode, needs one
    # crossing round; primed with a channel that round 1 certifies, round
    # 1 tests both and round 2 only the open one, and each norm has the
    # bits of hinf_norm alone
    systems = [first_order_lag(), sharp_mode_system(monkeypatch)]
    want = [linss.hinf_norm(fresh(s)).hex() for s in systems]
    crossings, tested = linss._hamiltonian_imag_crossings, []
    monkeypatch.setattr(linss, "_hamiltonian_imag_crossings",
                        lambda ss, gs: tested.append(len(ss)) or crossings(ss, gs))
    listed = [fresh(s) for s in systems]
    linss._prime_peaks(listed)
    assert tested == [2, 1]
    assert [s._modes[linss._peak_key(s)].hex() for s in listed] == want
    assert float.fromhex(want[1]) == pytest.approx(500.0024988, abs=1e-6)


def test_h2_defective_state_matrix_takes_the_kronecker_solve(monkeypatch):
    # ||1 / (s + 1)^2||_2^2 = (1 / 2 pi) int dw / (1 + w^2)^2 = 1 / 4; the
    # Jordan block's eigenvectors cannot diagonalize the Gramian
    jordan = siso([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    calls = []
    kron = np.kron
    monkeypatch.setattr(linss.np, "kron",
                        lambda a, b: calls.append(1) or kron(a, b))
    assert linss.h2_norm([jordan])[0] == pytest.approx(0.5, rel=1e-12)
    assert len(calls) == 2


def test_h2_homogeneity():
    rng = make_rng(9)
    sys = random_stable_system(rng, 6, 2, 2, feedthrough=False)
    k = 3.7
    scaled = linss.StateSpace(sys.A, sys.B, k * sys.C, sys.D,
                              sys.in_channels, sys.out_channels)
    assert linss.h2_norm([scaled])[0] == pytest.approx(k * linss.h2_norm([sys])[0], rel=1e-12)


def test_h2_of_zero_state_gains_is_zero():
    gains = [linss.gain(np.zeros((2, 3)), (("u", 3),), (("y", 2),)) for _ in range(3)]
    norms = linss.h2_norm(gains)
    assert norms.shape == (3,) and not norms.any()


def test_h2_feedthrough_rejected():
    g = first_order_lag()
    bad = linss.StateSpace(g.A, g.B, g.C, [[0.5]], g.in_channels, g.out_channels)
    with pytest.raises(NonzeroFeedthrough):
        linss.h2_norm([bad])


def test_h2_matches_quadrature():
    rng = make_rng(17)
    for _ in range(6):
        sys = random_stable_system(rng, int(rng.integers(2, 8)), 2, 2,
                                   margin=0.4, feedthrough=False)
        assert linss.h2_norm([sys])[0] == pytest.approx(h2_by_quadrature(sys), rel=1e-3)


def test_h2_similarity_invariance():
    rng = make_rng(31)
    sys = random_stable_system(rng, 7, 2, 2, feedthrough=False)
    ref = linss.h2_norm([sys])[0]
    for _ in range(5):
        T = rng.standard_normal((7, 7)) + 3.0 * np.eye(7)
        assert abs(linss.h2_norm([state_transform(sys, T)])[0] - ref) < 1e-9 * ref
