"""Real-margin bisection and complex upper bound for delta * I blocks."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from dataclasses import replace

from flexasm import data_path, linss, robust
from flexasm import pathopt as po
from flexasm import scenario as sc
from flexasm.errors import IkNotConverged, IllPosedLoop, NominalUnstable, WidthMismatch
from flexasm.linss import StateSpace, gain, lft_upper, spectral_abscissa
from flexasm.multibody import ModalBodyData, mode_freq_lfr
from flexasm.pathopt import CostSpec, EdgeModelArray, _loop_values

from conftest import (dense_spectral_radius_peak, make_rng, mission_loops, plan_keys,
                      random_stable_system, state_transform)


def wz_system(A, B, C, D):
    """System whose only channels are the uncertainty pair."""
    return StateSpace(A, B, C, D, (("w_omega", np.shape(D)[1]),),
                      (("z_omega", np.shape(D)[0]),))


def random_wz_system(rng):
    n = int(rng.integers(2, 6))
    A = rng.standard_normal((n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.4) * np.eye(n)
    return wz_system(A, rng.standard_normal((n, 2)), rng.standard_normal((2, n)),
                     np.zeros((2, 2)))


def scaled_lag(k):
    # w -> z transfer k/(s+1); smallest destabilizing delta is 1/k
    return wz_system([[-1.0]], [[1.0]], [[k]], [[0.0]])


def grid_sweep_oracle(sys, delta_max=20.0, n=4001):
    """Independent margin: dense scan + root solve on the abscissa."""
    def alpha(d):
        try:
            return spectral_abscissa(lft_upper(sys, d).A)
        except Exception:
            return 1.0

    best = None
    for sign in (1.0, -1.0):
        grid = np.linspace(0.0, delta_max, n)[1:]
        prev = 0.0
        for t in grid:
            if alpha(sign * t) >= -linss.STAB_TOL:
                root = scipy.optimize.brentq(
                    lambda x: alpha(sign * x) + linss.STAB_TOL, prev, t,
                    xtol=1e-13, rtol=1e-15)
                if best is None or root < abs(best):
                    best = sign * root
                break
            prev = t
    return best


def test_first_order_unit_margin():
    sys = scaled_lag(1.0)
    res = robust.mu_real_repeated(sys, delta_max=5.0)
    assert res.mu_lower == pytest.approx(1.0, rel=1e-6)
    assert res.delta_crit == pytest.approx(1.0, rel=1e-6)
    assert robust.mu_upper_bound(sys) == pytest.approx(1.0, rel=1e-6)


def test_rotational_block_has_no_real_destabilizer():
    # static rotation feedthrough: det(I - delta R) = 1 + delta^2 > 0
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    sys = gain(R, (("w_omega", 2),), (("z_omega", 2),))
    res = robust.mu_real_repeated(sys, delta_max=50.0)
    assert res.mu_lower == 0.0
    assert res.delta_crit is None
    mu_upper = robust.mu_upper_bound(sys)
    assert mu_upper == pytest.approx(1.0)
    assert res.mu_lower <= mu_upper + 1e-9


def test_synthetic_margin_of_point_two():
    # destabilizing delta = 5: closures at +-1 stay stable, anything below
    # 5 in magnitude stays stable, i.e. a 400 percent uncertainty reserve
    sys = scaled_lag(0.2)
    res = robust.mu_real_repeated(sys, delta_max=20.0)
    assert res.mu_lower == pytest.approx(0.2, rel=1e-6)
    for d in (1.0, -1.0):
        assert spectral_abscissa(lft_upper(sys, d).A) < -linss.STAB_TOL
    for d in np.linspace(-4.999, 4.999, 21):
        assert spectral_abscissa(lft_upper(sys, d).A) < -linss.STAB_TOL


def test_matches_grid_sweep_on_random_plants():
    rng = make_rng(99)
    hits = 0
    for _ in range(8):
        sys = random_wz_system(rng)
        res = robust.mu_real_repeated(sys, delta_max=10.0)
        oracle = grid_sweep_oracle(sys, delta_max=10.0)
        if oracle is None:
            assert res.mu_lower == 0.0
        else:
            hits += 1
            assert res.mu_lower == pytest.approx(1.0 / abs(oracle), rel=1e-6)
            assert res.delta_crit == pytest.approx(oracle, rel=1e-6)
        assert res.mu_lower <= robust.mu_upper_bound(sys) + 1e-9
    assert hits >= 3  # the sample must exercise real crossings


def test_monotone_stability_inside_margin():
    rng = make_rng(7)
    sys = scaled_lag(0.5)
    res = robust.mu_real_repeated(sys, delta_max=10.0)
    assert res.mu_lower > 0
    for d in rng.uniform(-1.0, 1.0, 20) * (1.0 / res.mu_lower) * 0.999:
        assert spectral_abscissa(lft_upper(sys, d).A) < -linss.STAB_TOL


def test_similarity_invariance():
    rng = make_rng(15)
    A = rng.standard_normal((4, 4))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(4)
    sys = wz_system(A, rng.standard_normal((4, 2)),
                    rng.standard_normal((2, 4)), np.zeros((2, 2)))
    ref = robust.mu_real_repeated(sys, delta_max=10.0)
    for _ in range(3):
        T = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        res = robust.mu_real_repeated(state_transform(sys, T), delta_max=10.0)
        assert abs(res.mu_lower - ref.mu_lower) <= 1e-9 * max(1.0, ref.mu_lower)


def test_nominal_unstable_rejected():
    # 1 / (s - 0.5): the bound used to return 2.0, its value at w = 0
    sys = wz_system([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NominalUnstable):
        robust.mu_real_repeated(sys)
    with pytest.raises(NominalUnstable):
        robust.mu_upper_bound(sys)


def test_mode_frequency_collapse_margin():
    # pulling the first mode frequency down by a factor (1 + r delta) makes
    # the mode marginal at delta = -1/r: the margin is exactly r
    data = ModalBodyData(
        mass=5.0, com=np.zeros(3), inertia_P=np.eye(3),
        freqs=[2.0 * np.pi * 1.285], dampings=[0.01],
        L_P=np.array([[0.5, 0.1, 0.0, 0.2, 0.0, 0.0]]), name="one_mode")
    lfr = mode_freq_lfr(data, 0, 0.2)
    res = robust.mu_real_repeated(lfr, delta_max=20.0)
    assert res.delta_crit == pytest.approx(-5.0, rel=1e-6)
    assert res.mu_lower == pytest.approx(0.2, rel=1e-6)
    oracle = grid_sweep_oracle(lfr, delta_max=20.0)
    assert res.mu_lower == pytest.approx(1.0 / abs(oracle), rel=1e-6)
    assert res.mu_lower <= robust.mu_upper_bound(lfr) + 1e-9


def test_margin_only_matches_mu_real_repeated_on_mission_loops(monkeypatch):
    loops = list(mission_loops(4, 21))
    full = [robust.mu_real_repeated(cl, delta_max=20.0) for cl in loops]
    for cl, res in zip(loops, full):
        assert res.mu_lower <= robust.mu_upper_bound(cl) + 1e-9

    # the mu edge cost reads only the margin: the upper bound must not
    # run, and the value must be the same bits
    def no_bound(*args):
        raise AssertionError("mu cost ran the upper bound")

    monkeypatch.setattr(robust, "mu_upper_bound", no_bound)
    for cl, res in zip(loops, full):
        again = robust.mu_real_repeated(cl, delta_max=20.0)
        assert (again.mu_lower, again.delta_crit) == (res.mu_lower, res.delta_crit)
        assert _loop_values(EdgeModelArray([cl]), CostSpec("mu"))[0] == res.mu_lower


def lft_closed_A(sys, delta):
    """Reference closure: the state matrix of ``lft_upper``, None if ill posed."""
    try:
        return lft_upper(sys, delta).A
    except IllPosedLoop:
        return None


def random_lfr(rng, n=6):
    """Random stable system with extra channels around a w/z pair whose
    feedthrough D_zw is nonzero."""
    sys = random_stable_system(rng, n=n, m=4, p=3)
    return StateSpace(sys.A, sys.B, sys.C, sys.D,
                      (("u", 2), ("w_omega", 2)), (("y", 1), ("z_omega", 2)))


def test_closed_state_matrix_matches_lft_upper():
    rng = make_rng(3)
    systems = list(mission_loops(2, 8)) + [random_lfr(rng) for _ in range(6)]
    for sys in systems:
        for d in (-7.5, -1.0, -0.3, 0.25, 1.0, 4.0):
            ref = lft_closed_A(sys, d)
            A = robust._closed_A(sys, d)
            assert ref is not None and A is not None
            assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert any(np.any(s.D[s.out_slice("z_omega"), s.in_slice("w_omega")])
               for s in systems)


def general_closed_A(sys, delta):
    """The closure with the conditioning test and the solve run on every
    probe, ``D_zw = 0`` included."""
    w, z = sys.in_slice("w_omega"), sys.out_slice("z_omega")
    loop = np.eye(z.stop - z.start) - delta * sys.D[z, w]
    if 1.0 / np.linalg.cond(loop, 1) < linss.WELLPOSED_RCOND:
        return None
    return sys.A + (delta * sys.B[:, w]) @ np.linalg.solve(loop, sys.C[z, :])


def stacked(closed_A):
    """A stand-in for ``robust._closures`` that closes each probe by
    ``closed_A``."""
    return lambda systems, deltas: np.stack([closed_A(s, d) for s, d in zip(systems, deltas)])


def test_margin_probe_skips_the_identity_solve(monkeypatch):
    # D_zw = 0 on every mission loop, so I - delta D_zw is I: a probe needs
    # neither the conditioning test nor the solve, and gives the same bits,
    # in the stacked probes of the margin pass and in the scan alike
    loops = list(mission_loops(4, 22))
    with monkeypatch.context() as m:
        m.setattr(robust, "_closed_A", general_closed_A)
        m.setattr(robust, "_closures", stacked(general_closed_A))
        ref = [robust.mu_real_repeated(cl) for cl in loops]

    def no_call(*args, **kwargs):
        raise AssertionError("an identity-loop probe ran cond or solve")

    monkeypatch.setattr(robust.np.linalg, "cond", no_call)
    monkeypatch.setattr(robust.np.linalg, "solve", no_call)
    key = robust._prime_margins(loops)
    for cl, r in zip(loops, ref):
        assert not cl.D[cl.out_slice("z_omega"), cl.in_slice("w_omega")].any()
        res = robust.mu_real_repeated(cl)
        assert key not in cl._modes
        assert (res.mu_lower, res.delta_crit) == (r.mu_lower, r.delta_crit)
        assert robust._scan_crossing(cl, 20.0) == r.delta_crit


def test_ill_posed_closure_counts_as_destabilized():
    # D_zw = I: I - delta D_zw is singular at delta = 1; the closure is
    # A - delta / (1 - delta) I, stable for every delta < 1
    sys = wz_system([[-1.0, 0.0], [0.0, -2.0]], np.eye(2), -np.eye(2), np.eye(2))
    assert lft_closed_A(sys, 1.0) is None
    assert robust._closed_A(sys, 1.0) is None
    assert robust._destabilized(sys, 1.0)
    assert not robust._destabilized(sys, 0.5)   # poles -2 and -3
    res = robust.mu_real_repeated(sys, delta_max=5.0)
    assert res.delta_crit == pytest.approx(1.0, rel=1e-6)


def test_delta_max_must_be_finite_and_positive():
    cl = next(mission_loops(1, 5))
    for delta_max in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta_max"):
            robust.mu_real_repeated(cl, delta_max)


def test_width_mismatch_rejected():
    sys = StateSpace([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]],
                     (("w_omega", 2),), (("z_omega", 1),))
    with pytest.raises(WidthMismatch):
        robust.mu_real_repeated(sys)
    with pytest.raises(WidthMismatch):
        robust.mu_upper_bound(sys)


def margin_bits(res):
    return np.float64(res.mu_lower).tobytes(), repr(res.delta_crit)


def test_a_primed_margin_is_popped_once_after_the_checks():
    # the planner's edge ends hold a primed margin: one mu_real_repeated
    # call pops it, the next computes again with the same bits, and a call
    # for another range leaves it in place
    cl = next(mission_loops(1, 6))
    want = robust.mu_real_repeated(StateSpace(cl.A, cl.B, cl.C, cl.D,
                                              cl.in_channels, cl.out_channels))
    key = robust._prime_margins([cl])
    primed = cl._modes[key]
    assert margin_bits(primed) == margin_bits(want)
    assert robust.mu_real_repeated(cl) is primed and key not in cl._modes
    again = robust.mu_real_repeated(cl)
    assert again is not primed and margin_bits(again) == margin_bits(want)
    robust._prime_margins([cl])
    kept = cl._modes[key]
    robust.mu_real_repeated(cl, delta_max=10.0)
    assert cl._modes[key] is kept
    # the range and nominal checks run before the pop, as on an unprimed loop
    with pytest.raises(ValueError, match="delta_max"):
        robust.mu_real_repeated(cl, 0.0)
    unstable = wz_system([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    mismatch = StateSpace([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]],
                          (("w_omega", 2),), (("z_omega", 1),))
    for sys, error in ((unstable, NominalUnstable), (mismatch, WidthMismatch)):
        sys._modes[key] = primed
        with pytest.raises(error):
            robust.mu_real_repeated(sys)
        assert sys._modes[key] is primed


def test_margin_search_runs_no_interconnect(monkeypatch):
    loops = list(mission_loops(2, 5))
    # the same search with every probe closed through lft_upper
    with monkeypatch.context() as m:
        m.setattr(robust, "_closed_A", lft_closed_A)
        m.setattr(robust, "_closures", stacked(lft_closed_A))
        ref = [robust.mu_real_repeated(cl) for cl in loops]

    def no_interconnect(*args, **kwargs):
        raise AssertionError("margin search ran linss.interconnect")

    monkeypatch.setattr(linss, "interconnect", no_interconnect)
    key = robust._prime_margins(loops)
    for cl, r in zip(loops, ref):
        res = robust.mu_real_repeated(cl)
        assert key not in cl._modes
        assert (res.mu_lower, res.delta_crit) == (r.mu_lower, r.delta_crit)
        assert robust._scan_crossing(cl, 20.0) == r.delta_crit


def two_pass_margin(sys, delta_max=20.0):
    """The margin search as two one-sided scans, +delta then -delta, each
    bisecting its own first crossing; the smaller magnitude wins, ties to
    +.  The one-pass scan must give the same bits."""
    def first_crossing(sign):
        grid = np.linspace(0.0, delta_max, robust.SCAN_POINTS + 1)[1:]
        lo = 0.0
        hit = None
        for t in grid:
            if robust._destabilized(sys, sign * t):
                hit = t
                break
            lo = t
        if hit is None:
            return None
        hi = hit
        while hi - lo > robust.TOL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if robust._destabilized(sys, sign * mid):
                hi = mid
            else:
                lo = mid
        return sign * hi

    candidates = [d for d in (first_crossing(+1.0), first_crossing(-1.0))
                  if d is not None]
    delta_crit = min(candidates, key=abs) if candidates else None
    return (1.0 / abs(delta_crit) if delta_crit is not None else 0.0), delta_crit


def two_sided_lag(k_pos, k_neg):
    # two decoupled lags: closing w = delta z moves the poles to
    # -1 + delta k_pos and -1 - delta k_neg, lost at +1/k_pos and -1/k_neg
    return wz_system(-np.eye(2), np.eye(2), np.diag([k_pos, -k_neg]), np.zeros((2, 2)))


@pytest.mark.parametrize("sys, sign", [
    pytest.param(scaled_lag(0.37), 1.0, id="positive-first"),
    pytest.param(scaled_lag(-0.37), -1.0, id="negative-first"),
    pytest.param(two_sided_lag(0.1, 0.4), -1.0, id="negative-first-both-cross"),
    pytest.param(two_sided_lag(1.0 / 3.0, 1.0 / 3.0), 1.0, id="tie-in-one-bin"),
    pytest.param(two_sided_lag(1.0 / 3.1, 1.0 / 3.0), -1.0, id="same-bin-negative-smaller"),
    pytest.param(scaled_lag(0.01), None, id="no-crossing"),
])
def test_one_pass_scan_matches_two_pass_oracle(sys, sign):
    res = robust.mu_real_repeated(sys, delta_max=20.0)
    assert (res.mu_lower, res.delta_crit) == two_pass_margin(sys, 20.0)
    if sign is None:
        assert res.delta_crit is None and res.mu_lower == 0.0
    else:
        assert np.sign(res.delta_crit) == sign


def test_one_pass_scan_matches_two_pass_oracle_on_mission_loops():
    for cl in mission_loops(6, 12):
        res = robust.mu_real_repeated(cl, delta_max=20.0)
        assert (res.mu_lower, res.delta_crit) == two_pass_margin(cl, 20.0)


def test_one_pass_scan_halves_the_probes(monkeypatch):
    # the mission loops lose stability only at delta = -5, the 16th scan
    # point: the certified crossing probes one threshold, the final bracket
    # and the positive sign at the hit scan point (4 probes, all stacked;
    # the scan alone makes 58), where scanning each sign alone probes all
    # 64 positive points as well (106 probes)
    cl = next(mission_loops(1, 13))
    probes, stacked_probes = [], []
    real, closures = robust._destabilized, robust._closures

    def counted(sys, delta):
        probes.append(delta)
        return real(sys, delta)

    monkeypatch.setattr(robust, "_destabilized", counted)
    monkeypatch.setattr(robust, "_closures",
                        lambda systems, deltas: stacked_probes.extend(deltas)
                        or closures(systems, deltas))
    res = robust.mu_real_repeated(cl, delta_max=20.0)
    assert res.delta_crit < 0.0
    assert probes == [] and len(stacked_probes) == 4
    assert two_pass_margin(cl, 20.0) == (res.mu_lower, res.delta_crit)
    assert len(probes) == 106


def test_upper_bound_matches_a_dense_stacked_solve_grid():
    # 24 4-tile mission loops and random systems with D_zw != 0: no grid
    # point may top the polished bound, which lies within 1e-3 above the
    # grid's peak (the grid falls short of a resonance between its points)
    rng = make_rng(5)
    systems = list(mission_loops(24, 5)) + [random_lfr(rng) for _ in range(12)]
    assert all(np.any(s.D[s.out_slice("z_omega"), s.in_slice("w_omega")])
               for s in systems[24:])
    for k, sys in enumerate(systems):
        bound = robust.mu_upper_bound(sys)
        peak = dense_spectral_radius_peak(sys)
        assert peak <= bound * (1.0 + 1e-9), k
        assert bound <= peak * (1.0 + 1e-3), k
        res = robust.mu_real_repeated(sys, delta_max=20.0)
        assert res.mu_lower <= bound + 1e-9, k


def kronecker_crossings(sys):
    """Dense oracle for the crossing candidates: the real finite generalized
    eigenvalues delta of the n^2 pencil of Kronecker sums ``kron(A, I) +
    kron(I, A) + delta (kron(M, I) + kron(I, M))``, ``M = B_w C_z``, where
    two eigenvalues of ``A + delta M`` sum to zero."""
    A = sys.A
    M = sys.B[:, sys.in_slice("w_omega")] @ sys.C[sys.out_slice("z_omega"), :]
    eye = np.eye(A.shape[0])
    alpha, beta = scipy.linalg.eigvals(np.kron(A, eye) + np.kron(eye, A),
                                       -(np.kron(M, eye) + np.kron(eye, M)),
                                       homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-12 * np.abs(alpha)
    deltas = alpha[finite] / beta[finite]
    return deltas[np.abs(deltas.imag) <= 1e-6 * np.abs(deltas)].real


def candidates(sys):
    return robust._crossings([sys])[0]


def assert_same_set(got, ref, bound):
    """Every value of ``got`` and ``ref`` within ``bound`` in magnitude has
    a partner in the other set within 1e-7 relative."""
    for a, b in ((got, ref), (ref, got)):
        for d in a[np.abs(a) <= bound]:
            assert np.min(np.abs(b - d)) <= 1e-7 * abs(d), (d, np.sort(b))


def test_crossings_match_kronecker_pencil():
    # the candidates of a list of systems of several sizes, computed in
    # stacks, are those of each system alone, bitwise
    rng = make_rng(41)
    systems = [random_wz_system(rng) for _ in range(10)] + list(mission_loops(3, 7))
    crossing = 0
    for sys, got in zip(systems, robust._crossings(systems)):
        assert np.array_equal(got, candidates(sys))
        assert_same_set(got, kronecker_crossings(sys), 50.0)
        crossing += np.any(np.abs(got) <= 50.0)
    assert crossing >= 8
    # the mission loops' collapse at delta = -5 is among the candidates
    assert np.min(np.abs(candidates(systems[-1]) + 5.0)) <= 1e-9


def count_scans(monkeypatch):
    scans = []
    real = robust._scan_crossing

    def counted(sys, delta_max):
        scans.append(sys)
        return real(sys, delta_max)

    monkeypatch.setattr(robust, "_scan_crossing", counted)
    return scans


def test_mission_and_random_loops_need_no_scan(monkeypatch):
    rng = make_rng(42)
    systems = list(mission_loops(6, 3)) + [random_wz_system(rng) for _ in range(12)]
    ref = [two_pass_margin(sys, 20.0) for sys in systems]
    scans = count_scans(monkeypatch)
    for sys, r in zip(systems, ref):
        res = robust.mu_real_repeated(sys, delta_max=20.0)
        assert (res.mu_lower, res.delta_crit) == r
    assert scans == []


def jordan_system():
    # A = [[-1, 1], [0, -1]] is defective: its eigenvectors are parallel
    return wz_system([[-1.0, 1.0], [0.0, -1.0]], np.eye(2),
                     [[0.3, 0.0], [0.1, 0.4]], np.zeros((2, 2)))


def feedthrough_system():
    rng = make_rng(43)
    sys = random_lfr(rng)
    assert sys.D[sys.out_slice("z_omega"), sys.in_slice("w_omega")].any()
    return sys


@pytest.mark.parametrize("make", [
    pytest.param(feedthrough_system, id="feedthrough"),
    pytest.param(jordan_system, id="defective-A"),
])
def test_fallback_runs_the_scan(monkeypatch, make):
    sys = make()
    ref = two_pass_margin(sys, 20.0)
    scans = count_scans(monkeypatch)
    res = robust.mu_real_repeated(sys, delta_max=20.0)
    assert (res.mu_lower, res.delta_crit) == ref
    assert ref[1] is not None and len(scans) == 1


def chunk_around(target, seed):
    """``target`` in the middle of a chunk of mission loops and random
    systems, some of them of its own size."""
    rng = make_rng(seed)
    loops = list(mission_loops(3, seed))
    return loops[:2] + [random_wz_system(rng) for _ in range(3)] + [target] + loops[2:]


def assert_chunk_margins(chunk, scanned, scans, key):
    """Every margin of ``chunk`` is that of the two-pass scan, and only the
    loops of ``scanned`` ran the scan, once each."""
    for sys in chunk:
        res = sys._modes.pop(key)
        assert (res.mu_lower, res.delta_crit) == two_pass_margin(sys, 20.0)
    assert [id(s) for s in scans] == [id(s) for s in scanned]


def test_fallback_loops_scan_alone_in_a_chunk(monkeypatch):
    # a loop with D_zw != 0 and one without a modal inverse run the scan
    # inside a chunk; the other loops keep their stacked rounds
    feed, jordan = feedthrough_system(), jordan_system()
    chunk = chunk_around(feed, 44)
    chunk.insert(3, jordan)
    scans = count_scans(monkeypatch)
    key = robust._prime_margins(chunk)
    assert_chunk_margins(chunk, [jordan, feed], scans, key)


def only_for(target, real, fault):
    """``real`` of a list of systems, with ``fault`` applied to the result
    of ``target`` alone."""
    def patched(systems, *args):
        out = real(systems, *args)
        return [fault(o) if s is target else o for s, o in zip(systems, out)]
    return patched


def test_certificate_catches_a_crossing_missed_on_the_other_sign(monkeypatch):
    # A + delta B_w C_z = diag(delta - 1, -2 - delta) crosses at +1 and -2;
    # with the + candidates dropped only -2 is refined, and the probe of
    # + at the hit scan point finds the loop already unstable there.  The
    # other loops of the chunk certify their own crossings
    sys = wz_system(np.diag([-1.0, -2.0]), np.eye(2), np.diag([1.0, -1.0]),
                    np.zeros((2, 2)))
    monkeypatch.setattr(robust, "_crossings",
                        only_for(sys, robust._crossings, lambda deltas: deltas[deltas < 0.0]))
    certificates, certificate = [], robust._certificate
    monkeypatch.setattr(robust, "_certificate",
                        lambda *args: certificates.append(certificate(*args)) or certificates[-1])
    scans = count_scans(monkeypatch)
    chunk = chunk_around(sys, 45)
    key = robust._prime_margins(chunk)
    # the target's thresholds give -2, refuted by the probe of + at the hit
    # scan point; every loop of the chunk reached its certificate
    assert len(certificates) == len(chunk)
    [target] = [c for s, c in zip(chunk, certificates) if s is sys]
    assert target[0] == pytest.approx(-2.0, rel=1e-8)
    ref = robust._scan_crossing(sys, 20.0)
    scans.pop()
    assert sys._modes[key].delta_crit == ref == pytest.approx(1.0, rel=1e-8)
    assert_chunk_margins(chunk, [sys], scans, key)


@pytest.mark.parametrize("patch", [
    pytest.param(("_thresholds", lambda thr: thr and {s: 0.999 * t for s, t in thr.items()}),
                 id="early-threshold"),
    pytest.param(("_thresholds", lambda thr: thr and {s: t + 1e-8 for s, t in thr.items()}),
                 id="late-threshold"),
    pytest.param(("_crossings", lambda deltas: np.zeros(0)), id="no-candidate"),
    pytest.param(("_crossings", lambda deltas: -deltas), id="wrong-sign"),
    # past the true crossing the secant probe itself reads unstable
    pytest.param(("_crossings", lambda deltas: 1.5 * deltas), id="late-candidate"),
])
def test_failed_certificate_runs_the_scan(monkeypatch, patch):
    # each fault, injected into one mission loop of a chunk, sends that loop
    # alone to the scan, with the scan's bits
    name, fault = patch
    cl = next(mission_loops(1, 13))
    monkeypatch.setattr(robust, name, only_for(cl, getattr(robust, name), fault))
    scans = count_scans(monkeypatch)
    chunk = chunk_around(cl, 46)
    key = robust._prime_margins(chunk)
    assert_chunk_margins(chunk, [cl], scans, key)


def plan_loops(cfg, every=1):
    """The closed loops of every ``every``-th edge of a full-assembly plan
    of ``cfg`` with an IK solution, as the planner builds them."""
    models = sc.ScenarioModels(cfg)
    K = models.design_gains()
    loops = []
    for key in plan_keys(cfg)[::every]:
        try:
            loops += po.grid_edge_models(models, *key, K).systems
        except IkNotConverged:
            pass
    return loops


def desk_loops():
    return plan_loops(replace(sc.load_scenario(data_path("scenario_desk.yaml"))[0], z_grid=2))


def table8_loops():
    return plan_loops(sc.table_scenario(8, z_grid=3), every=9)


def mixed_modes_loops():
    # with 8 structure modes F_1 carries 6 and F_2 and F_3 8: loops of two
    # state counts, within one edge too
    return plan_loops(replace(sc.table_scenario(3, z_grid=2), n_struct_modes=8))


def random_loops():
    rng = make_rng(49)
    return ([random_wz_system(rng) for _ in range(16)] + list(mission_loops(4, 50))
            + [scaled_lag(0.37), scaled_lag(-0.37), scaled_lag(0.01),
               two_sided_lag(0.1, 0.4), two_sided_lag(1.0 / 3.0, 1.0 / 3.0)])


@pytest.mark.parametrize("make, shapes", [
    (desk_loops, 1), (table8_loops, 1), (mixed_modes_loops, 2), (random_loops, 6)],
    ids=["desk-z2", "table8-z3", "table3-z2-modes8", "random"])
def test_a_chunk_gives_each_loop_its_margin_alone(make, shapes):
    # the margins of a chunk, computed in one stacked pass, are bitwise
    # those of each loop's list of one and of the two-pass scan
    loops = make()
    assert len({robust._shape(s) for s in loops}) >= shapes
    key = robust._prime_margins(loops)
    chunked = [sys._modes.pop(key) for sys in loops]
    for sys, res in zip(loops, chunked):
        robust._prime_margins([sys])
        assert margin_bits(sys._modes.pop(key)) == margin_bits(res)
        assert (res.mu_lower, res.delta_crit) == two_pass_margin(sys, 20.0)


def test_stacked_probe_closure_equals_closed_A_of_each_slice():
    rng = make_rng(47)
    systems = list(mission_loops(6, 48)) + [random_wz_system(rng) for _ in range(12)]
    probes = [(sys, float(d)) for sys in systems for d in rng.uniform(-20.0, 20.0, 3)]
    groups = {}
    for probe in probes:
        groups.setdefault(robust._shape(probe[0]), []).append(probe)
    assert max(len({id(s) for s, _ in group}) for group in groups.values()) > 1
    for group in groups.values():
        stack = robust._closures([s for s, _ in group], [d for _, d in group])
        for (sys, delta), A in zip(group, stack):
            assert np.array_equal(A, robust._closed_A(sys, delta))
    for (sys, delta), alpha in zip(probes, robust._abscissas(probes)):
        assert alpha == spectral_abscissa(robust._closed_A(sys, delta))


def test_every_stack_the_margin_pass_solves_fits_the_stack_bound(monkeypatch):
    # a stack of more than one loop holds at most linss._STACK_BYTES
    loops = desk_loops() + mixed_modes_loops() + random_loops()
    stacks, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(robust.np.linalg, "eigvals",
                        lambda a: stacks.append(a) or eigvals(a))
    key = robust._prime_margins(loops)
    monkeypatch.undo()
    assert all(key in sys._modes for sys in loops)
    sizes = [(a.shape[0] if a.ndim == 3 else 1, a.nbytes) for a in stacks]
    assert max(count for count, _ in sizes) > 1
    assert all(nbytes <= linss._STACK_BYTES for count, nbytes in sizes if count > 1)
