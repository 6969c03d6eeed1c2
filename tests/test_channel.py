"""Tests for the doubly-dispersive channel module."""

import dataclasses
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddlf.channel import (
    ChannelConfig,
    ChannelError,
    DDChannel,
    add_noise,
    apply_channel,
    generate_channel,
    self_interference_power,
    true_cmd,
)
from ddlf import gabor
from ddlf.gabor import SHIFT_BLOCK, GridError, ambiguity_table, analyze, gaussian_prototype, \
    make_grid, synthesize, tight_orthogonalize
from ddlf.transforms import dsft2d

from oracles import channel_from_csv, channel_to_csv, dd_leakage_response, dirichlet_kernel, \
    box_cmd, pair_ambiguity, per_path_apply


PATH_ARRAYS = ("tau", "nu", "eta")


@pytest.fixture(scope="module")
def desk():
    grid = make_grid(8, 8)
    pulse = tight_orthogonalize(gaussian_prototype(grid), grid)
    return grid, pulse


def single_path(tau, nu, eta):
    return DDChannel([tau], [nu], [eta])


def per_path_cmd(ch, gamma, g, grid):
    """Reference: one scalar cross-ambiguity and one outer product per path."""
    h = np.zeros((grid.M, grid.N), dtype=complex)
    for tau, nu, eta in zip(ch.tau, ch.nu, ch.eta):
        amb = pair_ambiguity(gamma, g, tau, nu, grid)
        h += eta * amb * np.outer(np.exp(-2j * np.pi * grid.F * tau * np.arange(grid.M)),
                                  np.exp(2j * np.pi * grid.T * nu * np.arange(grid.N)))
    return h


# the box of two_paths()
TWO_PATHS_BOX = (1e-6, 1e3)


def two_paths():
    return DDChannel([0.3e-6, 0.1e-6], [500.0, -800.0], [0.8, 0.2j])


def mixed_box(grid):
    """The box of mixed_channel on grid: 4 delay bins and 2 Doppler bins."""
    return 4 / (grid.M * grid.F), 2 / (grid.N * grid.T)


def mixed_channel(R, grid, seed):
    """R paths alternating fractional and on-grid draws in mixed_box(grid); for
    R > 1 one has zero delay and Doppler."""
    tau_max, nu_max = mixed_box(grid)
    frac = generate_channel(ChannelConfig(R=R, tau_max=tau_max, nu_max=nu_max), grid, seed)
    grid_ch = generate_channel(ChannelConfig(R=R, tau_max=tau_max, nu_max=nu_max,
                                             fractional=False), grid, seed + 1)
    odd = np.arange(R) % 2 == 1
    tau, nu, eta = (np.where(odd, getattr(grid_ch, k), getattr(frac, k)) for k in PATH_ARRAYS)
    if R > 1:
        tau[R // 2] = nu[R // 2] = 0.0
    return DDChannel(tau, nu, eta)


def same_paths(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in PATH_ARRAYS)


class TestGenerateChannel:
    def test_snapping_on_grid(self, desk):
        grid, _ = desk
        cfg = ChannelConfig(R=1, tau_max=2 / (grid.M * grid.F),
                            nu_max=1 / (grid.N * grid.T), fractional=False)
        ch = generate_channel(cfg, grid, seed=11)
        tau, nu = ch.tau[0], ch.nu[0]
        assert tau * grid.M * grid.F == pytest.approx(round(tau * grid.M * grid.F), abs=1e-9)
        assert nu * grid.N * grid.T == pytest.approx(round(nu * grid.N * grid.T), abs=1e-9)

    def test_unit_total_power(self, desk):
        grid, _ = desk
        for seed in range(5):
            cfg = ChannelConfig(R=6, tau_max=1e-6, nu_max=2e3)
            ch = generate_channel(cfg, grid, seed)
            assert ch.total_power == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("fractional", [True, False])
    def test_steep_profile_puts_the_power_on_the_earliest_path(self, desk, fractional):
        grid, _ = desk
        cfg = ChannelConfig(R=8, tau_max=1e-6, nu_max=2e3, power_profile=1e12,
                            fractional=fractional)
        ch = generate_channel(cfg, grid, seed=3)
        taus = ch.tau
        power = np.abs(ch.eta) ** 2
        assert np.all(np.isfinite(power))
        assert ch.total_power == pytest.approx(1.0, abs=1e-12)
        assert power[taus == taus.min()].sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, desk):
        grid, _ = desk
        cfg = ChannelConfig(R=4, tau_max=1e-6, nu_max=2e3)
        assert same_paths(generate_channel(cfg, grid, 99), generate_channel(cfg, grid, 99))

    def test_underspread_enforced(self):
        # the draw's settings refuse an overspread box when they are built
        with pytest.raises(ChannelError, match="^tau_max, nu_max: .* not underspread"):
            ChannelConfig(R=1, tau_max=1e-5, nu_max=6e3)
        with pytest.raises(ChannelError, match="not underspread"):
            ChannelConfig(R=1, tau_max=1e-3, nu_max=1e3)

    def test_bad_scatterer_count(self):
        with pytest.raises(ChannelError):
            ChannelConfig(R=0, tau_max=1e-6, nu_max=1e3)

    @pytest.mark.parametrize("tau, nu, what", [
        (-1e-8, 0.0, "delay"), (2e-6, 0.0, "delay"),
        (0.0, 1.5e3, "Doppler"), (0.0, -1.5e3, "Doppler"),
    ])
    def test_scatterer_outside_its_box(self, desk, tau, nu, what):
        # a path outside the (1e-6 s, 1 kHz) box of the table that the true CMD reads
        grid, pulse = desk
        table = ambiguity_table(pulse, pulse, grid, 1e-6, 1e3)
        with pytest.raises(ChannelError, match=f"scatterer {what} .* outside"):
            true_cmd(single_path(tau, nu, 1.0), table)
        if tau < 0:  # nor can the channel apply a negative delay
            with pytest.raises(ChannelError, match="negative"):
                apply_channel(np.zeros(grid.L, dtype=complex), single_path(tau, nu, 1.0), grid)

    @pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 0)])
    def test_path_arrays_of_unequal_lengths(self, lengths):
        tau, nu, eta = (np.zeros(n) for n in lengths)
        with pytest.raises(ChannelError, match="not one length"):
            DDChannel(tau, nu, eta)

    @pytest.mark.parametrize("tau_share, nu_share, match", [
        (0.0, 0.5, "alias"), (0.0, 0.6, "alias"), (1.0, 0.0, "frame duration")])
    def test_box_the_grid_cannot_hold_refused_before_any_draw(self, desk, monkeypatch,
                                                              tau_share, nu_share, match):
        grid, _ = desk  # the shares are of the frame duration and of fs
        monkeypatch.setattr(np.random, "default_rng", None)  # a draw would fail otherwise
        cfg = ChannelConfig(R=3, tau_max=tau_share * grid.duration, nu_max=nu_share * grid.fs)
        with pytest.raises(GridError, match=match):
            generate_channel(cfg, grid, 0)


class TestApplyChannel:
    def test_identity_path(self, desk):
        grid, pulse = desk
        ch = single_path(0.0, 0.0, 1.0)
        f = pulse.samples.copy()
        assert np.abs(apply_channel(f, ch, grid) - f).max() < 1e-12

    def test_scalar_gain(self, desk):
        grid, pulse = desk
        eta = 0.3 - 0.4j
        ch = single_path(0.0, 0.0, eta)
        f = pulse.samples.copy()
        assert np.abs(apply_channel(f, ch, grid) - eta * f).max() < 1e-12

    def test_superposition(self, desk):
        grid, _ = desk
        rng = np.random.default_rng(12)
        f = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        s1 = (0.3e-6, 800.0, 0.6 + 0.1j)
        s2 = (0.1e-6, -1500.0, 0.2 - 0.7j)
        both = DDChannel(*zip(s1, s2))
        one = DDChannel(*zip(s1))
        two = DDChannel(*zip(s2))
        lhs = apply_channel(f, both, grid)
        rhs = apply_channel(f, one, grid) + apply_channel(f, two, grid)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_linear_in_signal(self, desk):
        grid, _ = desk
        rng = np.random.default_rng(13)
        f = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        g = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        ch = DDChannel([0.3e-6], [800.0], [0.6 + 0.1j])
        lhs = apply_channel(2.5j * f + g, ch, grid)
        rhs = 2.5j * apply_channel(f, ch, grid) + apply_channel(g, ch, grid)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_delay_beyond_frame_rejected(self, desk):
        grid, _ = desk
        ch = DDChannel([grid.duration * 1.01], [0.0], [1.0])
        with pytest.raises(ChannelError):
            apply_channel(np.zeros(grid.L, dtype=complex), ch, grid)

    @pytest.mark.parametrize("R", [1, SHIFT_BLOCK, SHIFT_BLOCK + 1, 58])
    def test_matches_per_path_reference(self, R):
        grid = make_grid(16, 16)
        ch = mixed_channel(R, grid, seed=40 + R)
        rng = np.random.default_rng(R)
        f = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        want = per_path_apply(f, ch, grid)
        assert np.abs(apply_channel(f, ch, grid) - want).max() <= 1e-12 * np.abs(want).max()

    def test_signal_of_another_length(self, desk):
        grid, _ = desk
        ch = single_path(0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=f"does not match grid L = {grid.L}"):
            apply_channel(np.zeros(grid.L - 1, dtype=complex), ch, grid)

    @pytest.mark.parametrize("share", [0.5, 0.6, -0.5, -0.6])
    def test_doppler_the_grid_cannot_sample_rejected(self, share):
        # 0.6*fs used to pass and give exactly the output of -0.4*fs: the
        # sampled ramps of nu and nu - fs are the same samples
        grid = make_grid(16, 16)
        ch = single_path(0.0, share * grid.fs, 1.0)
        with pytest.raises(ChannelError, match="Doppler .* not below fs/2"):
            apply_channel(np.ones(grid.L, dtype=complex), ch, grid)

    def test_doppler_just_below_half_the_sampling_rate_applies(self):
        grid = make_grid(16, 16)
        ch = single_path(0.0, 0.5 * grid.fs * (1 - 1e-9), 1.0)
        out = apply_channel(np.ones(grid.L, dtype=complex), ch, grid)
        assert np.abs(out).max() == pytest.approx(1.0, abs=1e-12)

    def test_late_path_in_any_block_rejected(self, desk):
        grid, _ = desk
        for k in (0, SHIFT_BLOCK, SHIFT_BLOCK + 2):
            tau = np.zeros(SHIFT_BLOCK + 3)
            tau[k] = grid.duration
            ch = DDChannel(tau, np.zeros_like(tau), np.ones_like(tau))
            with pytest.raises(ChannelError, match="exceeds the frame duration"):
                apply_channel(np.zeros(grid.L, dtype=complex), ch, grid)


class TestAddNoise:
    def test_zero_variance_identity(self, desk):
        grid, pulse = desk
        f = pulse.samples.copy()
        out = add_noise(f, 0.0, np.random.default_rng(0))
        assert np.abs(out - f).max() == 0.0

    def test_rejects_negative_variance(self, desk):
        grid, _ = desk
        with pytest.raises(ValueError, match="noise variance must be nonnegative"):
            add_noise(np.zeros(grid.L, dtype=complex), -0.1, np.random.default_rng(0))

    def test_deterministic_given_rng(self, desk):
        grid, _ = desk
        f = np.zeros(grid.L, dtype=complex)
        a = add_noise(f, 0.5, np.random.default_rng(42))
        b = add_noise(f, 0.5, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_analyzed_variance_calibration(self, desk):
        # Monte-Carlo: with a tight pulse the analyzed noise frame must carry
        # variance sigma2 per TF symbol
        grid, pulse = desk
        sigma2 = 0.1
        rng = np.random.default_rng(123)
        power = 0.0
        trials = 1000
        for _ in range(trials):
            w = add_noise(np.zeros(grid.L, dtype=complex), sigma2, rng)
            power += np.mean(np.abs(analyze(w, pulse, grid)) ** 2)
        assert power / trials == pytest.approx(sigma2, rel=0.1)


class TestTrueCmd:
    def test_identity_channel_all_ones(self, desk):
        grid, pulse = desk
        ch = single_path(0.0, 0.0, 1.0)
        h = box_cmd(ch, pulse, grid, 1e-6, 1e3)
        assert np.abs(h - 1.0).max() < 1e-9

    def test_constant_magnitude_single_path(self, desk):
        grid, pulse = desk
        tau, nu, eta = 0.31 / (grid.M * grid.F), 0.47 / (grid.N * grid.T), 0.8 + 0.2j
        ch = single_path(tau, nu, eta)
        h = box_cmd(ch, pulse, grid, 1 / (grid.M * grid.F), 1 / (grid.N * grid.T))
        want = abs(eta * pair_ambiguity(pulse, pulse, tau, nu, grid))
        assert np.abs(np.abs(h) - want).max() < 1e-12

    def test_matches_per_scatterer_sum_oracle(self, desk):
        grid, pulse = desk
        rng = np.random.default_rng(31)
        scats = tuple(
            (float(rng.uniform(0, 0.8e-6)), float(rng.uniform(-2e3, 2e3)),
             complex(rng.normal(), rng.normal()))
            for _ in range(3))
        ch = DDChannel(*zip(*scats))
        h = box_cmd(ch, pulse, grid, 1e-6, 3e3)
        oracle = np.zeros((grid.M, grid.N), dtype=complex)
        for tau, nu, eta in scats:
            amp = eta * pair_ambiguity(pulse, pulse, tau, nu, grid)
            for m in range(grid.M):
                for n in range(grid.N):
                    oracle[m, n] += amp * np.exp(
                        2j * np.pi * (n * grid.T * nu - m * grid.F * tau))
        assert np.abs(h - oracle).max() < 1e-12

    @pytest.mark.parametrize("R", [1, SHIFT_BLOCK, SHIFT_BLOCK + 1, 58])
    def test_matches_per_path_reference(self, R):
        grid = make_grid(16, 16)
        pulse = tight_orthogonalize(gaussian_prototype(grid), grid)
        ch = mixed_channel(R, grid, seed=70 + R)
        want = per_path_cmd(ch, pulse, pulse, grid)
        got = box_cmd(ch, pulse, grid, *mixed_box(grid))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


    def test_paths_on_the_box_edge_with_slack(self, desk):
        grid, pulse = desk
        tau_max, nu_max, slack = 4.5 / (grid.M * grid.F), 0.7 / (grid.N * grid.T), 1 + 1e-9
        ch = DDChannel([tau_max * slack, tau_max * slack, 0.0],
                       [nu_max * slack, -nu_max * slack, -nu_max * slack],
                       [0.6 + 0.1j, -0.3j, 0.5])
        want = per_path_cmd(ch, pulse, pulse, grid)
        assert np.abs(box_cmd(ch, pulse, grid, tau_max, nu_max) - want).max() \
            <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("steps", [8, 14])
    def test_delay_spread_of_half_the_frame_or_more(self, steps):
        grid = make_grid(16, 16)
        pulse = tight_orthogonalize(gaussian_prototype(grid), grid)
        cfg = ChannelConfig(R=8, tau_max=steps * grid.T, nu_max=100.0)
        ch = generate_channel(cfg, grid, seed=steps)
        want = per_path_cmd(ch, pulse, pulse, grid)
        # |A| is small at most of these delays; the channel has unit total power
        assert np.abs(box_cmd(ch, pulse, grid, cfg.tau_max, cfg.nu_max) - want).max() <= 1e-12

    def test_reads_a_prepared_table(self, desk):
        grid, pulse = desk
        ch = two_paths()
        table = ambiguity_table(pulse, pulse, grid, *TWO_PATHS_BOX)
        want = per_path_cmd(ch, pulse, pulse, grid)
        assert np.abs(true_cmd(ch, table) - want).max() <= 1e-12 * np.abs(want).max()
        # every path's amplitude is the table's: a doubled table doubles the CMD
        doubled = dataclasses.replace(table, coef=2 * table.coef)
        assert np.abs(true_cmd(ch, doubled) - 2 * want).max() <= 1e-12 * np.abs(want).max()

    def test_a_larger_table_gives_the_same_cmd(self, desk):
        # true_cmd asks only that the table's box hold every path
        grid, pulse = desk
        exact = true_cmd(two_paths(), ambiguity_table(pulse, pulse, grid, *TWO_PATHS_BOX))
        tau_max, nu_max = TWO_PATHS_BOX
        for box in ((2 * tau_max, nu_max), (tau_max, 3 * nu_max), (4 * tau_max, 2 * nu_max)):
            larger = true_cmd(two_paths(), ambiguity_table(pulse, pulse, grid, *box))
            assert np.abs(larger - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_refuses_a_mismatched_table(self, desk):
        # two_paths reaches 0.3 us and 800 Hz: a table short of either cannot serve
        grid, pulse = desk
        for box in ((0.2e-6, 1e3), (1e-6, 600.0)):
            table = ambiguity_table(pulse, pulse, grid, *box)
            with pytest.raises(ValueError, match="ambiguity table"):
                true_cmd(two_paths(), table)


class Reached(Exception):
    """Raised where a caller of GaborGrid.check_box gets past it."""


def reach(*args, **kwargs):
    raise Reached


@lru_cache(maxsize=None)
def box_grid(M, N):
    grid = make_grid(M, N)
    return grid, tight_orthogonalize(gaussian_prototype(grid), grid)


def refusal(call):
    """The GridError message of call, or None if it got past the box check."""
    try:
        call()
    except GridError as exc:
        return str(exc)
    except Reached:
        pass
    return None


# (delay, Doppler) shares of the frame duration and of fs, one spread at a
# time with the other at 0, so that the underspread rule never fires first:
# negative, zero, inside, just below the edge, at the edge and past it
BOX_SHARES = st.one_of(
    st.sampled_from([-0.5, -1e-9, 0.0, 0.3, 1 - 1e-9, 1.0, 1.5]).map(lambda s: (s, 0.0)),
    st.sampled_from([-0.25, -1e-9, 0.2, 0.5 - 1e-9, 0.5, 0.7]).map(lambda s: (0.0, s)))


class TestOneBoxRule:
    """GaborGrid.check_box is the one rule for the box a grid can hold, and
    ambiguity_table and generate_channel refuse by it alone."""

    @settings(max_examples=60)
    @given(shape=st.sampled_from([(16, 16), (8, 16)]), shares=BOX_SHARES)
    @example(shape=(16, 16), shares=(1.0, 0.0))
    @example(shape=(8, 16), shares=(0.0, 0.5))
    def test_three_callers_refuse_the_same_boxes(self, shape, shares):
        grid, pulse = box_grid(*shape)
        tau_max, nu_max = shares[0] * grid.duration, shares[1] * grid.fs
        cfg = ChannelConfig(R=3, tau_max=tau_max, nu_max=nu_max)
        with mock.patch.object(gabor, "_delays", reach), \
                mock.patch.object(np.random, "default_rng", reach):
            want = refusal(lambda: grid.check_box(tau_max, nu_max))
            assert refusal(lambda: ambiguity_table(pulse, pulse, grid, tau_max, nu_max)) == want
            assert refusal(lambda: generate_channel(cfg, grid, 0)) == want
        if not (0 <= tau_max < grid.duration and 0 <= nu_max < grid.fs / 2):
            lead = ("tau_max" if tau_max != 0 else
                    "nu_max" if nu_max < 0 else "nu_max, fs")
            assert want.split(": ")[0] == lead
        else:
            assert want is None

    @pytest.mark.parametrize("box, lead", [((np.nan, 0.0), "tau_max"), ((0.0, np.nan), "nu_max")])
    def test_nan_spread_refused(self, box, lead):
        grid, _ = box_grid(16, 16)
        with pytest.raises(GridError, match=f"^{lead}: .* must be nonnegative"):
            grid.check_box(*box)


class TestLeakage:
    def test_dirichlet_at_integers(self):
        assert dirichlet_kernel(4, 0.0) == pytest.approx(4.0)
        assert dirichlet_kernel(4, 3.0) == pytest.approx(4.0)
        assert dirichlet_kernel(16, np.array([1.0, -2.0]))[0] == pytest.approx(16.0)

    def test_dirichlet_matches_sum_definition(self):
        for K in (4, 7):
            for t in (0.13, -0.6, 2.5, 1.0):
                naive = sum(np.exp(2j * np.pi * k * t) for k in range(K))
                assert abs(dirichlet_kernel(K, t) - naive) < 1e-10

    def test_on_grid_single_bin(self, desk):
        grid, pulse = desk
        k0, l0 = 2, 3
        tau, nu = k0 / (grid.M * grid.F), l0 / (grid.N * grid.T)
        H = dd_leakage_response(tau, nu, pulse, pulse, grid)
        mag = np.abs(H)
        hot = np.argwhere(mag > 1e-6 * mag.max())
        assert hot.shape == (1, 2)
        # positive shifts concentrate at the mirrored cyclic bins
        assert tuple(hot[0]) == ((-l0) % grid.N, (-k0) % grid.M)
        amp = abs(pair_ambiguity(pulse, pulse, tau, nu, grid))
        assert mag.max() == pytest.approx(grid.N * grid.M * amp, rel=1e-9)

    def test_half_bin_doppler_spreads(self, desk):
        grid, pulse = desk
        nu = 1.0 / (2 * grid.N * grid.T)
        H = dd_leakage_response(0.0, nu, pulse, pulse, grid)
        mag = np.abs(H)
        assert np.sum(mag > 0.01 * mag.max()) > 1

    def test_refuses_pulses_of_another_grid(self, desk):
        grid, pulse = desk  # 8x8, L = 80
        with pytest.raises(ValueError, match="pulses must share the sample grid"):
            dd_leakage_response(0.0, 0.0, pulse, pulse, make_grid(16, 16))

    def test_matches_dsft_of_cmd(self, desk):
        grid, pulse = desk
        tau, nu = 0.3 / (grid.M * grid.F), 0.4 / (grid.N * grid.T)
        ch = single_path(tau, nu, 1.0)
        h = box_cmd(ch, pulse, grid, 1 / (grid.M * grid.F), 1 / (grid.N * grid.T))
        H_num = np.sqrt(grid.N * grid.M) * dsft2d(h)
        H_cf = dd_leakage_response(tau, nu, pulse, pulse, grid)
        assert np.abs(H_num - H_cf).max() < 1e-9


class TestChannelDump:
    def test_roundtrip(self, desk):
        grid, _ = desk
        cfg = ChannelConfig(R=5, tau_max=0.8e-6, nu_max=2e3)
        ch = generate_channel(cfg, grid, seed=7)
        text = channel_to_csv(ch)
        assert text.splitlines()[0] == "r,tau_s,nu_hz,eta_re,eta_im"
        back = channel_from_csv(text)
        assert same_paths(back, ch)

    def test_bad_header(self):
        with pytest.raises(ChannelError):
            channel_from_csv("x,y\n0,1\n")


def clean_frame(x, ch, pulse, grid):
    """Noiseless received frame: synthesize, channel, analyze."""
    return analyze(apply_channel(synthesize(x, pulse, grid), ch, grid), pulse, grid)


def si_power(x, ch, pulse, grid, tau_max, nu_max):
    return self_interference_power(clean_frame(x, ch, pulse, grid), x,
                                   box_cmd(ch, pulse, grid, tau_max, nu_max))


class TestSelfInterference:
    def test_identity_channel_vanishes(self, desk):
        grid, pulse = desk
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ch = single_path(0.0, 0.0, 1.0)
        assert si_power(x, ch, pulse, grid, 1e-6, 1e3) < 1e-12

    def test_zero_frame(self, desk):
        grid, pulse = desk
        ch = single_path(0.1e-6, 500.0, 1.0)
        assert si_power(np.zeros((8, 8)), ch, pulse, grid, 1e-6, 1e3) == 0.0

    def test_grows_with_doppler_spread(self, desk):
        grid, pulse = desk
        rng = np.random.default_rng(18)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        levels = []
        for frac in (0.1, 0.25, 0.5):
            nu_max = frac / (grid.N * grid.T)
            acc = 0.0
            for seed in range(20):
                cfg = ChannelConfig(R=4, tau_max=0.5 / (grid.M * grid.F),
                                    nu_max=nu_max)
                acc += si_power(x, generate_channel(cfg, grid, seed), pulse, grid,
                                cfg.tau_max, cfg.nu_max)
            levels.append(acc / 20)
        assert levels[0] < levels[1] < levels[2]


class TestEffectiveMatrixOracle:
    def test_on_grid_chain_decomposition(self, desk):
        """Chain output = x * h_true + off-diagonal interference, where the full
        effective matrix comes from an independent quadruple loop over the
        closed-form per-pair response."""
        grid, pulse = desk
        M, N = grid.M, grid.N
        tau, nu, eta = 2 / (M * grid.F), 1 / (N * grid.T), 0.9 - 0.3j
        ch = single_path(tau, nu, eta)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))

        y_chain = analyze(apply_channel(synthesize(x, pulse, grid), ch, grid),
                          pulse, grid)
        h = box_cmd(ch, pulse, grid, 2.5 / (M * grid.F), 1.5 / (N * grid.T))

        z = np.zeros((M, N), dtype=complex)
        for mb in range(M):
            for nb in range(N):
                for m in range(M):
                    for n in range(N):
                        if (m, n) == (mb, nb):
                            continue
                        dn, dm = n - nb, m - mb
                        phi = (np.exp(2j * np.pi * (nb * grid.T * nu - m * grid.F * tau
                                                    + grid.T * grid.F * nb * dm))
                               * pair_ambiguity(pulse, pulse, tau + dn * grid.T,
                                                nu + dm * grid.F, grid))
                        z[mb, nb] += x[m, n] * eta * phi
        assert np.abs(y_chain - (x * h + z)).max() < 1e-9
