"""Tests for the doubly-dispersive channel module."""

import numpy as np
import pytest

from ddlf.channel import (
    ChannelConfig,
    ChannelError,
    DDChannel,
    Scatterer,
    add_noise,
    apply_channel,
    dd_leakage_response,
    dirichlet_kernel,
    generate_channel,
    self_interference_power,
    true_cmd,
)
from ddlf.gabor import SHIFT_BLOCK, analyze, cross_ambiguity, fractional_shift, \
    centered_times, gaussian_prototype, make_grid, synthesize, tight_orthogonalize
from ddlf.transforms import dsft2d


@pytest.fixture(scope="module")
def desk():
    grid = make_grid(8, 8)
    pulse = tight_orthogonalize(gaussian_prototype(grid), grid)
    return grid, pulse


def single_path(tau, nu, eta, tau_max, nu_max):
    return DDChannel(scatterers=(Scatterer(tau, nu, eta),),
                     tau_max=tau_max, nu_max=nu_max)


def per_path_apply(f, ch, grid):
    """Reference: one FFT pair and two length-L exp ramps per path."""
    L = grid.L
    t = np.arange(L) / grid.fs
    out = np.zeros(L, dtype=complex)
    for s in ch.scatterers:
        ramp = np.exp(-2j * np.pi * np.arange(L) * (s.tau * grid.fs) / L)
        out += s.eta * np.fft.ifft(np.fft.fft(f) * ramp) * np.exp(2j * np.pi * s.nu * t)
    return out


def per_path_cmd(ch, gamma, g, grid):
    """Reference: one scalar cross-ambiguity and one outer product per path."""
    h = np.zeros((grid.M, grid.N), dtype=complex)
    for s in ch.scatterers:
        shifted = fractional_shift(gamma.samples, s.tau * grid.fs)
        amb = np.vdot(g.samples, shifted * np.exp(2j * np.pi * s.nu * centered_times(grid)))
        h += s.eta * amb * np.outer(np.exp(-2j * np.pi * grid.F * s.tau * np.arange(grid.M)),
                                    np.exp(2j * np.pi * grid.T * s.nu * np.arange(grid.N)))
    return h


def mixed_channel(R, grid, seed):
    """R paths alternating fractional and on-grid draws; for R > 1 one has zero delay and Doppler."""
    tau_max, nu_max = 4 / (grid.M * grid.F), 2 / (grid.N * grid.T)
    frac = generate_channel(ChannelConfig(R=R, tau_max=tau_max, nu_max=nu_max, seed=seed), grid)
    grid_ch = generate_channel(ChannelConfig(R=R, tau_max=tau_max, nu_max=nu_max,
                                             seed=seed + 1, fractional=False), grid)
    paths = [grid_ch.scatterers[r] if r % 2 else frac.scatterers[r] for r in range(R)]
    if R > 1:
        paths[R // 2] = Scatterer(0.0, 0.0, paths[R // 2].eta)
    return DDChannel(scatterers=tuple(paths), tau_max=tau_max, nu_max=nu_max)


class TestGenerateChannel:
    def test_snapping_on_grid(self, desk):
        grid, _ = desk
        cfg = ChannelConfig(R=1, tau_max=2 / (grid.M * grid.F),
                            nu_max=1 / (grid.N * grid.T), seed=11, fractional=False)
        ch = generate_channel(cfg, grid)
        s = ch.scatterers[0]
        assert s.tau * grid.M * grid.F == pytest.approx(round(s.tau * grid.M * grid.F), abs=1e-9)
        assert s.nu * grid.N * grid.T == pytest.approx(round(s.nu * grid.N * grid.T), abs=1e-9)

    def test_unit_total_power(self, desk):
        grid, _ = desk
        for seed in range(5):
            cfg = ChannelConfig(R=6, tau_max=1e-6, nu_max=2e3, seed=seed)
            ch = generate_channel(cfg, grid)
            assert ch.total_power == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, desk):
        grid, _ = desk
        cfg = ChannelConfig(R=4, tau_max=1e-6, nu_max=2e3, seed=99)
        assert generate_channel(cfg, grid) == generate_channel(cfg, grid)

    def test_underspread_enforced(self):
        with pytest.raises(ChannelError):
            generate_channel(ChannelConfig(R=1, tau_max=1e-3, nu_max=1e3))
        with pytest.raises(ChannelError):
            DDChannel(scatterers=(Scatterer(0, 0, 1),), tau_max=1e-3, nu_max=1e3)

    def test_bad_scatterer_count(self):
        with pytest.raises(ChannelError):
            ChannelConfig(R=0, tau_max=1e-6, nu_max=1e3)


class TestApplyChannel:
    def test_identity_path(self, desk):
        grid, pulse = desk
        ch = single_path(0.0, 0.0, 1.0, 1e-6, 1e3)
        f = pulse.samples.copy()
        assert np.abs(apply_channel(f, ch, grid) - f).max() < 1e-12

    def test_scalar_gain(self, desk):
        grid, pulse = desk
        eta = 0.3 - 0.4j
        ch = single_path(0.0, 0.0, eta, 1e-6, 1e3)
        f = pulse.samples.copy()
        assert np.abs(apply_channel(f, ch, grid) - eta * f).max() < 1e-12

    def test_superposition(self, desk):
        grid, _ = desk
        rng = np.random.default_rng(12)
        f = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        s1 = Scatterer(0.3e-6, 800.0, 0.6 + 0.1j)
        s2 = Scatterer(0.1e-6, -1500.0, 0.2 - 0.7j)
        both = DDChannel(scatterers=(s1, s2), tau_max=1e-6, nu_max=2e3)
        one = DDChannel(scatterers=(s1,), tau_max=1e-6, nu_max=2e3)
        two = DDChannel(scatterers=(s2,), tau_max=1e-6, nu_max=2e3)
        lhs = apply_channel(f, both, grid)
        rhs = apply_channel(f, one, grid) + apply_channel(f, two, grid)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_linear_in_signal(self, desk):
        grid, _ = desk
        rng = np.random.default_rng(13)
        f = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        g = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        ch = DDChannel(scatterers=(Scatterer(0.3e-6, 800.0, 0.6 + 0.1j),),
                       tau_max=1e-6, nu_max=2e3)
        lhs = apply_channel(2.5j * f + g, ch, grid)
        rhs = 2.5j * apply_channel(f, ch, grid) + apply_channel(g, ch, grid)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_delay_beyond_frame_rejected(self, desk):
        grid, _ = desk
        ch = DDChannel(scatterers=(Scatterer(grid.duration * 1.01, 0.0, 1.0),),
                       tau_max=grid.duration * 1.02, nu_max=1.0)
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

    def test_late_path_in_any_block_rejected(self, desk):
        grid, _ = desk
        ok = Scatterer(0.0, 0.0, 1.0)
        late = Scatterer(grid.duration, 0.0, 1.0)
        for k in (0, SHIFT_BLOCK, SHIFT_BLOCK + 2):
            paths = [ok] * (SHIFT_BLOCK + 3)
            paths[k] = late
            ch = DDChannel(scatterers=tuple(paths), tau_max=grid.duration, nu_max=1.0)
            with pytest.raises(ChannelError, match="exceeds the frame duration"):
                apply_channel(np.zeros(grid.L, dtype=complex), ch, grid)


class TestAddNoise:
    def test_zero_variance_identity(self, desk):
        grid, pulse = desk
        f = pulse.samples.copy()
        out = add_noise(f, 0.0, np.random.default_rng(0))
        assert np.abs(out - f).max() == 0.0

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
        ch = single_path(0.0, 0.0, 1.0, 1e-6, 1e3)
        h = true_cmd(ch, pulse, pulse, grid)
        assert np.abs(h - 1.0).max() < 1e-9

    def test_constant_magnitude_single_path(self, desk):
        grid, pulse = desk
        tau, nu, eta = 0.31 / (grid.M * grid.F), 0.47 / (grid.N * grid.T), 0.8 + 0.2j
        ch = single_path(tau, nu, eta, 1 / (grid.M * grid.F), 1 / (grid.N * grid.T))
        h = true_cmd(ch, pulse, pulse, grid)
        want = abs(eta * cross_ambiguity(pulse, pulse, tau, nu, grid))
        assert np.abs(np.abs(h) - want).max() < 1e-12

    def test_matches_per_scatterer_sum_oracle(self, desk):
        grid, pulse = desk
        rng = np.random.default_rng(31)
        scats = tuple(
            Scatterer(float(rng.uniform(0, 0.8e-6)), float(rng.uniform(-2e3, 2e3)),
                      complex(rng.normal(), rng.normal()))
            for _ in range(3))
        ch = DDChannel(scatterers=scats, tau_max=1e-6, nu_max=3e3)
        h = true_cmd(ch, pulse, pulse, grid)
        oracle = np.zeros((grid.M, grid.N), dtype=complex)
        for s in scats:
            amp = s.eta * cross_ambiguity(pulse, pulse, s.tau, s.nu, grid)
            for m in range(grid.M):
                for n in range(grid.N):
                    oracle[m, n] += amp * np.exp(
                        2j * np.pi * (n * grid.T * s.nu - m * grid.F * s.tau))
        assert np.abs(h - oracle).max() < 1e-12

    @pytest.mark.parametrize("R", [1, SHIFT_BLOCK, SHIFT_BLOCK + 1, 58])
    def test_matches_per_path_reference(self, R):
        grid = make_grid(16, 16)
        pulse = tight_orthogonalize(gaussian_prototype(grid), grid)
        ch = mixed_channel(R, grid, seed=70 + R)
        want = per_path_cmd(ch, pulse, pulse, grid)
        got = true_cmd(ch, pulse, pulse, grid)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
        amp = abs(cross_ambiguity(pulse, pulse, tau, nu, grid))
        assert mag.max() == pytest.approx(grid.N * grid.M * amp, rel=1e-9)

    def test_half_bin_doppler_spreads(self, desk):
        grid, pulse = desk
        nu = 1.0 / (2 * grid.N * grid.T)
        H = dd_leakage_response(0.0, nu, pulse, pulse, grid)
        mag = np.abs(H)
        assert np.sum(mag > 0.01 * mag.max()) > 1

    def test_matches_dsft_of_cmd(self, desk):
        grid, pulse = desk
        tau, nu = 0.3 / (grid.M * grid.F), 0.4 / (grid.N * grid.T)
        ch = single_path(tau, nu, 1.0, 1 / (grid.M * grid.F), 1 / (grid.N * grid.T))
        h = true_cmd(ch, pulse, pulse, grid)
        H_num = np.sqrt(grid.N * grid.M) * dsft2d(h)
        H_cf = dd_leakage_response(tau, nu, pulse, pulse, grid)
        assert np.abs(H_num - H_cf).max() < 1e-9


class TestChannelDump:
    def test_roundtrip(self, desk):
        grid, _ = desk
        from ddlf.channel import channel_from_csv, channel_to_csv
        cfg = ChannelConfig(R=5, tau_max=0.8e-6, nu_max=2e3, seed=7)
        ch = generate_channel(cfg, grid)
        text = channel_to_csv(ch)
        assert text.splitlines()[0] == "r,tau_s,nu_hz,eta_re,eta_im"
        back = channel_from_csv(text, ch.tau_max, ch.nu_max)
        assert back == ch

    def test_bad_header(self):
        from ddlf.channel import channel_from_csv
        with pytest.raises(ChannelError):
            channel_from_csv("x,y\n0,1\n", 1e-6, 1e3)


def clean_frame(x, ch, pulse, grid):
    """Noiseless received frame: synthesize, channel, analyze."""
    return analyze(apply_channel(synthesize(x, pulse, grid), ch, grid), pulse, grid)


def si_power(x, ch, pulse, grid):
    return self_interference_power(clean_frame(x, ch, pulse, grid), x,
                                   true_cmd(ch, pulse, pulse, grid))


class TestSelfInterference:
    def test_identity_channel_vanishes(self, desk):
        grid, pulse = desk
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ch = single_path(0.0, 0.0, 1.0, 1e-6, 1e3)
        assert si_power(x, ch, pulse, grid) < 1e-12

    def test_zero_frame(self, desk):
        grid, pulse = desk
        ch = single_path(0.1e-6, 500.0, 1.0, 1e-6, 1e3)
        assert si_power(np.zeros((8, 8)), ch, pulse, grid) == 0.0

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
                                    nu_max=nu_max, seed=seed)
                acc += si_power(x, generate_channel(cfg, grid), pulse, grid)
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
        ch = single_path(tau, nu, eta, 2.5 / (M * grid.F), 1.5 / (N * grid.T))
        rng = np.random.default_rng(21)
        x = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))

        y_chain = analyze(apply_channel(synthesize(x, pulse, grid), ch, grid),
                          pulse, grid)
        h = true_cmd(ch, pulse, pulse, grid)

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
                               * cross_ambiguity(pulse, pulse, tau + dn * grid.T,
                                                 nu + dm * grid.F, grid))
                        z[mb, nb] += x[m, n] * eta * phi
        assert np.abs(y_chain - (x * h + z)).max() < 1e-9
