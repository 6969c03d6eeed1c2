"""Tests for LMMSE and smoothness-regularized CMD estimation."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlf.channel import DDChannel
from ddlf.estimation import (
    OMEGA_CAP,
    CMDEstimate,
    EstimatorConfig,
    ReconstructionGrid,
    VARIANTS,
    SolverError,
    _srh_operator,
    affine_rank,
    estimate,
    hessian_kernels,
    lmmse_estimate,
    operator,
    partial_cmd,
    relaxation_delta,
    srh_estimate,
)
from ddlf.gabor import gaussian_prototype, make_grid, tight_orthogonalize
from ddlf.harness import ExperimentConfig, validate_point
from ddlf.piloting import (
    PilotPlacement,
    accordion_placement,
    qpsk_pilot_sequence,
)

from oracles import (
    box_cmd,
    dense_z_srh_estimate,
    dense_z_srh_operator,
    srh_objective,
    valid_convolve,
    weighted_hessian_energy,
)


def full_pilot_placement(M, N):
    """Every cell is a pilot (exact-recovery studies)."""
    cells = tuple((m, n) for m in range(M) for n in range(N))
    return PilotPlacement(M=M, N=N, M_data=0, N_data=0,
                          pilot_indices=cells)


def sample_at_pilots(field, pl):
    pr, pc = pl.pilot_array_indices()
    return field[pr, pc]


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def srh_reference(h_pilot, pl, alpha, beta, omega):
    """Direct sparse solve of the full (M+2)(N+2) SRH normal equations.

    Cells no stencil reaches are pinned to zero, as srh_estimate leaves them.
    Large omega makes the system ill-conditioned, so the LU solve is followed
    by two steps of iterative refinement.
    """
    M, N = pl.M, pl.N
    nvar = (M + 2) * (N + 2)
    A = sp.csr_matrix((nvar, nvar))
    phi_tt, phi_ff, phi_tf = hessian_kernels()
    # stencil matrix D: row m*N + n holds kern[i, j] at column (m+2-i)(N+2) + n+2-j
    m, n = np.indices((M, N)).reshape(2, -1, 1)
    for kern, w in ((phi_ff, alpha**4), (phi_tt, beta**4), (phi_tf, 2 * alpha**2 * beta**2)):
        i, j = np.nonzero(kern)
        rows = np.broadcast_to(m * N + n, (M * N, len(i)))
        cols = (m + 2 - i) * (N + 2) + (n + 2 - j)
        vals = np.broadcast_to(kern[i, j], rows.shape)
        D = sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(M * N, nvar))
        A = A + w * (D.T @ D)
    pr, pc = pl.pilot_array_indices()
    pvar = (pr + 1) * (N + 2) + (pc + 1)
    A = A + sp.csr_matrix((np.full(pl.P, omega), (pvar, pvar)), shape=(nvar, nvar))
    rhs = np.zeros(nvar, dtype=complex)
    rhs[pvar] = omega * h_pilot
    active = A.diagonal() > 0
    A, rhs = A[active][:, active].tocsc(), rhs[active]
    lu = spla.splu(A)
    x = np.zeros_like(rhs)
    for _ in range(3):
        r = rhs - A @ x
        x = x + lu.solve(r.real) + 1j * lu.solve(r.imag)
    sol = np.zeros(nvar, dtype=complex)
    sol[active] = x
    return sol.reshape(M + 2, N + 2)


class TestPartialCmd:
    def test_simple_division(self):
        p = np.array([1.0 + 0j])
        assert partial_cmd(np.array([2.0 + 0j]), p)[0] == 2.0 + 0j

    def test_identity_channel_gives_ones(self):
        p = qpsk_pilot_sequence(16, seed=0)
        out = partial_cmd(p.copy(), p)
        assert np.abs(out - 1.0).max() < 1e-12

    def test_rejects_zero_pilots(self):
        p = np.array([0.0 + 0j])
        with pytest.raises(ValueError):
            partial_cmd(np.array([1.0 + 0j]), p)

    def test_rejects_a_vector_of_another_length(self):
        p = qpsk_pilot_sequence(4, seed=0)
        with pytest.raises(ValueError, match="length does not match the sequence"):
            partial_cmd(np.ones(3, dtype=complex), p)


class TestCMDEstimate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_estimate_is_a_solver_error(self, bad):
        h = np.ones((4, 4), dtype=complex)
        h[1, 2] = bad
        with pytest.raises(SolverError, match="non-finite"):
            CMDEstimate(h_tilde=h, residual=0.0)


class TestRelaxationDelta:
    def test_frozen_example(self):
        p = np.ones(256, dtype=complex)
        assert relaxation_delta(0.01, 0.005, p) == pytest.approx(3.84)

    def test_zero_noise(self):
        p = np.ones(16, dtype=complex)
        assert relaxation_delta(0.0, 0.0, p) == 0.0

    def test_non_unit_pilots(self):
        p = 2.0 * np.ones(4, dtype=complex)
        assert relaxation_delta(0.7, 0.3, p) == pytest.approx(1.0)


class TestHessianKernels:
    def test_exact_stencils(self):
        phi_tt, phi_ff, phi_tf = hessian_kernels()
        assert np.array_equal(phi_tt, [[0, 0, 0], [-1, 2, -1], [0, 0, 0]])
        assert np.array_equal(phi_ff, [[0, -1, 0], [0, 2, 0], [0, -1, 0]])
        assert np.array_equal(phi_tf, [[-1, 1, 0], [1, -1, 0], [0, 0, 0]])

    def test_zero_sum(self):
        for k in hessian_kernels():
            assert k.sum() == 0.0

    def test_annihilates_affine(self):
        m, n = np.meshgrid(np.arange(10), np.arange(12), indexing="ij")
        affine = 2.0 * m - 3.0 * n + 7.0
        for k in hessian_kernels():
            assert np.abs(valid_convolve(affine, k)).max() < 1e-12


class TestWeightedHessianEnergy:
    def _naive(self, ext, alpha, beta):
        M, N = ext.shape[0] - 2, ext.shape[1] - 2
        kernels = hessian_kernels()
        total = 0.0
        for mb in range(M):
            for nb in range(N):
                conv = []
                for kern in kernels:
                    acc = 0.0 + 0j
                    for i in range(3):
                        for j in range(3):
                            acc += kern[i, j] * ext[mb - i + 2, nb - j + 2]
                    conv.append(acc)
                c_tt, c_ff, c_tf = conv
                q = np.array([[alpha**2 * c_ff, alpha * beta * c_tf],
                              [alpha * beta * c_tf, beta**2 * c_tt]])
                total += np.sum(np.abs(q) ** 2)
        return total

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        ext = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        for alpha, beta in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)]:
            got = weighted_hessian_energy(ext, alpha, beta)
            assert got == pytest.approx(self._naive(ext, alpha, beta), rel=1e-12)

    def test_affine_is_zero(self):
        m, n = np.meshgrid(np.arange(10), np.arange(10), indexing="ij")
        ext = (1.5 + 0.25j) * m + (-0.5 + 1j) * n + 3.0
        assert weighted_hessian_energy(ext, 1.0, 1.0) < 1e-20

    def test_quadratic_in_field(self):
        rng = np.random.default_rng(1)
        ext = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        base = weighted_hessian_energy(ext, 1.3, 0.8)
        assert weighted_hessian_energy(2.0 * ext, 1.3, 0.8) == pytest.approx(4 * base, rel=1e-12)

    def test_weight_algebra_on_pure_ff_field(self):
        # field varying only along the frequency axis: tt and tf terms vanish
        m = np.arange(10)[:, None] * np.ones((1, 10))
        ext = np.cos(1.1 * m)
        e1 = weighted_hessian_energy(ext, 1.0, 1.0)
        e2 = weighted_hessian_energy(ext, 2.0, 1.0)
        assert e2 == pytest.approx(16 * e1, rel=1e-12)


@lru_cache(maxsize=None)
def tight_pulse(M, N):
    grid = make_grid(M, N)
    return grid, tight_orthogonalize(gaussian_prototype(grid), grid)


@pytest.fixture(scope="module")
def desk16():
    return tight_pulse(16, 16)


class TestLmmse:
    def _cfg(self, sigma2=1e-12, Q=2, W=1, Wn=4):
        return EstimatorConfig(variant="lmmse", sigma2=sigma2,
                               grid_k=ReconstructionGrid(Q=Q, W=W, Wn=Wn))

    def test_zero_input_zero_output(self):
        pl = accordion_placement(16, 14, 2)
        cfg = self._cfg()
        out = lmmse_estimate(np.zeros(pl.P, dtype=complex), pl, cfg, operator(pl, cfg))
        assert np.abs(out.h_tilde).max() == 0.0

    def test_exact_recovery_on_grid_scatterer(self, desk16):
        grid, pulse = desk16
        pl = full_pilot_placement(16, 16)
        k0, l0 = 2, 1  # delay bin inside Wn coverage, Doppler inside Q
        tau, nu = float(k0), l0 / grid.L  # in samples and cycles per sample
        ch = DDChannel([tau], [nu], [1.0])
        h = box_cmd(ch, pulse, grid, tau * 1.5, nu * 1.5)
        cfg = self._cfg()
        out = lmmse_estimate(sample_at_pilots(h, pl), pl, cfg, operator(pl, cfg))
        assert np.abs(out.h_tilde - h).max() < 1e-6

    def test_exact_recovery_accordion_pilots(self, desk16):
        # three pilots per row keep the restricted atom matrix well conditioned
        grid, pulse = desk16
        pl = accordion_placement(16, 13, 3)
        tau, nu = 1.0, 2 / grid.L  # 1 delay bin and 2 Doppler bins
        ch = DDChannel([tau], [nu], [0.7 - 0.2j])
        h = box_cmd(ch, pulse, grid, tau * 1.2, nu * 1.2)
        cfg = self._cfg()
        out = lmmse_estimate(sample_at_pilots(h, pl), pl, cfg, operator(pl, cfg))
        assert np.abs(out.h_tilde - h).max() < 1e-5

    def test_ridge_shrinkage_monotone(self):
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(2)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        cfgs = [self._cfg(sigma2=s) for s in (1e-6, 1e-2, 1.0, 100.0)]
        norms = [np.linalg.norm(lmmse_estimate(h_pilot, pl, cfg, operator(pl, cfg)).h_tilde)
                 for cfg in cfgs]
        assert norms[0] > norms[1] > norms[2] > norms[3]

    def test_matches_dense_pseudo_inverse_reference(self):
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(3)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        cfg = self._cfg(sigma2=0.01)
        cells = cfg.grid_k.cells()
        pr, pc = pl.pilot_array_indices()
        C = np.empty((pl.P, len(cells)), dtype=complex)
        for s in range(pl.P):
            for j, (l, k) in enumerate(cells):
                C[s, j] = np.exp(-2j * np.pi * (pc[s] * l / pl.N - pr[s] * k / pl.M)) \
                    / np.sqrt(pl.N * pl.M)
        H = np.linalg.inv(C.conj().T @ C + 0.01 * np.eye(len(cells))) @ C.conj().T @ h_pilot
        h_ref = np.zeros((pl.M, pl.N), dtype=complex)
        for m in range(pl.M):
            for n in range(pl.N):
                for j, (l, k) in enumerate(cells):
                    h_ref[m, n] += H[j] * np.exp(-2j * np.pi * (n * l / pl.N - m * k / pl.M)) \
                        / np.sqrt(pl.N * pl.M)
        out = lmmse_estimate(h_pilot, pl, cfg, operator(pl, cfg))
        assert np.abs(out.h_tilde - h_ref).max() < 1e-8

    def test_underdetermined_warns(self):
        # a 16 x 15 data frame with one pilot per row: 5*6 = 30 cells > 16 pilots
        cfg = ExperimentConfig(estimators=("lmmse",), m_data=16, n_data=15, pilots_per_row=1,
                               recon_q=2, recon_w=1, recon_wn=4)
        with pytest.warns(UserWarning, match="underdetermined"):
            validate_point(cfg)

    def test_requires_grid(self):
        pl = accordion_placement(16, 14, 2)
        with pytest.raises(ValueError):
            operator(pl, EstimatorConfig(variant="lmmse"))

    def test_grid_bounds_validated(self):
        pl = accordion_placement(16, 14, 2)
        cfg = EstimatorConfig(variant="lmmse", grid_k=ReconstructionGrid(Q=9, W=1, Wn=1))
        with pytest.raises(ValueError):
            operator(pl, cfg)


# full pilots on 12 x 20 and 16 x 16 frames, three pilots per row on 16 x 16
# and 20 x 12 frames; every one keeps the restricted atom matrix well conditioned
LMMSE_PLACEMENTS = [full_pilot_placement(12, 20), full_pilot_placement(16, 16),
                    accordion_placement(16, 13, 3), accordion_placement(20, 9, 3)]
LMMSE_GRID = ReconstructionGrid(Q=2, W=1, Wn=4)


class TestLmmseProperties:
    @settings(max_examples=30)
    @given(pl=st.sampled_from(LMMSE_PLACEMENTS),
           bins=st.lists(st.tuples(st.integers(0, LMMSE_GRID.Wn),
                                   st.integers(-LMMSE_GRID.Q, LMMSE_GRID.Q)),
                         min_size=1, max_size=2, unique=True),
           gains=st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2 * np.pi)),
                          min_size=2, max_size=2))
    def test_exact_on_grid_channels(self, pl, bins, gains):
        # delay bin k and Doppler bin l land on grid cell (-l, -k), inside Q and Wn
        grid, pulse = tight_pulse(pl.M, pl.N)
        dtau, dnu = 1.0, 1 / grid.L  # a sample and 1/L cycles per sample
        paths = [(k * dtau, l * dnu, r * np.exp(1j * phi))
                 for (k, l), (r, phi) in zip(bins, gains)]
        ch = DDChannel(*zip(*paths))
        h = box_cmd(ch, pulse, grid, LMMSE_GRID.Wn * dtau, LMMSE_GRID.Q * dnu)
        cfg = EstimatorConfig(variant="lmmse", sigma2=1e-12, grid_k=LMMSE_GRID)
        out = lmmse_estimate(sample_at_pilots(h, pl), pl, cfg, operator(pl, cfg))
        assert np.abs(out.h_tilde - h).max() <= 1e-6 * np.abs(h).max()


class TestSrh:
    def _affine_field(self, M, N):
        m, n = np.meshgrid(np.arange(M), np.arange(N), indexing="ij")
        return (0.8 - 0.3j) * m + (0.1 + 0.5j) * n + (2.0 - 1.0j)

    def test_affine_recovery(self):
        pl = accordion_placement(16, 14, 2)
        field = self._affine_field(pl.M, pl.N)
        cfg = EstimatorConfig(variant="srh", omega=1.0)
        out = srh_estimate(sample_at_pilots(field, pl), pl, cfg, operator(pl, cfg))
        assert np.abs(out.h_tilde - field).max() < 1e-6

    def test_constant_pilots_give_constant(self):
        pl = accordion_placement(16, 14, 2)
        c = 0.6 - 1.1j
        for omega in (1e-3, 1.0, 1e3):
            cfg = EstimatorConfig(variant="srh", omega=omega)
            out = srh_estimate(np.full(pl.P, c), pl, cfg, operator(pl, cfg))
            assert np.abs(out.h_tilde - c).max() < 1e-8

    def test_large_omega_interpolates_pilots(self):
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(4)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        cfg = EstimatorConfig(variant="srh", omega=1e8)
        out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
        assert np.abs(sample_at_pilots(out.h_tilde, pl) - h_pilot).max() < 1e-4

    def test_first_order_optimality(self):
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(5)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        alpha, beta, omega = 1.0, 1.0, 0.05
        cfg = EstimatorConfig(variant="srh", omega=omega)
        out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
        M, N = pl.M, pl.N
        h_ex = out.h_extended
        eps = 1e-5
        scale = max(np.abs(out.h_tilde).max(), 1.0)
        rng2 = np.random.default_rng(6)
        for _ in range(20):
            i = int(rng2.integers(0, M + 2))
            j = int(rng2.integers(0, N + 2))
            for direction in (1.0, 1.0j):
                delta = np.zeros_like(h_ex)
                delta[i, j] = direction * eps
                up = srh_objective(h_ex + delta, h_pilot, pl, alpha, beta, omega)
                down = srh_objective(h_ex - delta, h_pilot, pl, alpha, beta, omega)
                grad = (up - down) / (2 * eps)
                curv = (up + down - 2 * srh_objective(h_ex, h_pilot, pl, alpha, beta, omega)) / eps**2
                assert abs(grad) <= 1e-5 * max(curv, 1e-12) * scale

    def test_scaling_invariance(self):
        # the objective scales uniformly under (alpha, beta, omega) ->
        # (c alpha, c beta, c^4 omega), so the minimizer is unchanged
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(7)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        alpha, beta, omega = 0.6, 1.8, 0.1
        cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=omega)
        base = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg)).h_tilde
        for c in (0.5, 2.0):
            cfg = EstimatorConfig(variant="srh-ma", alpha=c * alpha, beta=c * beta,
                                  omega=c**4 * omega)
            scaled = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg)).h_tilde
            assert np.abs(scaled - base).max() < 1e-6

    def test_residual_monotone_in_omega(self):
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(8)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        cfgs = [EstimatorConfig(variant="srh", omega=w)
                for w in (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4)]
        residuals = [srh_estimate(h_pilot, pl, cfg, operator(pl, cfg)).residual for cfg in cfgs]
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= hi * (1 + 1e-9)

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.5, 0.4)])
    def test_matches_full_normal_equations(self, alpha, beta):
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(9)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        for omega in (1e-4, 1e-2, 1.0, 1e2, 1e4, OMEGA_CAP):
            cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=omega)
            out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
            ref = srh_reference(h_pilot, pl, alpha, beta, omega)
            assert np.abs(out.h_extended - ref).max() < 1e-8 * np.abs(ref).max()

    def test_operators_not_shared_between_placements_or_weights(self):
        # interleave two placements and two weight pairs so that a cache keyed
        # on too little would hand one case the other's operator
        rng = np.random.default_rng(12)
        cases = [(pl, alpha, beta)
                 for pl in (accordion_placement(16, 14, 2), accordion_placement(16, 13, 3))
                 for alpha, beta in ((1.0, 1.0), (2.0, 0.5))]
        for _ in range(2):
            for pl, alpha, beta in cases:
                h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
                cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=0.1)
                out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
                ref = srh_reference(h_pilot, pl, alpha, beta, 0.1)
                assert np.abs(out.h_extended - ref).max() < 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.3, 1 / 1.3)])
    def test_matches_full_normal_equations_paper_scale(self, alpha, beta):
        # P = 128 pilots: eight column blocks of the forward solve
        pl = accordion_placement(64, 62, 2)
        h_pilot = complex_normal(np.random.default_rng(13), pl.P)
        for omega in (1e-2, 1.0, OMEGA_CAP):
            cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=omega)
            out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
            ref = srh_reference(h_pilot, pl, alpha, beta, omega)
            assert np.abs(out.h_extended - ref).max() < 1e-8 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(16, 14, 2), (64, 62, 2)])
    def test_pilot_order_does_not_matter(self, shape):
        # pilot cells listed bottom row first give the same extension
        pl = accordion_placement(*shape)
        rev = dataclasses.replace(pl, pilot_indices=pl.pilot_indices[::-1])
        h_pilot = complex_normal(np.random.default_rng(14), pl.P)
        cfg = EstimatorConfig(variant="srh", omega=0.5)
        fwd = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg)).h_extended
        back = srh_estimate(h_pilot[::-1], rev, cfg, operator(rev, cfg)).h_extended
        assert np.abs(back - fwd).max() < 1e-10 * np.abs(fwd).max()

    def test_noise_aware_uses_delta(self):
        # with sigma2 = sigma_z2 = 0 the fidelity weight hits the cap and the
        # solution interpolates the pilots
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(10)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        cfg = EstimatorConfig(variant="srh-na")
        out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
        assert np.abs(sample_at_pilots(out.h_tilde, pl) - h_pilot).max() < 1e-4

    def test_mode_aware_requires_weights(self):
        pl = accordion_placement(16, 14, 2)
        with pytest.raises(ValueError):
            operator(pl, EstimatorConfig(variant="srh-ma"))

    def test_rejects_a_vector_of_another_length(self):
        pl = accordion_placement(16, 14, 2)
        cfg = EstimatorConfig(variant="srh", omega=1.0)
        with pytest.raises(ValueError, match="does not match the placement"):
            srh_estimate(np.zeros(pl.P + 1, dtype=complex), pl, cfg, operator(pl, cfg))

    def test_dispatcher(self):
        pl = accordion_placement(16, 14, 2)
        h_pilot = np.ones(pl.P, dtype=complex)
        cfg = EstimatorConfig(variant="srh", omega=1.0)
        out = estimate(h_pilot, pl, cfg, operator(pl, cfg))
        assert isinstance(out, CMDEstimate)

    def test_anisotropy_changes_solution(self):
        pl = accordion_placement(16, 14, 2)
        rng = np.random.default_rng(11)
        h_pilot = rng.standard_normal(pl.P) + 1j * rng.standard_normal(pl.P)
        iso_cfg = EstimatorConfig(variant="srh", omega=0.1)
        aniso_cfg = EstimatorConfig(variant="srh-ma", alpha=4.0, beta=1.0, omega=0.1)
        iso = srh_estimate(h_pilot, pl, iso_cfg, operator(pl, iso_cfg)).h_tilde
        aniso = srh_estimate(h_pilot, pl, aniso_cfg, operator(pl, aniso_cfg)).h_tilde
        assert np.abs(iso - aniso).max() > 1e-6


# non-square frames: 12 x 20 and 20 x 12; (12, 17, 3) and (20, 8, 4) put
# pilots in both the first and the last column, (20, 10, 2) only in the first
SRH_PLACEMENTS = [(12, 17, 3), (20, 10, 2), (20, 8, 4)]
srh_weights = st.floats(0.25, 4.0)
srh_log_omega = st.floats(-4.0, 4.0)
# down to an omega that is all but zero, where only the exact null space of
# the Schur complement keeps the affine fields
affine_log_omega = st.floats(-300.0, 4.0)
seeds = st.integers(0, 2**32 - 1)


class TestSrhProperties:
    @settings(max_examples=30)
    @given(shape=st.sampled_from(SRH_PLACEMENTS), alpha=srh_weights, beta=srh_weights,
           log_omega=affine_log_omega, seed=seeds)
    def test_exact_on_affine_fields(self, shape, alpha, beta, log_omega, seed):
        pl = accordion_placement(*shape)
        a, b, c = complex_normal(np.random.default_rng(seed), 3)
        m, n = np.meshgrid(np.arange(pl.M), np.arange(pl.N), indexing="ij")
        field = a * m + b * n + c
        cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=10.0**log_omega)
        out = srh_estimate(sample_at_pilots(field, pl), pl, cfg, operator(pl, cfg))
        assert np.abs(out.h_tilde - field).max() <= 1e-6 * np.abs(field).max()

    @settings(max_examples=20)
    @given(shape=st.sampled_from(SRH_PLACEMENTS), alpha=srh_weights, beta=srh_weights,
           log_omega=srh_log_omega, seed=seeds)
    def test_matches_full_normal_equations(self, shape, alpha, beta, log_omega, seed):
        pl = accordion_placement(*shape)
        h_pilot = complex_normal(np.random.default_rng(seed), pl.P)
        omega = 10.0**log_omega
        cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=omega)
        out = srh_estimate(h_pilot, pl, cfg, operator(pl, cfg))
        ref = srh_reference(h_pilot, pl, alpha, beta, omega)
        assert np.abs(out.h_extended - ref).max() <= 1e-8 * np.abs(ref).max()


# a square 16 x 16 frame and a non-square 12 x 20 one
LINEARITY_PLACEMENTS = [accordion_placement(16, 15, 1), accordion_placement(12, 17, 3)]
scalars = st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0)


class TestLinearity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("pl", LINEARITY_PLACEMENTS, ids=("16x16", "12x20"))
    @settings(max_examples=10)
    @given(a=scalars, b=scalars, seed=seeds)
    def test_estimate_is_linear_in_the_pilots(self, variant, pl, a, b, seed):
        cfg = EstimatorConfig(variant=variant, sigma2=0.01, sigma_z2=0.005, alpha=1.3,
                              beta=1 / 1.3, grid_k=LMMSE_GRID)
        op = operator(pl, cfg)
        h1, h2 = complex_normal(np.random.default_rng(seed), (2, pl.P))
        want = a * estimate(h1, pl, cfg, op).h_tilde + b * estimate(h2, pl, cfg, op).h_tilde
        got = estimate(a * h1 + b * h2, pl, cfg, op).h_tilde
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def pilots_at(M, N, cells):
    """The given cells are pilots and the rest data (a 1 x count data frame)."""
    return PilotPlacement(M=M, N=N, M_data=1, N_data=M * N - len(cells),
                          pilot_indices=tuple(cells))


class TestAffineRank:
    @settings(max_examples=100)
    @given(cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6)), max_size=6,
                          unique=True))
    def test_is_the_rank_of_one_row_col(self, cells):
        pl = pilots_at(6, 7, cells)
        ones_row_col = np.column_stack([np.ones(pl.P), np.array(cells).reshape(-1, 2)])
        assert affine_rank(pl) == np.linalg.matrix_rank(ones_row_col)

    def test_cells_on_a_diagonal(self):
        assert affine_rank(pilots_at(4, 4, [(0, 0), (1, 1), (3, 3)])) == 2
        assert affine_rank(pilots_at(4, 4, [(0, 0), (1, 1), (3, 2)])) == 3

    # 16x16 desk, 4x17 (pilots on one line), 64x64 paper, 12x20, 1x18 (one pilot)
    @pytest.mark.parametrize("shape", [(16, 15, 1), (4, 16, 1), (64, 62, 2), (12, 18, 2),
                                       (1, 17, 1)])
    def test_is_the_null_space_of_the_schur_complement(self, shape):
        pl = accordion_placement(*shape)
        lam = _srh_operator(pl, 1.0, 1.0)[4]
        rank = affine_rank(pl)
        assert np.all(lam[:rank] == 0.0)
        assert np.all(lam[rank:] > 1e-6 * lam.max())


# u = 2(N+2) + 2 rows per block of the build, nvar = (M+2)(N+2) cells
BLOCK_PLACEMENTS = {
    # 12 x 20: u = 46 > P = 36, nvar = 308 leaves a last block of 32 rows
    "12x20": accordion_placement(12, 17, 3),
    # 20 x 12: P = 80 > u = 30, nvar = 308 leaves a last block of 8 rows
    "20x12": accordion_placement(20, 8, 4),
    # 14 x 5: nvar = 112 is 7 blocks of u = 16
    "14x5": accordion_placement(14, 4, 1),
    # pilots in only the first and last frame rows
    "first-last-rows": pilots_at(9, 7, [(0, 1), (0, 5), (8, 0), (8, 3), (8, 6)]),
    # no pilot in the first four rows: the first block of Z is zero
    "late-rows": pilots_at(12, 6, [(4, 1), (6, 4), (8, 0), (9, 5), (11, 2)]),
}


class TestSrhOperator:
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.394, 2.535)])
    @pytest.mark.parametrize("name", BLOCK_PLACEMENTS)
    def test_matches_the_dense_z_reference(self, name, alpha, beta):
        pl = BLOCK_PLACEMENTS[name]
        op = _srh_operator(pl, alpha, beta)
        ref = dense_z_srh_operator(pl, alpha, beta)
        h_pilot = complex_normal(np.random.default_rng(5), pl.P)
        for omega in (1.0 / pl.P, 1.0, 1e6):
            cfg = EstimatorConfig(variant="srh-ma", alpha=alpha, beta=beta, omega=omega)
            got = srh_estimate(h_pilot, pl, cfg, op).h_extended
            want = dense_z_srh_estimate(h_pilot, pl, omega, ref)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_holds_no_dense_z_at_paper_scale(self):
        pl = accordion_placement(64, 62, 2)
        U, A_fp, pvar, V, lam = _srh_operator(pl, 1.0, 1.0)
        u, nvar, P = 2 * (pl.N + 2) + 2, (pl.M + 2) * (pl.N + 2), pl.P
        arrays = [U, *A_fp, pvar, V, lam]
        assert all(a.size != nvar * P for a in arrays)
        assert sum(a.nbytes for a in arrays) <= (u + 1) * nvar * 8 + 4 * P * P + 2**20


class TestEstimatorConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            EstimatorConfig(variant="wiener")

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            EstimatorConfig(variant="srh", omega=-1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(variant="srh", sigma2=-0.1)

    @pytest.mark.parametrize("name", ["sigma2", "sigma_z2", "alpha", "beta", "omega"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_params(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name}: expected a finite number"):
            EstimatorConfig(variant="srh-mna", **{name: bad})
