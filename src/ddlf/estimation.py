"""Channel main-diagonal estimation from received pilots.

Two families: the standard LMMSE estimator, which least-squares fits the
pilot observations on a truncated delay-Doppler reconstruction grid, and the
smoothness-regularized estimator (SRH), which interpolates the CMD directly
in the TF domain by minimizing the energy of a weighted discrete Hessian
subject to relaxed pilot fidelity.

SRH variants: "srh" (isotropic weights), "srh-na" (noise-aware fidelity
weight derived from noise plus self-interference power), "srh-ma"
(mode-aware anisotropic weights from the channel spread ratio), "srh-mna"
(both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .piloting import PilotPlacement

SRH_VARIANTS = ("srh", "srh-na", "srh-ma", "srh-mna")
VARIANTS = ("lmmse",) + SRH_VARIANTS
# the variants whose alpha and beta come from the channel's spreads
MODE_AWARE = ("srh-ma", "srh-mna")
# the variants whose omega comes from the noise and self-interference powers
NOISE_AWARE = ("srh-na", "srh-mna")

OMEGA_CAP = 1e8


class SolverError(RuntimeError):
    """An estimator produced a non-finite estimate."""


@dataclass(frozen=True)
class ReconstructionGrid:
    """Delay-Doppler support for the LMMSE fit.

    Doppler bins run -Q..Q; delay bins run -Wn..W (cyclic). With the symplectic
    kernel used here a scatterer at a positive delay of k0 samples (k0 delay
    bins) concentrates at delay bin -k0, so Wn must cover the delay spread while W guards the
    smearing tail on the opposite side. A ValueError leads with the extents
    it rests on.
    """

    Q: int
    W: int
    Wn: int

    def __post_init__(self):
        for name in ("Q", "W", "Wn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: reconstruction grid extent {name} = "
                                 f"{getattr(self, name)} must be nonnegative")

    def validate(self, M: int, N: int):
        """Refuse extents that do not fit an M x N frame."""
        if self.Q > N // 2:
            raise ValueError(f"Q: Q = {self.Q} exceeds N/2 = {N // 2}")
        if self.W + self.Wn > M:
            raise ValueError(f"W, Wn: W + Wn = {self.W + self.Wn} exceeds M = {M}")

    def cells(self):
        """(doppler, delay) bin pairs in a fixed enumeration order."""
        return [(l, k) for l in range(-self.Q, self.Q + 1)
                for k in range(-self.Wn, self.W + 1)]


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator selection and parameters.

    sigma2 / sigma_z2 are the per-symbol noise and self-interference powers.
    alpha and beta weight the frequency- and time-curvature channels for the
    mode-aware variants; feed them normalized to alpha*beta = 1 so omega keeps
    a stable meaning (the objective is invariant under (alpha, beta, omega) ->
    (c alpha, c beta, c^4 omega)). omega is the fidelity weight for the
    non-noise-aware variants (default 1/P).
    """

    variant: str
    sigma2: float = 0.0
    sigma_z2: float = 0.0
    alpha: float | None = None
    beta: float | None = None
    omega: float | None = None
    grid_k: ReconstructionGrid | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown estimator variant {self.variant!r}")
        for name in ("sigma2", "sigma_z2", "alpha", "beta", "omega"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name}: expected a finite number, got {v!r}")
        if self.sigma2 < 0 or self.sigma_z2 < 0:
            raise ValueError("noise powers must be nonnegative")
        for name in ("alpha", "beta", "omega"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when given")


@dataclass(frozen=True)
class CMDEstimate:
    """Estimated channel main diagonal and the pilot-fidelity residual at it.

    h_extended carries the full (M+2) x (N+2) optimization variable of the
    smoothness estimator (None for LMMSE); h_tilde is its interior block.
    """

    h_tilde: np.ndarray
    residual: float
    h_extended: np.ndarray | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.h_tilde)):
            raise SolverError("estimate contains non-finite entries")


def partial_cmd(q: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Per-pilot raw CMD samples h_pilot = q / p of the pilot symbols p."""
    p = np.asarray(pilots)
    if np.any(np.abs(p) == 0):
        raise ValueError("pilot symbols must be nonzero")
    q = np.asarray(q)
    if q.shape != p.shape:
        raise ValueError("received pilot vector length does not match the sequence")
    return q / p


def relaxation_delta(sigma2: float, sigma_z2: float, pilots: np.ndarray) -> float:
    """Expected pilot-fidelity error (sigma_z^2 + sigma^2) * sum_s |p_s|^-2."""
    p = np.asarray(pilots)
    return float((sigma2 + sigma_z2) * np.sum(np.abs(p) ** -2.0))


def _read_only(*arrays: np.ndarray):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=4)
def _lmmse_operator(pl: PilotPlacement, grid_k: ReconstructionGrid):
    """Atoms at the pilots C, their Gram matrix C^H C, and the separable frame factors.

    The symplectic-DFT atom of cell (l, k), (1/sqrt(NM)) e^{-2j pi (n l / N - m k / M)},
    is the product of a delay factor e^{2j pi m k / M} / sqrt(NM) and a Doppler
    factor e^{-2j pi n l / N}. So the grid coefficients H, laid out (l, k) as in
    grid_k.cells(), map to the frame as delay @ H^T @ doppler, with delay
    M x (W+Wn+1) and doppler (2Q+1) x N, and C samples the same product at the pilots.
    """
    M, N = pl.M, pl.N
    ks = np.arange(-grid_k.Wn, grid_k.W + 1)
    ls = np.arange(-grid_k.Q, grid_k.Q + 1)
    delay = np.exp(2j * np.pi * np.outer(np.arange(M), ks) / M) / np.sqrt(N * M)
    doppler = np.exp(-2j * np.pi * np.outer(ls, np.arange(N)) / N)
    pr, pc = pl.pilot_array_indices()
    C = (doppler[:, pc].T[:, :, None] * delay[pr][:, None, :]).reshape(len(pr), -1)
    return _read_only(C, C.conj().T @ C, delay, doppler)


def lmmse_estimate(h_pilot: np.ndarray, pl: PilotPlacement,
                   cfg: EstimatorConfig, op: tuple) -> CMDEstimate:
    """Ridge-regularized least-squares fit on the delay-Doppler reconstruction grid.

    Solves (C^H C + sigma2 I) H = C^H h_pilot for the grid coefficients and
    maps them back to the TF domain. The atom matrices depend only on the
    placement and the grid, so they are built once and reused; a call solves
    one K x K system for the K grid cells and maps H back with two small
    matrix products through the separable delay and Doppler factors. op is
    operator(pl, cfg), built beforehand (which checks the grid).
    """
    C, gram, delay, doppler = op
    h_pilot = np.asarray(h_pilot)
    H = np.linalg.solve(gram + cfg.sigma2 * np.eye(len(gram)), C.conj().T @ h_pilot)
    h_tilde = delay @ H.reshape(len(doppler), -1).T @ doppler
    residual = float(np.sum(np.abs(h_pilot - C @ H) ** 2))
    return CMDEstimate(h_tilde=h_tilde, residual=residual)


def hessian_kernels() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-difference stencils (time, frequency, mixed) for the discrete Hessian."""
    phi_tt = np.array([[0, 0, 0], [-1, 2, -1], [0, 0, 0]], dtype=float)
    phi_ff = np.array([[0, -1, 0], [0, 2, 0], [0, -1, 0]], dtype=float)
    phi_tf = np.array([[-1, 1, 0], [1, -1, 0], [0, 0, 0]], dtype=float)
    return phi_tt, phi_ff, phi_tf


def affine_rank(pl: PilotPlacement) -> int:
    """Rank of [1, row, col] over the pilot cells, in exact integer arithmetic:
    0 or 1 for that many pilots, 2 for pilots on one line, else 3. It is the
    dimension of the affine fields at the pilots, where the Hessian energy is
    zero."""
    if pl.P < 2:
        return pl.P
    # the cells are distinct, so every offset from the first is nonzero, and
    # the pilots lie on one line when each offset is parallel to the first
    d = np.array(pl.pilot_indices[1:]) - pl.pilot_indices[0]
    return 3 if np.any(d[:, 0] * d[0, 1] - d[:, 1] * d[0, 0]) else 2


# pilot columns per forward solve on the trailing band of U
_BLOCK = 16


@lru_cache(maxsize=4)
def _srh_operator(pl: PilotPlacement, alpha: float, beta: float):
    """The SRH minimizer as a linear map of the pilot samples: (U, Z, pvar, V, lam).

    For fixed pilot cells and curvature weights, eliminating the free cells
    leaves the P x P Schur complement S = V diag(lam) V^T of the Hessian
    operator A = sum_k w_k D_k^T D_k on the pilots. For any omega the pilot
    values of the minimizer are h_p = V diag(omega / (lam + omega)) V^T h_pilot,
    and the free cells of the (M+2)(N+2) extension are -A_ff^-1 A_fp h_p
    (the border cells no stencil reaches stay zero).

    A is banded in row-major order: a stencil tap at kernel[i, j] reads cell
    out - s with s = i (N+2) + j, so each tap pair of a kernel adds one
    diagonal of A within half-bandwidth u = 2(N+2) + 2. It is assembled in
    LAPACK upper band storage, band[u + r - c, c] = A[r, c]. The pilot columns
    move to a dense right-hand side, and the pilots and unreached cells get a
    unit diagonal, so one banded Cholesky A_ff = U^T U covers the free cells
    in place, with pvar the pilot cells' indices. One forward solve
    Z = U^-T A_fp gives S = A_pp - Z^T Z, and a call finishes with one
    backward solve U^-1 (Z h_p). Column j of A_fp, and so of Z, is zero above
    row pvar_j - u; the columns are taken in order of that row, _BLOCK at a
    time, each block solved on the trailing band U[:, s:] below its first row
    s, which skips about half of the full solve.
    """
    M, N = pl.M, pl.N
    w = N + 2
    u = 2 * w + 2
    nvar = (M + 2) * w
    out = (np.arange(2, M + 2)[:, None] * w + np.arange(2, N + 2)).reshape(-1)
    band = np.zeros((u + 1, nvar), order="F")
    phi_tt, phi_ff, phi_tf = hessian_kernels()
    for kern, wk in ((phi_ff, alpha**4), (phi_tt, beta**4), (phi_tf, 2 * alpha**2 * beta**2)):
        taps = [(i * w + j, kern[i, j]) for i, j in zip(*np.nonzero(kern))]
        for s1, k1 in taps:
            for s2, k2 in taps:
                if s1 >= s2:  # entry (out - s1, out - s2) of the upper triangle
                    band[u - s1 + s2, out - s2] += wk * k1 * k2

    pr, pc = pl.pilot_array_indices()
    pvar = (pr + 1) * w + (pc + 1)
    P = len(pvar)
    d = np.arange(u + 1)[:, None]
    rows = np.concatenate([pvar - d, pvar + d])  # rows of A in the pilot columns
    cols = np.broadcast_to(np.arange(P), rows.shape)
    inside = (rows >= 0) & (rows < nvar)
    rows, cols = rows[inside], cols[inside]
    c = pvar[cols]
    at = (u - np.abs(rows - c), np.maximum(rows, c))  # A[r, c] = A[c, r] sits here
    Z = np.zeros((nvar, P), order="F")
    Z[rows, cols] = band[at]
    band[at] = 0.0
    band[u, band[u] == 0.0] = 1.0  # pilots and unreached border cells
    S = Z[pvar]  # A_pp; the rest of Z is A_fp until it is solved in place
    Z[pvar] = 0.0
    U = sla.cholesky_banded(band, overwrite_ab=True, check_finite=False)
    order = np.argsort(pvar, kind="stable")
    for b in range(0, P, _BLOCK):
        blk = order[b:b + _BLOCK]
        s = max(pvar[blk[0]] - u, 0)
        Z[s:, blk], info = lapack.dtbtrs(U[:, s:], Z[s:, blk], trans="T", overwrite_b=True)
        if info:
            raise np.linalg.LinAlgError(f"banded triangular solve failed (info {info})")
    S -= Z.T @ Z
    # S is PSD, and its null space is the affine fields at the pilots. eigh
    # gives their eigenvalues at rounding level, not 0, and then omega /
    # (lam + omega) falls below 1 on them for a small omega, so they are set
    # to 0 (the eigenvalues come in ascending order)
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    lam[:affine_rank(pl)] = 0.0
    return _read_only(U, Z, pvar, V, np.maximum(lam, 0.0))


def srh_estimate(h_pilot: np.ndarray, pl: PilotPlacement,
                 cfg: EstimatorConfig, op: tuple) -> CMDEstimate:
    """Smoothness-regularized CMD estimate in the TF domain.

    Minimizes the weighted Hessian energy of h_ex (its ff, tt and tf stencil
    responses weighted by alpha^4, beta^4 and 2 alpha^2 beta^2) plus omega *
    sum_s |h_pilot_s - h_ex[pilot_s]|^2 over the (M+2) x (N+2) extension of
    the frame; the one-cell border consists of free variables rather than
    padding, and the returned estimate is the interior M x N block. The
    noise-aware variants take omega = 1 / relaxation_delta under unit-energy
    pilots, capped at OMEGA_CAP; the others take cfg.omega (default 1/P).

    The minimizer is linear in h_pilot. Its operator is factored once per
    (placement, alpha, beta) and reused for any omega. A call works on the
    real and imaginary parts as the two columns of one real right-hand side:
    two P x P products give the pilot values h_p, then h_free = -U^-1 (Z h_p)
    is one (M+2)(N+2) x P product and one backward banded solve of
    half-bandwidth 2(N+2) + 2, so it costs O(P^2 + (M+2)(N+2)(P + N)).
    op is operator(pl, cfg), built beforehand.
    """
    h_pilot = np.asarray(h_pilot, dtype=complex)
    if h_pilot.shape != (pl.P,):
        raise ValueError("pilot sample vector does not match the placement")
    if cfg.variant in NOISE_AWARE:
        delta = relaxation_delta(cfg.sigma2, cfg.sigma_z2, np.ones(pl.P))
        omega = OMEGA_CAP if delta < 1.0 / OMEGA_CAP else min(1.0 / delta, OMEGA_CAP)
    else:
        omega = cfg.omega if cfg.omega is not None else 1.0 / max(pl.P, 1)
    M, N = pl.M, pl.N
    U, Z, pvar, V, lam = op
    h2 = np.stack([h_pilot.real, h_pilot.imag], axis=-1)
    h_p = V @ ((omega / (lam + omega))[:, None] * (V.T @ h2))
    # (-h_p^T Z^T)^T is -Z h_p as a Fortran-ordered (nvar, 2) array, solved in place
    x, info = lapack.dtbtrs(U, (-h_p.T @ Z.T).T, overwrite_b=True)
    if info:
        raise np.linalg.LinAlgError(f"banded triangular solve failed (info {info})")
    x[pvar] = h_p
    h_ex = (x[:, 0] + 1j * x[:, 1]).reshape(M + 2, N + 2)
    residual = float(np.sum((h2 - h_p) ** 2))
    return CMDEstimate(h_tilde=h_ex[1:M + 1, 1:N + 1].copy(), residual=residual,
                       h_extended=h_ex)


def operator(pl: PilotPlacement, cfg: EstimatorConfig) -> tuple:
    """The estimator's linear map of the pilot samples on this placement: the
    LMMSE atom matrices, or the SRH operator of the variant's (alpha, beta).
    Neither depends on the noise powers or on omega; each is built once per
    process and kept in a small cache keyed by the (frozen) placement. The
    LMMSE map checks its grid here."""
    if cfg.variant == "lmmse":
        if cfg.grid_k is None:
            raise ValueError("lmmse requires a reconstruction grid (grid_k)")
        cfg.grid_k.validate(pl.M, pl.N)
        return _lmmse_operator(pl, cfg.grid_k)
    if cfg.variant not in MODE_AWARE:
        return _srh_operator(pl, 1.0, 1.0)
    if cfg.alpha is None or cfg.beta is None:
        raise ValueError("mode-aware variants require alpha and beta")
    return _srh_operator(pl, cfg.alpha, cfg.beta)


def estimate(h_pilot: np.ndarray, pl: PilotPlacement,
             cfg: EstimatorConfig, op: tuple) -> CMDEstimate:
    """Dispatch to the configured estimator variant. op is operator(pl, cfg),
    built beforehand."""
    if cfg.variant == "lmmse":
        return lmmse_estimate(h_pilot, pl, cfg, op)
    return srh_estimate(h_pilot, pl, cfg, op)
