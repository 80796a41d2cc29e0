"""Effective channel construction and zero-forcing precoding."""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e12  # Gram matrices worse than this are treated as degenerate


class ZfDegenerateError(RuntimeError):
    """ZF degenerate realization: the effective channel is too ill conditioned."""


def effective_channel(g: np.ndarray, theta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-user effective MISO rows through the RIS, shape (K, T).

    Row k is theta^H diag(conj(g_k)) H, so (H_eff @ u)[k] equals theta^H a_{k, i}
    for the cascade vectors a built from the same g, H, and precoder columns.
    theta is the optimization variable; its conjugate carries the physical
    phase shifts.
    """
    g = np.atleast_2d(np.asarray(g))
    return (np.conj(theta)[None, :] * np.conj(g)) @ h


def check_zf_gram(gram: np.ndarray) -> None:
    """Raise ZfDegenerateError when the Gram matrix H H^H is too ill conditioned for ZF.

    The Gram matrix is Hermitian positive semidefinite, so its 2-norm
    condition number is its largest over its smallest eigenvalue (eigvalsh,
    no SVD). A non-finite entry, or a smallest eigenvalue that is zero or a
    negative roundoff, counts as infinitely ill conditioned.
    """
    cond = np.inf
    if np.isfinite(gram).all():  # on a NaN, eigvalsh returns zeros or fails to converge
        lam = np.linalg.eigvalsh(gram)  # ascending
        if lam[0] > 0.0:
            cond = lam[-1] / lam[0]
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ZfDegenerateError(
            f"ZF degenerate realization: Gram condition number {cond:.3e}"
        )


def zf_precoder(h_eff: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder (T, K) with individually normalized columns.

    Columns of the raw pseudo-inverse H^H (H H^H)^-1 are scaled to unit norm,
    which keeps per-user power at its allocation but leaves a per-user gain
    1/||raw column||. Raises ZfDegenerateError when the Gram matrix condition
    number exceeds COND_LIMIT.
    """
    h_eff = np.asarray(h_eff)
    num_users, num_antennas = h_eff.shape
    if num_users > num_antennas:
        raise ValueError("ZF infeasible: more users than antennas")
    gram = h_eff @ np.conj(h_eff).T
    check_zf_gram(gram)
    raw = np.conj(h_eff).T @ np.linalg.inv(gram)
    norms = np.linalg.norm(raw, axis=0)
    if np.any(norms == 0.0):
        raise ZfDegenerateError("ZF degenerate realization: zero precoder column")
    return raw / norms[None, :]
