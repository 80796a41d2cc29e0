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


def check_zf_gram(gram: np.ndarray, cond_limit: float = COND_LIMIT) -> None:
    """Raise ZfDegenerateError when the Gram matrix H H^H is too ill conditioned for ZF."""
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > cond_limit:
        raise ZfDegenerateError(
            f"ZF degenerate realization: Gram condition number {cond:.3e}"
        )


def zf_precoder(h_eff: np.ndarray, cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Zero-forcing precoder (T, K) with individually normalized columns.

    Columns of the raw pseudo-inverse H^H (H H^H)^-1 are scaled to unit norm,
    which keeps per-user power at its allocation but leaves a per-user gain
    1/||raw column||. Raises ZfDegenerateError when the Gram matrix condition
    number exceeds cond_limit.
    """
    h_eff = np.asarray(h_eff)
    num_users, num_antennas = h_eff.shape
    if num_users > num_antennas:
        raise ValueError("ZF infeasible: more users than antennas")
    gram = h_eff @ np.conj(h_eff).T
    check_zf_gram(gram, cond_limit)
    raw = np.conj(h_eff).T @ np.linalg.inv(gram)
    norms = np.linalg.norm(raw, axis=0)
    if np.any(norms == 0.0):
        raise ZfDegenerateError("ZF degenerate realization: zero precoder column")
    return raw / norms[None, :]
