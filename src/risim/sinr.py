"""Cascaded channel terms and per-user SINR for the four interference scenarios."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .precoding import check_zf_gram, effective_channel


class ScenarioKind(str, Enum):
    """Which impairments the downlink SINR accounts for."""

    EIF = "eif"  # interference-free baseline: noise only (ZF nulls intra-cluster leakage)
    EMI = "emi"  # adds electromagnetic interference captured by the serving RIS
    IRR = "irr"  # adds signal reflections arriving via the neighbor RIS
    EMI_IRR = "emi_irr"  # both, including EMI re-reflected by the neighbor RIS

    @property
    def has_irr(self) -> bool:
        return self in (ScenarioKind.IRR, ScenarioKind.EMI_IRR)

    @property
    def has_emi(self) -> bool:
        return self in (ScenarioKind.EMI, ScenarioKind.EMI_IRR)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user transmit powers in watts."""

    cluster1: np.ndarray
    cluster2: np.ndarray | None = None


@dataclass(frozen=True)
class CascadeTerms:
    """Fixed per-(realization, theta2) quantities the SINR needs.

    h1 and g1 give cluster 1's effective channel H(theta), whose row k is
    theta^H diag(g_k*) h1. Cluster 1 is zero-forced with unit-norm columns, so
    its precoder is a function of theta and is not stored (see PhasePoint).
    Column j of s = Z21^H Theta2 H2 u2 is the cluster-2 stream j as it
    leaves the neighbor RIS towards the serving RIS, so user k receives it
    with amplitude v_k^H s_j, v_k = g_k o theta.
    w21 = Theta2^H Z21 maps serving-RIS element signals to the neighbor RIS,
    so EMI re-reflected by the neighbor has covariance w21^H R2 w21 at the
    serving RIS. All interference terms are evaluated as matrix-vector
    products on v_k (see interference); no per-user covariance is formed,
    except that an optimizer may set cov to the dense EMI_IRR covariance, and
    reflected to W21^H R2 W21 so that building cov at several EMI levels and
    powers pays for that product once. EMI powers are the aggregate captured
    levels (element area times EMI PSD integrated over the bandwidth) in
    watts. The terms do not depend on the transmit powers, so one set serves
    every power of a draw; a scenario's EMI levels are set with replace.
    """

    h1: np.ndarray  # (L1^2, T1)
    g1: np.ndarray  # (K1, L1^2)
    r1: np.ndarray  # (L1^2, L1^2) serving-RIS correlation
    emi1_w: float = 0.0
    emi2_w: float = 0.0
    emi_self_factor: float = 4.0
    s: np.ndarray | None = None  # (L1^2, K2)
    w21: np.ndarray | None = None  # (L2^2, L1^2)
    r2: np.ndarray | None = None  # (L2^2, L2^2) neighbor-RIS correlation
    reflected: np.ndarray | None = None  # (L1^2, L1^2) reflected_emi_covariance, when prebuilt
    cov: np.ndarray | None = None  # (L1^2, L1^2) prebuilt EMI_IRR C, see emi_irr_covariance

    @property
    def num_users(self) -> int:
        return self.g1.shape[0]

    @property
    def num_elements(self) -> int:
        return self.g1.shape[1]


def build_cascades(
    h1: np.ndarray,
    g1: np.ndarray,
    r1: np.ndarray,
    emi1_w: float = 0.0,
    emi_self_factor: float = 4.0,
    theta2: np.ndarray | None = None,
    u2: np.ndarray | None = None,
    h2: np.ndarray | None = None,
    z21: np.ndarray | None = None,
    r2: np.ndarray | None = None,
    emi2_w: float = 0.0,
) -> CascadeTerms:
    """Assemble CascadeTerms for cluster 1 given fixed cluster-2 state.

    The neighbor arguments (theta2, u2, h2, z21, r2) must be given together;
    without them only the EIF/EMI scenarios can be evaluated. z21 rows are
    indexed by neighbor-RIS elements, columns by serving-RIS elements.
    """
    h1 = np.asarray(h1)
    g1 = np.atleast_2d(np.asarray(g1))
    num_elements, num_antennas = h1.shape
    if g1.shape[1] != num_elements:
        raise ValueError("g1 and h1 disagree on the element count")
    if g1.shape[0] > num_antennas:
        raise ValueError("ZF infeasible: more users than antennas")
    if r1.shape != (num_elements, num_elements):
        raise ValueError("r1 must be (L^2, L^2) for the serving RIS")

    neighbor = (theta2, u2, h2, z21, r2)
    if any(x is None for x in neighbor) and any(x is not None for x in neighbor):
        raise ValueError("neighbor arguments must be provided together")

    s = None
    w21 = None
    if theta2 is not None:
        s = np.conj(z21).T @ (np.conj(theta2)[:, None] * (h2 @ u2))
        w21 = theta2[:, None] * z21  # Theta2^H Z21

    return CascadeTerms(
        h1=h1,
        g1=g1,
        r1=np.asarray(r1),
        emi1_w=float(emi1_w),
        emi2_w=float(emi2_w),
        emi_self_factor=float(emi_self_factor),
        s=s,
        w21=w21,
        r2=r2,
    )


def _times_transpose(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m.T; a real m multiplies the real and imaginary parts of v separately,
    so numpy does not cast the whole matrix to complex on every call."""
    if np.iscomplexobj(m):
        return v @ m.T
    return v.real @ m.T + 1j * (v.imag @ m.T)


def _cluster2_powers(terms: CascadeTerms, kind: ScenarioKind, powers: PowerAllocation):
    if terms.s is None:
        raise ValueError(f"{kind.value} needs cascade terms built with a neighbor RIS")
    if powers.cluster2 is None:
        raise ValueError(f"{kind.value} needs cluster-2 transmit powers")
    return np.asarray(powers.cluster2, dtype=float)


def _covariance_times(
    terms: CascadeTerms, v: np.ndarray, kind: ScenarioKind, powers: PowerAllocation
) -> np.ndarray:
    """Rows C v_k of kind's interference covariance C, from its factors."""
    cv = 0.0
    if kind.has_irr:
        p2 = _cluster2_powers(terms, kind, powers)
        cv = (p2 * np.conj(np.conj(v) @ terms.s)) @ terms.s.T  # rows sum_j p2_j s_j s_j^H v_k
    if kind.has_emi:
        emi = terms.emi1_w * _times_transpose(v, terms.r1)  # rows emi1_w R1 v_k
        if kind is ScenarioKind.EMI_IRR:
            # rows w21^H R2 w21 v_k; x @ conj(w21) is taken as conj(conj(x) @ w21)
            # so that no conjugated N x N copy of w21 is made per call
            reflected = np.conj(np.conj(_times_transpose(v @ terms.w21.T, terms.r2)) @ terms.w21)
            emi = terms.emi_self_factor * emi + terms.emi2_w * reflected
        cv = cv + emi
    return cv


def reflected_emi_covariance(terms: CascadeTerms) -> np.ndarray:
    """W21^H R2 W21, the serving-RIS covariance of EMI re-reflected by the neighbor.

    One N^3 product; it depends on the draw and the cluster-2 state only.
    """
    w21 = terms.w21
    return np.conj(w21).T @ _times_transpose(w21.T, terms.r2).T


def emi_irr_covariance(terms: CascadeTerms, powers: PowerAllocation) -> np.ndarray:
    """The EMI_IRR covariance C (see interference) as one dense matrix.

    From its factors C v_k costs four N x N products (R1, w21 twice, R2); an
    optimizer that applies the same C hundreds of times builds it once here
    and sets it as CascadeTerms.cov for the same powers. W21^H R2 W21 is
    terms.reflected when set, and is built here otherwise; the result is the
    same to the last bit.
    """
    p2 = _cluster2_powers(terms, ScenarioKind.EMI_IRR, powers)
    reflected = terms.reflected
    if reflected is None:
        reflected = reflected_emi_covariance(terms)
    return (
        (terms.emi_self_factor * terms.emi1_w) * terms.r1
        + terms.emi2_w * reflected
        + (terms.s * p2) @ np.conj(terms.s).T
    )


def interference(
    terms: CascadeTerms,
    theta: np.ndarray,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Interference-plus-noise power per user, with M_k theta for its gradient.

    M_k = diag(g_k*) C diag(g_k) is the interference covariance C at the
    serving RIS seen through user k's channel: C = sum_j p2_j s_j s_j^H with
    IRR, plus emi1_w R1 with EMI, where EMI_IRR scales that by the self factor
    and adds the re-reflected emi2_w w21^H R2 w21. With v_k = g_k o theta,
    M_k theta = g_k* o (C v_k) and den_k = noise + theta^H M_k theta. Returns
    (den, mv) with mv[k] = M_k theta, or (noise, None) for EIF. C v_k is one
    product with terms.cov when it is set and kind is EMI_IRR, and is formed
    from the factors otherwise.
    """
    den = np.full(terms.num_users, float(noise_power_w))
    if kind is ScenarioKind.EIF:
        return den, None
    v = terms.g1 * theta  # rows v_k
    if kind is ScenarioKind.EMI_IRR and terms.cov is not None:
        cv = v @ terms.cov.T
    else:
        cv = _covariance_times(terms, v, kind, powers)
    mv = np.conj(terms.g1) * cv
    den = den + np.maximum((mv @ np.conj(theta)).real, 0.0)  # floored against roundoff
    return den, mv


@dataclass(frozen=True)
class PhasePoint:
    """What the utility and its gradient share at one theta.

    Cluster 1 is zero-forced at theta with unit-norm columns, so intra-cluster
    leakage vanishes and user k receives amplitude 1 / sqrt([G^-1]_kk) with
    G = H(theta) H(theta)^H: sig_k = p_k / [G^-1]_kk. den and mv are
    interference's.
    """

    theta: np.ndarray  # a copy, so that a caller's later in-place change cannot alias it
    h_eff: np.ndarray  # (K1, T1) effective channel H(theta)
    g_inv: np.ndarray  # (K1, K1) G^-1
    sig: np.ndarray  # (K1,) received signal power
    den: np.ndarray  # (K1,) interference-plus-noise power
    mv: np.ndarray | None  # (K1, L1^2) M_k theta; None for EIF


def phase_point(
    terms: CascadeTerms,
    theta: np.ndarray,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
) -> PhasePoint:
    """Evaluate the ZF and interference terms of kind's utility at theta."""
    h_eff = effective_channel(terms.g1, theta, terms.h1)
    g_inv = np.linalg.inv(h_eff @ np.conj(h_eff).T)
    sig = np.asarray(powers.cluster1, dtype=float) / np.diagonal(g_inv).real
    den, mv = interference(terms, theta, kind, powers, noise_power_w)
    return PhasePoint(theta=np.array(theta), h_eff=h_eff, g_inv=g_inv, sig=sig, den=den, mv=mv)


@dataclass(frozen=True)
class SinrReport:
    scenario: ScenarioKind
    sinr: np.ndarray
    rates_bps_hz: np.ndarray
    sum_rate_bps_hz: float
    weights: np.ndarray


def _report(kind: ScenarioKind, sig: np.ndarray, den: np.ndarray, weights) -> SinrReport:
    gamma = sig / den
    rates = np.log2(1.0 + gamma)
    w = np.ones(gamma.size) if weights is None else np.asarray(weights, dtype=float)
    return SinrReport(
        scenario=kind,
        sinr=gamma,
        rates_bps_hz=rates,
        sum_rate_bps_hz=float(w @ rates),
        weights=w,
    )


def scenario_sinr(terms, theta, kind, powers, noise_power_w, weights=None) -> SinrReport:
    """Per-user SINR, rates and weighted sum rate for one scenario."""
    kind = ScenarioKind(kind)
    point = phase_point(terms, theta, kind, powers, noise_power_w)
    return _report(kind, point.sig, point.den, weights)


@dataclass(frozen=True)
class UserParts:
    """Per-user scalars at one theta from which every scenario's SINR is mixed.

    c_k = [G^-1]_kk for the ZF Gram G = H(theta) H(theta)^H, so sig_k =
    p_k / c_k (see PhasePoint). With v_k = g_k o theta, q1_k = v_k^H R1 v_k is
    the serving-RIS EMI user k receives per watt of emi1_w, qr_k =
    v_k^H W21^H R2 W21 v_k the EMI re-reflected by the neighbor per watt of
    emi2_w, and a[k, j] = |s_j^H v_k|^2 the inter-RIS reflection of cluster-2
    stream j per watt. No part depends on a power or an EMI level, so one set
    serves every case, power and EMI level evaluated at the same theta (see
    parts_sinr). qr and a need the neighbor RIS; they are None until
    neighbor_parts adds them.
    """

    c: np.ndarray  # (K1,)
    q1: np.ndarray  # (K1,)
    qr: np.ndarray | None = None  # (K1,)
    a: np.ndarray | None = None  # (K1, K2)


def _quadratic(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Re(x_k^H M x_k) for every row x_k of x."""
    return (np.conj(x) * _times_transpose(x, m)).sum(axis=1).real


def user_parts(terms: CascadeTerms, theta: np.ndarray) -> UserParts:
    """The ZF check, c and q1 at theta (see UserParts).

    Raises ZfDegenerateError when ZF is ill conditioned at theta.
    """
    h_eff = effective_channel(terms.g1, theta, terms.h1)
    gram = h_eff @ np.conj(h_eff).T
    check_zf_gram(gram)
    c = np.diagonal(np.linalg.inv(gram)).real
    return UserParts(c=c, q1=_quadratic(terms.g1 * theta, terms.r1))


def neighbor_parts(parts: UserParts, terms: CascadeTerms, theta: np.ndarray) -> UserParts:
    """parts, which must be user_parts at theta, with qr and a from the neighbor RIS terms."""
    if terms.s is None:
        raise ValueError("neighbor parts need cascade terms built with a neighbor RIS")
    v = terms.g1 * theta  # rows v_k
    qr = _quadratic(v @ terms.w21.T, terms.r2)  # rows W21 v_k through R2
    return replace(parts, qr=qr, a=np.abs(v @ np.conj(terms.s)) ** 2)


def parts_sinr(parts, terms, kind, powers, noise_power_w, weights=None) -> SinrReport:
    """kind's SinrReport from parts, at the EMI levels and self factor of terms.

    For EMI_IRR, den_k = noise + max(f e1 q1_k + e2 qr_k + sum_j p2_j a[k, j], 0);
    EMI keeps e1 q1_k, IRR the sum over j, and EIF is noise alone. This is
    scenario_sinr at the parts' theta, up to roundoff.
    """
    kind = ScenarioKind(kind)
    inner = np.zeros(parts.c.size)
    if kind.has_emi:
        inner = terms.emi1_w * parts.q1
        if kind is ScenarioKind.EMI_IRR:
            inner = terms.emi_self_factor * inner + terms.emi2_w * parts.qr
    if kind.has_irr:
        inner = inner + parts.a @ _cluster2_powers(terms, kind, powers)
    den = float(noise_power_w) + np.maximum(inner, 0.0)  # floored as in interference
    return _report(kind, np.asarray(powers.cluster1, dtype=float) / parts.c, den, weights)


def outage_indicator(rates: np.ndarray, threshold: float) -> np.ndarray:
    """Per-user 0/1 outage flags; a rate exactly at the threshold is not an outage."""
    return (np.asarray(rates, dtype=float) < threshold).astype(int)


def weighted_log_utility(
    terms, theta, kind, powers, noise_power_w, weights=None, keep=None
) -> float:
    """Optimizer objective: sum of weighted natural-log rates.

    keep, a list, is set to [the PhasePoint at theta], so that a gradient at
    the same theta can reuse it (see rcg.phase_objective).
    """
    point = phase_point(terms, theta, kind, powers, noise_power_w)
    if keep is not None:
        keep[:] = [point]
    vals = np.log1p(point.sig / point.den)
    if weights is None:
        return float(vals.sum())
    return float(np.asarray(weights, dtype=float) @ vals)
