"""Cascaded channel terms and per-user SINR for the four interference scenarios."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress

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
    its precoder is a function of theta and is not stored (see UserParts).
    Column j of s = Z21^H Theta2 H2 u2 is the cluster-2 stream j as it
    leaves the neighbor RIS towards the serving RIS, so user k receives it
    with amplitude v_k^H s_j, v_k = g_k o theta.
    w21 = Theta2^H Z21 maps serving-RIS element signals to the neighbor RIS,
    so EMI re-reflected by the neighbor has covariance w21^H R2 w21 at the
    serving RIS. All interference terms are evaluated as matrix-vector
    products on v_k (see interference); no per-user covariance is formed.
    EMI powers are the aggregate captured levels (element area times EMI PSD
    integrated over the bandwidth) in watts. The terms do not depend on the
    transmit powers, so one set serves every power of a draw; a scenario's
    EMI levels are set with replace.
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
    emi_self_factor: float = 4.0,
    theta2: np.ndarray | None = None,
    u2: np.ndarray | None = None,
    h2: np.ndarray | None = None,
    z21: np.ndarray | None = None,
    r2: np.ndarray | None = None,
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


def reflected_emi_covariance(terms: CascadeTerms) -> np.ndarray:
    """D = W21^H R2 W21, the serving-RIS covariance of EMI re-reflected by the neighbor.

    It depends on the draw and the cluster-2 state only. A real R2 (a
    correlation, so symmetric) takes five real N^3 products: with P = R2 Re W
    and Q = R2 Im W, Re D = Re W^T P + Im W^T Q and Im D = T - T^T for
    T = Re W^T Q. A complex R2 takes the complex product.
    """
    w21, r2 = terms.w21, terms.r2
    if np.iscomplexobj(r2) or not np.array_equal(r2, r2.T):
        return np.conj(w21).T @ (r2 @ w21)
    wr, wi = w21.real.copy(), w21.imag.copy()
    re = wr.T @ (r2 @ wr)
    q = r2 @ wi
    re += wi.T @ q
    t = wr.T @ q
    del wr, wi, q  # the peak stays at five N x N real arrays
    out = np.empty(t.shape, dtype=complex)
    out.real = re
    np.subtract(t, t.T, out=out.imag)
    return out


def _operator_key(terms: CascadeTerms):
    """What the EMI_IRR operator of terms depends on (see emi_irr_operator), or
    None without EMI: the neighbor terms and serving correlation, told apart
    by identity (replace keeps it), the self factor and e2 / e1."""
    e1, e2 = terms.emi1_w, terms.emi2_w
    if not (e1 or e2):
        return None
    ratio = e2 / e1 if e1 else None
    return (id(terms.w21), id(terms.r2), id(terms.r1), terms.emi_self_factor, ratio)


def emi_irr_operator(terms: CascadeTerms, reflected=None) -> np.ndarray | None:
    """A, with e A = f e1 R1 + e2 D the EMI part of the EMI_IRR covariance,
    or None when e1 = e2 = 0.

    With e1 nonzero, e = e1 and A = f R1 + (e2 / e1) D, so every EMI level
    with the same e2 / e1 (every per-case level, e1 = e2) shares one A; with
    e1 = 0, e = e2 and A = D. reflected is D (reflected_emi_covariance),
    built here when not given; passing it lets several operators share it,
    with the same result to the last bit.
    """
    if not (terms.emi1_w or terms.emi2_w):
        return None
    if reflected is None:
        reflected = reflected_emi_covariance(terms)
    if not terms.emi1_w:
        return reflected
    op = (terms.emi2_w / terms.emi1_w) * reflected
    op += terms.emi_self_factor * terms.r1
    return op


def interference(
    terms: CascadeTerms,
    theta: np.ndarray,
    kind: ScenarioKind,
    powers: PowerAllocation,
    noise_power_w: float,
    av: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Interference-plus-noise power per user, with M_k theta for its gradient.

    M_k = diag(g_k*) C diag(g_k) is the interference covariance C at the
    serving RIS seen through user k's channel: C = S diag(p2) S^H with IRR,
    emi1_w R1 with EMI, and e A + S diag(p2) S^H with EMI_IRR, where e A =
    f e1 R1 + e2 W21^H R2 W21 adds the EMI re-reflected by the neighbor (see
    emi_irr_operator). With v_k = g_k o theta, M_k theta = g_k* o (C v_k) and
    den_k = noise + theta^H M_k theta. Returns (den, mv) with mv[k] =
    M_k theta, or (noise, None) for EIF. The IRR term goes through S's K2
    columns. For EMI_IRR, av is v @ A.T (rows A v_k), formed here when not
    given; UtilityStack.objective forms it for all the rows that share A in
    one product.
    """
    den = np.full(terms.num_users, float(noise_power_w))
    if kind is ScenarioKind.EIF:
        return den, None
    v = terms.g1 * theta  # rows v_k
    if kind.has_irr:
        p2 = _cluster2_powers(terms, kind, powers)
        cv = (p2 * np.conj(np.conj(v) @ terms.s)) @ terms.s.T  # rows sum_j p2_j s_j s_j^H v_k
        scale = terms.emi1_w or terms.emi2_w  # e of emi_irr_operator
        if kind is ScenarioKind.EMI_IRR and scale:
            if av is None:
                av = _times_transpose(v, emi_irr_operator(terms))
            cv = scale * av + cv
    else:
        cv = terms.emi1_w * _times_transpose(v, terms.r1)  # rows emi1_w R1 v_k
    mv = np.conj(terms.g1) * cv
    den = den + np.maximum((mv @ np.conj(theta)).real, 0.0)  # floored against roundoff
    return den, mv


def cascade_tensor(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """U[(k, t), n] = conj(g[k, n]) h[n, t] for g (..., K, N) and h (..., N, T).

    Shape (..., K T, N), k major. Row k of H(theta) = theta^H diag(g_k*) h is
    then U @ conj(theta) reshaped to (K, T) (see cascade_channel), so H(theta)
    costs one product and no (K, N) temporary.
    """
    u = np.conj(g)[..., :, None, :] * np.swapaxes(h, -1, -2)[..., None, :, :]
    return u.reshape(u.shape[:-3] + (-1, u.shape[-1]))


def cascade_channel(u: np.ndarray, theta: np.ndarray, num_users: int) -> np.ndarray:
    """H(theta) of every row, (B, K, T), from cascade tensors u (B, K T, N) and
    phases theta (B, N): effective_channel up to roundoff, as one product per row."""
    return (u @ np.conj(theta)[:, :, None]).reshape(len(u), num_users, -1)


def zf_gradient(u: np.ndarray, h_eff: np.ndarray, g_inv: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """sum_k scale_k dc_k/dtheta* of every row, (B, N), for c_k = [A]_kk, A = G^-1.

    H(theta) = U conj(theta) depends on conj(theta) only, so dA = -A dG A with
    dG = dH H^H gives -vec(M^T) @ U, where M = H^H A diag(scale) A (T x K)
    and vec runs over (k, t), k major, as U's rows do: one (1 x K T) @
    (K T x N) product per row.
    """
    m = ((np.conj(h_eff).swapaxes(1, 2) @ g_inv) * scale[:, None, :]) @ g_inv
    return -(m.swapaxes(1, 2).reshape(len(m), 1, -1) @ u)[:, 0]


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


@dataclass(frozen=True)
class UserParts:
    """Per-user scalars at one theta from which every scenario's SINR is mixed.

    c_k = [G^-1]_kk for the ZF Gram G = H(theta) H(theta)^H. Cluster 1 is
    zero-forced at theta with unit-norm columns, so intra-cluster leakage
    vanishes and user k receives amplitude 1 / sqrt(c_k): sig_k = p_k / c_k.
    With v_k = g_k o theta, q1_k = v_k^H R1 v_k is
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
    EMI keeps e1 q1_k, IRR the sum over j, and EIF is noise alone. The den
    of an interference call (see interference) at the parts' theta is the
    same sum, up to roundoff.
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


def scenario_sinr(terms, theta, kind, powers, noise_power_w, weights=None) -> SinrReport:
    """kind's SinrReport at theta with ZF precoding at theta: parts_sinr of
    the parts at theta (with the neighbor parts for IRR kinds).

    Raises ZfDegenerateError when ZF is ill conditioned at theta. A caller
    evaluating several cases, powers or EMI levels at one theta builds the
    parts once instead (see harness._evaluate_block).
    """
    kind = ScenarioKind(kind)
    parts = user_parts(terms, theta)
    if kind.has_irr:
        parts = neighbor_parts(parts, terms, theta)
    return parts_sinr(parts, terms, kind, powers, noise_power_w, weights)


class UtilityStack:
    """B weighted log-rate utilities over (B, N) phases, one cluster per row.

    Row b is a cluster with channels g[b] (K, N) and h[b] (N, T), powers[b]
    and weights[b], all at one noise power. The stack keeps each row's
    cascade tensor u[b] (K T, N) (see cascade_tensor) in place of g and h.
    interference[b] is None for the interference-free utility (kind EIF), or
    the row's (terms, kind, powers, op) for kind's interference on those
    terms (see interference), with op the operator A of an EMI_IRR row with
    EMI (emi_irr_operator) and None otherwise; interference None makes every
    row EIF. Row b's
    utility is sum_k w_k ln(1 + sig_k / den_k) with sig_k = p_k / [G^-1]_kk
    (see UserParts). Its gradient, 2 df/dtheta*, reuses the terms of the
    row's last objective call: H(theta) depends on conj(theta) only, through
    u (see zf_gradient), and dden_k/dtheta* = M_k theta (see interference).
    Every step is a batched @ or np.linalg.inv, which run the 2-D routine on
    each slice, or elementwise, so a row equals the same evaluation of its
    cluster alone bit for bit; so do the EMI_IRR rows that share one A, whose
    products with it are one (see _operator_products). weighted_log_utility
    and rcg.euclid_grad are one-row stacks. A non-EIF row adds the den and
    M_k theta of one interference call per objective call. A stack of EIF
    rows only makes no call per row. This is the problem protocol of
    rcg.rcg_lockstep.
    """

    def __init__(self, g, h, powers, weights, noise_power_w: float, interference=None):
        self.u = cascade_tensor(g, h)  # (B, K T, N)
        self.powers = powers  # (B, K)
        self.weights = weights  # (B, K)
        self.noise = float(noise_power_w)
        if interference is not None and all(row is None for row in interference):
            interference = None
        self.interference = None if interference is None else list(interference)
        # each row's terms at its last objective call, for the gradient
        self.h_eff = np.empty(powers.shape + h.shape[2:], dtype=complex)
        self.g_inv = np.empty(powers.shape + powers.shape[1:], dtype=complex)
        self.sig = np.empty(powers.shape)
        self.den = np.full(powers.shape, self.noise)
        self.mv = [None] * len(powers)  # M_k theta of the non-EIF rows

    @classmethod
    def of(cls, rows, noise_power_w: float) -> UtilityStack:
        """The stack of rows (terms, kind, powers, weights): kind's utility on
        terms' cluster-1 channels, with weights an array or None (every
        weight 1). Every row needs the same shapes.

        Every IRR-kind row's neighbor terms and cluster-2 powers are checked
        first. Each EMI_IRR row then gets its operator A (emi_irr_operator),
        one per _operator_key, from one W21^H R2 W21 per neighbor terms: the
        rows of a draw at every EMI level with e2 / e1 fixed and every power
        share one A.
        """
        rows = [(terms, ScenarioKind(kind), powers, weights) for terms, kind, powers, weights in rows]
        for terms, kind, powers, _ in rows:
            if kind.has_irr:
                _cluster2_powers(terms, kind, powers)
        reflected, ops, per_row = {}, {}, []
        for terms, kind, powers, _ in rows:
            op = None
            key = _operator_key(terms) if kind is ScenarioKind.EMI_IRR else None
            if key is not None:
                if key not in ops:
                    if key[:2] not in reflected:
                        reflected[key[:2]] = reflected_emi_covariance(terms)
                    ops[key] = emi_irr_operator(terms, reflected[key[:2]])
                op = ops[key]
            per_row.append(None if kind is ScenarioKind.EIF else (terms, kind, powers, op))
        return cls(
            np.stack([terms.g1 for terms, *_ in rows]),
            np.stack([terms.h1 for terms, *_ in rows]),
            np.array([powers.cluster1 for _, _, powers, _ in rows], dtype=float),
            np.array([np.ones(terms.num_users) if w is None else w for terms, *_, w in rows], dtype=float),
            noise_power_w,
            per_row,
        )

    def _operator_products(self, theta: np.ndarray, index) -> dict:
        """v @ A.T of each evaluated EMI_IRR row i (a row of theta, stack row
        index[i]), by i: one product per operator A over the rows that share it.

        Each K-row block of a (r K, N) complex product equals the K-row
        product alone bit for bit when K >= 2, so a row does not depend on
        its stack-mates; one row of one user is a matrix-vector product with
        other roundoff, so with K = 1 every row keeps its own product.
        """
        users = self.powers.shape[1]
        groups = {}
        for i, r in enumerate(index):
            row = self.interference[r]
            if row is not None and row[3] is not None:
                groups.setdefault(id(row[3]) if users > 1 else i, []).append(i)
        out = {}
        for members in groups.values():
            op = self.interference[index[members[0]]][3]
            v = np.concatenate([self.interference[index[i]][0].g1 * theta[i] for i in members])
            out.update(zip(members, _times_transpose(v, op).reshape(len(members), users, -1)))
        return out

    def objective(self, theta: np.ndarray, rows=None) -> np.ndarray:
        """The utilities of rows (default: all) at theta, one row of theta each."""
        at = slice(None) if rows is None else rows
        h_eff = cascade_channel(self.u[at], theta, self.powers.shape[1])
        g_inv = np.linalg.inv(h_eff @ np.conj(h_eff).swapaxes(1, 2))
        sig = self.powers[at] / np.diagonal(g_inv, axis1=1, axis2=2).real
        self.h_eff[at], self.g_inv[at], self.sig[at] = h_eff, g_inv, sig
        den = self.noise
        if self.interference is not None:
            den = np.full(sig.shape, self.noise)
            index = range(len(self.mv)) if rows is None else rows
            av = self._operator_products(theta, index)
            for i, r in enumerate(index):
                if self.interference[r] is not None:
                    terms, kind, powers, _ = self.interference[r]
                    den[i], self.mv[r] = interference(terms, theta[i], kind, powers, self.noise, av.get(i))
            self.den[at] = den
        vals = np.log1p(sig / den)
        return (self.weights[at][:, None, :] @ vals[:, :, None])[:, 0, 0]

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Every row's Euclidean gradient at theta, where each row's last
        objective call was made (the terms of that call are reused)."""
        c = np.diagonal(self.g_inv, axis1=1, axis2=2).real
        den = self.noise if self.interference is None else self.den
        share = self.weights * self.sig / (self.sig + den)
        grad = zf_gradient(self.u, self.h_eff, self.g_inv, share / c)
        if self.interference is not None:
            for r, mv in enumerate(self.mv):
                if mv is not None:
                    grad[r] = grad[r] + (share[r] / den[r]) @ mv
        return -2.0 * grad

    def take(self, keep) -> UtilityStack:
        """The stack of rows keep (a boolean mask), with their last terms."""
        sub = UtilityStack.__new__(UtilityStack)
        sub.noise = self.noise
        for name in ("u", "powers", "weights", "h_eff", "g_inv", "sig", "den"):
            setattr(sub, name, getattr(self, name)[keep])
        sub.mv = list(compress(self.mv, keep))
        sub.interference = None if self.interference is None else list(compress(self.interference, keep))
        return sub


def outage_indicator(rates: np.ndarray, threshold: float) -> np.ndarray:
    """Per-user 0/1 outage flags; a rate exactly at the threshold is not an outage."""
    return (np.asarray(rates, dtype=float) < threshold).astype(int)


def weighted_log_utility(terms, theta, kind, powers, noise_power_w, weights=None) -> float:
    """Optimizer objective: sum of weighted natural-log rates, the utility of
    a one-row UtilityStack at theta."""
    stack = UtilityStack.of([(terms, kind, powers, weights)], noise_power_w)
    return float(stack.objective(theta[None])[0])
