"""Polynomial reaction drift, its tamed and regularized variants, and
the structural constants used by the step-size admissibility condition.

The drift has the dissipative form ``f(v) = -c_f v^(2q-1) + f0(v)`` with
integer q >= 2 and f0 a polynomial of degree <= 2q-2.  The tamed variant

    f_tau(v) = f(v) / (1 + beta tau^theta |v|^((2q-2)/alpha))^alpha

keeps the zeros of f while damping its superlinear growth enough for an
explicit scheme; the regularized variant f_delta divides by
``1 + sqrt(delta) |v|^(2q-2)`` and is globally Lipschitz for delta > 0.

Structural constants (L_f, c0..c5) are certified, falsifiably and
reproducibly as the admissibility checks need, on one fixed grid in u
(the coercivity supremum over v is taken exactly); the invariant checks
share that grid, one delta family and one sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .spectral import _as_int

__all__ = [
    "DriftSpec",
    "TamingParams",
    "DriftConstants",
    "DriftDerivationError",
    "ALLEN_CAHN",
    "f_eval",
    "f_prime_eval",
    "f_tau_eval",
    "f_delta_eval",
    "f_delta_prime_eval",
    "derive_growth_constants",
    "step_size_condition",
    "CheckResult",
    "check_taming_domination",
    "check_taming_gap",
    "check_one_sided_delta_derivative",
    "check_delta_derivative_growth",
    "check_power_mean_inequality",
    "verification_grid",
]


class DriftDerivationError(ValueError):
    """Raised when no candidate constants certify on the verification grid."""


@dataclass(frozen=True)
class DriftSpec:
    """Drift polynomial ``f(v) = -leading * v^(2q-1) + f0(v)``.

    ``lower`` holds the coefficients of f0 in ascending order
    (constant first); its degree must be <= 2q-2.
    """

    q: int
    leading: float
    lower: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "q", _as_int("q", self.q, 2))
        if not self.leading > 0:
            raise ValueError(f"leading coefficient must be > 0, got {self.leading}")
        if len(self.lower) > 2 * self.q - 1:
            raise ValueError(
                f"f0 degree must be <= 2q-2 = {2 * self.q - 2}, "
                f"got {len(self.lower) - 1} coefficients beyond that"
            )
        c = np.zeros(2 * self.q)
        c[: len(self.lower)] += self.lower
        c[-1] -= self.leading
        c.flags.writeable = False
        # built once: the sweep evaluates f on every collocation
        object.__setattr__(self, "_coeffs", c)

    @property
    def coeffs(self) -> np.ndarray:
        """Full polynomial coefficients of f, ascending order, length 2q
        (read-only)."""
        return self._coeffs


#: Allen-Cahn drift f(v) = v - v^3.
ALLEN_CAHN = DriftSpec(q=2, leading=1.0, lower=(0.0, 1.0))


@dataclass(frozen=True)
class TamingParams:
    """Taming triple (alpha, beta, theta); the scheme supplies the step tau."""

    alpha: float
    beta: float
    theta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "theta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.alpha * self.theta < 1:
            raise ValueError(
                f"need theta * alpha < 1, got {self.theta} * {self.alpha} "
                f"= {self.theta * self.alpha}"
            )


def _horner(c, v, out: np.ndarray | None = None) -> np.ndarray:
    # sum c[k] v^k (len(c) >= 2) in place, into ``out`` when given, from
    # v c[-1] and with no add of an interior zero: a skipped + 0 only leaves
    # -0 for polyval's +0, and the add of c[0] (+0 or nonzero) erases it
    out = np.multiply(v, c[-1], out=out)
    for ci in c[-2:0:-1]:
        if ci:
            out += ci
        out *= v
    out += c[0]
    return out[()] if out.ndim == 0 else out


def f_eval(d: DriftSpec, v, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate f(v); vectorized over v, into ``out`` when given.

    The bits are numpy's ``polyval``'s on finite and NaN v; +-inf gives
    f's limit, where polyval gives NaN.  Allen-Cahn takes 5 array passes.
    """
    return _horner(d.coeffs, np.asarray(v, dtype=np.float64), out)


def f_prime_eval(d: DriftSpec, v) -> np.ndarray:
    """Exact derivative f'(v): the bits of ``polyval(v, polyder(coeffs))``
    on finite and NaN v, and f''s limit at v = +-inf.  The coefficients
    are built per call, since (2q-1) leading may overflow."""
    c = d.coeffs
    return _horner(np.arange(1, len(c)) * c[1:], np.asarray(v, np.float64))


def _abs_power(v: np.ndarray, p, out: np.ndarray | None = None) -> np.ndarray:
    # |v|**p, into ``out`` when given, with a cheap path for small integer
    # exponents (the hot loop only ever sees p in {2, 4, 6, 8} for the
    # standard alpha choices): repeated squaring of v*v, which equals
    # |v|*|v| bit for bit.  With ``out`` the squares are taken in place;
    # an exponent whose half has two or more set bits (6, 7 and 10 to 15)
    # takes one temporary for the running square
    if np.ndim(p) == 0 and float(p).is_integer() and 1 <= p <= 16:
        n = int(p)
        if n == 1:
            return np.abs(v, out=out)
        base = np.multiply(v, v, out=out)
        acc = None
        m = n // 2
        while m:
            if m & 1:
                acc = base if acc is None else np.multiply(acc, base, out=out)
            m >>= 1
            if m:
                # in place, unless acc still holds this square; without
                # ``out`` every square is a fresh array (0-d input needs it)
                inplace = out is not None and base is not acc
                base = np.multiply(base, base, out=base if inplace else None)
        if n % 2:
            # acc * |v| as |acc * v|: the same bits, since acc >= 0
            acc = np.abs(np.multiply(acc, v, out=out), out=out)
        return acc
    if out is None:
        return np.abs(v) ** p
    np.abs(v, out=out)
    out **= p
    return out


def _taming_denominator(x: np.ndarray, alpha,
                        out: np.ndarray | None = None) -> np.ndarray:
    # (1 + x)^alpha computed as exp(alpha * log1p(x)) for accuracy at
    # small x, with exact paths for the standard alpha choices; into
    # ``out`` when given (``out`` may be ``x``)
    if np.ndim(alpha) == 0:
        if alpha == 1.0:
            return np.add(x, 1.0, out=out)
        if alpha == 0.5:
            return np.sqrt(np.add(x, 1.0, out=out), out=out)
        if alpha == 0.25:
            return np.sqrt(np.sqrt(np.add(x, 1.0, out=out), out=out), out=out)
        if alpha == 1.0 / 3.0:
            return np.cbrt(np.add(x, 1.0, out=out), out=out)
    return np.exp(np.multiply(alpha, np.log1p(x, out=out), out=out), out=out)


def _taming_argument(d: DriftSpec, p, tau, v,
                     out: np.ndarray | None = None) -> np.ndarray:
    # x = beta tau^theta |v|^((2q-2)/alpha), into ``out`` when given; p
    # needs only .alpha, .beta and .theta, so they and tau may be arrays
    x = _abs_power(v, (2 * d.q - 2) / p.alpha, out=out)
    x *= p.beta * tau**p.theta
    return x


def f_tau_eval(d: DriftSpec, p: TamingParams, tau: float, v,
               out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """Tamed drift ``f(v) / (1 + beta tau^theta |v|^((2q-2)/alpha))^alpha``.

    With ``out`` and ``scratch``, arrays of v's shape apart from v, the
    drift is written to ``out`` and the taming is computed in
    ``scratch``, so nothing is allocated; without them every operation
    takes a fresh array, with the same bits.
    """
    v = np.asarray(v, dtype=np.float64)
    x = _taming_argument(d, p, tau, v, out=scratch)
    fv = f_eval(d, v, out=out)
    fv /= _taming_denominator(x, p.alpha, out=scratch)
    return fv


def f_delta_eval(d: DriftSpec, delta: float, v) -> np.ndarray:
    """Regularized drift ``f(v) / (1 + sqrt(delta) |v|^(2q-2))``."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    v = np.asarray(v, dtype=np.float64)
    return f_eval(d, v) / (1.0 + np.sqrt(delta) * _abs_power(v, 2 * d.q - 2))


def f_delta_prime_eval(d: DriftSpec, delta: float, v) -> np.ndarray:
    """Exact derivative of f_delta by the quotient rule.

    The sign convention sgn(0) = +1 is irrelevant at v = 0 because the
    accompanying power |v|^(2q-3) vanishes there for q >= 2.
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    v = np.asarray(v, dtype=np.float64)
    root = np.sqrt(delta)
    den = 1.0 + root * _abs_power(v, 2 * d.q - 2)
    sgn = np.where(v >= 0, 1.0, -1.0)
    num = f_prime_eval(d, v) * den - f_eval(d, v) * (2 * d.q - 2) * root * _abs_power(
        v, 2 * d.q - 3
    ) * sgn
    return num / den**2


@dataclass(frozen=True)
class DriftConstants:
    """Certified structural constants of a drift: f'(u) <= L_f and
    |f(u)| <= c3|u|^(2q-1) + c4|u| + c5 for every u of the verification
    grid, and (u+v) f(u) <= -c0|u|^(2q) + c1|v|^(2q) + c2 for every u of
    that grid and every real v.
    """

    L_f: float
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float


#: the verification protocol: the grid's largest magnitude, the delta
#: family of the f_delta checks (smallest last) and the sample count of
#: each sampled check
_GRID_BOUND = 1e3
_DELTAS = (1.0, 1e-2, 1e-4)
_N_SAMPLES = 100_000


def verification_grid() -> np.ndarray:
    """100,000 log-spaced magnitudes in [1e-6, 1e3] of each sign, and 0."""
    mags = np.logspace(-6, np.log10(_GRID_BOUND), 100_000)
    return np.concatenate([-mags[::-1], [0.0], mags])


# an extreme drift overflows on the grid or in its leading coefficient;
# such a candidate fails its certificate, so numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore")
def derive_growth_constants(d: DriftSpec) -> DriftConstants:
    """Derive (L_f, c0..c5) and certify them on the verification grid.

    c3, c4, c5 come from coefficient-wise comparison; L_f is the grid
    supremum of f'.  (c0, c1) is the first certified candidate
    (leading/2^k, leading*2^j) in (k, j) order.  By Young's inequality
    sup_v (v f(u) - c1|v|^2q) = K|f(u)|^r, with r = 2q/(2q-1) and
    K = ((2q-1)/2q)(2q c1)^(-1/(2q-1)), so c2, exact in v, is the grid
    maximum over u of G(u) = u f(u) + c0|u|^2q + K|f(u)|^r.  A pair
    certifies when G's |u|^2q coefficient, K leading^r - (leading - c0),
    is negative and G's maximum is finite and strictly inside the grid
    (|u| <= 500), so that enlarging the grid cannot grow it.
    Raises DriftDerivationError naming why the last candidate failed.
    """
    c = d.coeffs                        # length 2q >= 4
    mid = float(np.abs(c[2:-1]).sum())
    c3 = float(abs(c[-1])) + mid
    c4 = float(abs(c[1]))
    c5 = float(abs(c[0])) + mid

    u = verification_grid()
    L_f = float(np.max(f_prime_eval(d, u)))

    p = 2 * d.q
    r = p / (p - 1)
    f_pow = np.abs(f_eval(d, u))
    f_pow **= r                         # |f(u)|^r
    lead_pow = np.power(d.leading, r)   # inf, not OverflowError, at 1e308
    base, g = np.empty_like(u), np.empty_like(u)
    # c0 = leading (k = 0) leaves G's |u|^2q coefficient K leading^r > 0
    for k in range(1, 12):
        c0 = d.leading / 2.0**k
        # u f(u) + c0 u^2q is u times the drift with leading - c0
        f_eval(replace(d, leading=d.leading - c0), u, out=base)
        base *= u
        for j in range(-2, 10):
            c1 = d.leading * 2.0**j
            K = (p - 1) / p * (p * c1) ** (-1.0 / (p - 1))
            coef = K * lead_pow - (d.leading - c0)
            if not coef < 0:
                why = f"G's |u|^{p} coefficient is {float(coef)}, not negative"
                continue
            np.multiply(f_pow, K, out=g)
            g += base
            i = int(np.argmax(g))       # the first NaN, if any
            top = float(g[i])
            if math.isfinite(top) and abs(u[i]) <= _GRID_BOUND / 2.0:
                return DriftConstants(L_f, c0, c1, max(top, 0.0), c3, c4, c5)
            why = (f"G peaks at u = {float(u[i])} with {top}; a certified "
                   f"maximum is finite and has |u| <= {_GRID_BOUND / 2.0}")
    raise DriftDerivationError(
        "no (c0, c1) candidate certified the coercivity bound on the grid; "
        f"the last, ({c0}, {c1}): {why}"
    )


def step_size_condition(
    dc: DriftConstants, p: TamingParams, tau: float, epsilon: float
) -> float:
    """The ratio LHS / RHS of ``2 c3^2 tau^(1 - theta alpha) <= c0
    beta^alpha epsilon``: tau is admissible when it is <= 1."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    lhs = 2.0 * dc.c3**2 * tau ** (1.0 - p.theta * p.alpha)
    rhs = dc.c0 * p.beta**p.alpha * epsilon
    return float(lhs / rhs)


# ---------------------------------------------------------------------------
# invariant checks (shared by the property suite and the test suite)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numerical invariant check."""

    name: str
    passed: bool
    n_samples: int
    worst: float
    counterexample: dict = field(default_factory=dict)


def _passes(worst: float) -> bool:
    """A check passes on a finite, non-negative worst margin; a margin
    that overflowed to inf or NaN fails it."""
    return bool(np.isfinite(worst) and worst >= 0)


def _verdict(name: str, margin: np.ndarray, witness: dict) -> CheckResult:
    # a sampled check's verdict: its smallest margin (the first NaN, if
    # any) decides, and a failure names that sample's entry of each
    # witness array
    worst = float(np.min(margin))
    i = int(np.argmin(margin))
    passed = _passes(worst)
    return CheckResult(name, passed, margin.size, worst,
                       {} if passed else {k: w[i] for k, w in witness.items()})


class _TamingSample(NamedTuple):
    # n sampled points and taming parameters, one entry each; f_tau_eval
    # takes the record for its TamingParams
    u: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    tau: np.ndarray


def _random_taming(seed: int) -> _TamingSample:
    # _N_SAMPLES points u uniform on [-1e3, 1e3] and valid parameter
    # tuples: theta in [0.1, 0.9], alpha in [1/4, 0.99/theta], beta in
    # [0.1, 100], tau in [2^-14, 2^-2]; drawn in that order
    rng, n = np.random.default_rng(seed), _N_SAMPLES
    u = rng.uniform(-1e3, 1e3, n)
    theta = rng.uniform(0.1, 0.9, n)
    alpha = rng.uniform(0.25, np.minimum(0.99 / theta, 4.0))
    beta = np.exp(rng.uniform(np.log(0.1), np.log(100.0), n))
    tau = np.exp(rng.uniform(np.log(2.0**-14), np.log(2.0**-2), n))
    return _TamingSample(u, alpha, beta, theta, tau)


def check_taming_domination(d: DriftSpec = ALLEN_CAHN,
                            seed: int = 0) -> CheckResult:
    """|f_tau(u)| <= |f(u)| over random u and random valid taming params,
    with f_tau the scheme's own ``f_tau_eval``."""
    s = _random_taming(seed)
    fu = f_eval(d, s.u)
    ftau = f_tau_eval(d, s, s.tau, s.u)
    slack = 1e-12 * np.maximum(1.0, np.abs(fu))
    return _verdict("taming_domination",
                    np.abs(fu) + slack - np.abs(ftau), s._asdict())


def check_taming_gap(d: DriftSpec = ALLEN_CAHN, seed: int = 1) -> CheckResult:
    """|f_tau(u) - f(u)| <= alpha beta tau^theta |u|^((2q-2)/alpha) |f(u)|."""
    s = _random_taming(seed)
    fu = f_eval(d, s.u)
    x = _taming_argument(d, s, s.tau, s.u)
    # f_tau - f = f * ((1+x)^-alpha - 1), computed via expm1/log1p so the
    # small-x cancellation stays accurate
    gap = np.abs(fu * np.expm1(-s.alpha * np.log1p(x)))
    bound = s.alpha * x * np.abs(fu)
    return _verdict("taming_gap", bound * (1.0 + 1e-9) - gap, s._asdict())


def check_one_sided_delta_derivative(d: DriftSpec = ALLEN_CAHN) -> CheckResult:
    """sup_u f_delta'(u) admits a delta-independent upper bound.

    The testable content is boundedness: the supremum over the grid at the
    smallest delta of the family (1, 1e-2, 1e-4), plus 10%, must dominate
    the supremum at every delta of it.
    """
    grid = verification_grid()
    sups = {dl: float(np.max(f_delta_prime_eval(d, dl, grid))) for dl in _DELTAS}
    cap = sups[_DELTAS[-1]] * 1.10 + 1e-12
    worst = float(min(cap - s for s in sups.values()))
    passed = _passes(worst)
    return CheckResult(
        "one_sided_delta_derivative",
        passed,
        len(grid) * len(_DELTAS),
        worst,
        {} if passed else {"sups": sups, "cap": cap},
    )


def check_delta_derivative_growth(d: DriftSpec = ALLEN_CAHN) -> CheckResult:
    """|f_delta'(u)| <= C (1 + min(|u|^(2q-2), delta^-1/2)) with C frozen.

    C is fitted by brute force at 1e-4, the smallest delta of the family
    (1, 1e-2, 1e-4), and then must keep working at the other two, the
    deltas probed.  (The best constant grows as delta shrinks, approaching
    sup |f'| / (1 + |u|^(2q-2)); anchoring the fit at the small-delta end
    is what makes one frozen C cover the family, which is the testable
    content of the uniform bound.)
    """
    grid = verification_grid()
    cap28 = _abs_power(grid, 2 * d.q - 2)
    *ratios, fit = [np.abs(f_delta_prime_eval(d, dl, grid))
                    / (1.0 + np.minimum(cap28, dl**-0.5)) for dl in _DELTAS]
    c = float(np.max(fit)) * (1.0 + 1e-9)
    margins = [float(np.min(c - r)) for r in ratios]
    k = int(np.argmin(margins))         # the first NaN, if any
    worst = margins[k]
    passed = _passes(worst)
    i = int(np.argmax(ratios[k]))
    bad = {"delta": _DELTAS[k], "u": float(grid[i]), "C": c,
           "ratio": float(ratios[k][i])}
    return CheckResult(
        "delta_derivative_growth", passed, len(grid) * len(ratios), worst,
        {} if passed else bad,
    )


def check_power_mean_inequality(seed: int = 2) -> CheckResult:
    """Random check of the discrete-Gronwall power inequality.

    For integer rho >= 1, A, B >= 0 and r, upsilon > 0:

    (A + rB)^rho <= e^((rho-1) upsilon r) A^rho
                    + r (r^(rho-1) + (1 + (2/upsilon)^(rho-1))
                         (1 + r^(rho-1)) e^(rho-1)) B^rho
    """
    rng, n = np.random.default_rng(seed), _N_SAMPLES
    rho = rng.integers(1, 7, n).astype(np.float64)
    A = rng.uniform(0.0, 1e3, n)
    B = rng.uniform(0.0, 1e3, n)
    A[rng.random(n) < 0.02] = 0.0
    B[rng.random(n) < 0.02] = 0.0
    r = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    ups = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    lhs = (A + r * B) ** rho
    rhs = np.exp((rho - 1.0) * ups * r) * A**rho + r * (
        r ** (rho - 1.0)
        + (1.0 + (2.0 / ups) ** (rho - 1.0)) * (1.0 + r ** (rho - 1.0))
        * np.exp(rho - 1.0)
    ) * B**rho
    return _verdict("power_mean_inequality", rhs * (1.0 + 1e-9) - lhs,
                    {"rho": rho, "A": A, "B": B, "r": r, "upsilon": ups})
