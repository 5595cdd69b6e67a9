"""Counter-addressed space-time white noise with exact coarse/fine coupling.

Per spectral mode j the cylindrical Wiener process contributes an
independent scalar Brownian motion.  Over one fine step of length h each
mode needs the jointly Gaussian pair

    dW   = B(t+h) - B(t)                        Var = h
    conv = int_t^{t+h} e^{-lambda (t+h-s)} dB   Var = (1 - e^{-2 lambda h}) / (2 lambda)
                                                Cov = (1 - e^{-lambda h}) / lambda

realized through the Cholesky factor of that 2x2 covariance from two
standard normals.  The normals come from a Philox counter stream in a
fixed layout, so the pair at (sample, mode, fine step) is a pure O(1)
function of (master seed, sample, mode, step): the 256-bit Philox counter
is (block-within-step, 0, sample, stream) and each step consumes a fixed,
block-aligned number of 64-bit words.  Uniform words are mapped to
normals by Box-Muller, which consumes exactly one word per normal; this
fixed-consumption map is what makes pointwise, windowed, and whole-path
generation bit-identical.

Pointwise access (``standard_pairs`` and the helpers built on it) builds a
generator at the requested step.  The ensemble sweep instead streams:
``IncrementStream`` builds each sample's generator once at step 0 and
draws window after window from it, which yields the same words because
consecutive steps occupy consecutive counter blocks.  Both paths run the
same elementwise Box-Muller kernel, the stream on blocks of 32 samples at
a time, with the same operations in the same order, so their bits agree.
The floor of that kernel is libm's scalar cos and sin; any faster normal
map would change the output bits.

A coarse step of ratio R covers R fine steps; its convolution increment

    sum_k e^{-lambda (R-1-k) h} conv_k

is accumulated by the recursion acc <- e^{-lambda h} acc + conv_k, which
is exact in distribution and exactly coupled to the fine path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "NoisePlan",
    "NoiseIncrementPair",
    "PATH_STREAM",
    "increment_factors",
    "conv_variance",
    "conv_dw_covariance",
    "standard_pairs",
    "increment_pairs",
    "sample_increment_pair",
    "coarse_convolution_increment",
]

#: stream-id word reserved for trajectory path noise
PATH_STREAM = 0

_U64 = np.uint64
_PHILOX_WORDS_PER_BLOCK = 4
_INV_2_53 = 2.0**-53
_SHIFT = _U64(11)
_BLOCK_SAMPLES = 32         # samples per Box-Muller call in IncrementStream


@dataclass(frozen=True)
class NoisePlan:
    """Addressing scheme for every random number a simulation consumes.

    ``fine_level`` fixes the fine grid: h = T / 2**fine_level for horizon
    T.  Any coarse run whose step is an integer multiple of h consumes
    exactly the fine increments it covers, so runs at different step
    sizes share one underlying path.
    """

    master_seed: int
    fine_level: int

    def __post_init__(self):
        if self.fine_level < 0:
            raise ValueError(f"fine_level must be >= 0, got {self.fine_level}")

    @property
    def fine_steps(self) -> int:
        return 2**self.fine_level

    def fine_step_size(self, horizon: float) -> float:
        return horizon / self.fine_steps

    def philox_key(self) -> np.ndarray:
        """Two-word Philox key derived from the master seed."""
        return np.random.SeedSequence(self.master_seed).generate_state(2, _U64)

    def spawn(self, index: int) -> "NoisePlan":
        """Plan with an independent seed (for uncoupled runs)."""
        child = np.random.SeedSequence((self.master_seed, index + 1))
        return NoisePlan(int(child.generate_state(1, _U64)[0]), self.fine_level)

    def mode_word_offsets(self, mode: int, n_modes: int) -> tuple[int, int]:
        """Offsets of mode j's two uniform words inside a step block."""
        return mode - 1, n_modes + mode - 1


class NoiseIncrementPair(NamedTuple):
    """Brownian increment and stochastic-convolution increment of one mode."""

    dW: float
    conv: float


def _words_per_step(n_modes: int) -> int:
    need = 2 * n_modes
    blocks = -(-need // _PHILOX_WORDS_PER_BLOCK)
    return blocks * _PHILOX_WORDS_PER_BLOCK


def _raw_words(
    plan: NoisePlan, sample: int, step_start: int, n_steps: int, n_modes: int,
    stream: int = PATH_STREAM,
) -> np.ndarray:
    """Raw uniform words for steps [step_start, step_start + n_steps)."""
    wps = _words_per_step(n_modes)
    counter = np.array(
        [step_start * (wps // _PHILOX_WORDS_PER_BLOCK), 0, sample, stream],
        dtype=_U64,
    )
    bitgen = np.random.Philox(key=plan.philox_key(), counter=counter)
    raw = bitgen.random_raw(n_steps * wps).reshape(n_steps, wps)
    return raw[:, : 2 * n_modes]


def _box_muller_into(
    raw: np.ndarray, u: np.ndarray, z1: np.ndarray, z2: np.ndarray,
) -> None:
    """Standard normals from raw words, written in place.

    ``raw`` is (..., n_steps, >= 2N) and is overwritten; ``u`` is a
    (..., n_steps, 2N) scratch buffer; ``z1`` and ``z2`` receive the
    (..., n_steps, N) pairs.  Fixed consumption: words (k, j-1) and
    (k, N+j-1) become mode j's uniform pair at step k (contiguous halves
    keep the ufuncs fast).  Every element sees the same operations
    whatever the leading shape, so one sample or a block of samples
    gives the same bits.
    """
    n_modes = z1.shape[-1]
    raw >>= _SHIFT
    np.add(raw[..., : 2 * n_modes], 0.5, out=u)
    u *= _INV_2_53
    u1 = u[..., :n_modes]
    u2 = u[..., n_modes:]
    np.log(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    np.sqrt(u1, out=u1)                 # u1 is now the radius
    np.multiply(u2, 2.0 * np.pi, out=u2)
    np.cos(u2, out=z1)
    z1 *= u1
    np.sin(u2, out=z2)
    z2 *= u1


def standard_pairs(
    plan: NoisePlan, sample: int, step_start: int, n_steps: int, n_modes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal pair arrays (z1, z2), each (n_steps, n_modes).

    Box-Muller on the raw words: mode j consumes words j-1 and N+j-1 of
    its step block.
    """
    z1 = np.empty((n_steps, n_modes))
    z2 = np.empty((n_steps, n_modes))
    _box_muller_into(
        _raw_words(plan, sample, step_start, n_steps, n_modes),
        np.empty((n_steps, 2 * n_modes)), z1, z2,
    )
    return z1, z2


class IncrementStream:
    """Fine (dW, conv) increments of a batch of samples, window by window.

    Each sample's Philox generator is built once, at fine step 0, and kept
    alive: the counter layout puts step k+1 right after step k, so drawing
    the next ``window * words_per_step`` words from it yields exactly the
    words the layout assigns to those steps.  Box-Muller and the Cholesky
    mix run once per block of 32 samples on their (32, window, words) raw
    words, so short windows cost few Python-level numpy calls per sample
    and step (512 sample-steps per call at the sweep's 16-step windows);
    each block lands in window buffers laid out (step, sample, mode) by
    one transposed copy, so each step of a window is one contiguous
    (samples, modes) block.  Every buffer is reused across windows.
    ``dw`` or ``conv`` set to False skips that window buffer
    (it is then returned as None).
    """

    def __init__(
        self,
        plan: NoisePlan,
        samples: np.ndarray,
        eigenvalues: np.ndarray,
        h: float,
        window: int,
        *,
        dw: bool = True,
        conv: bool = True,
    ):
        key = plan.philox_key()
        self._bitgens = [
            np.random.Philox(
                key=key, counter=np.array([0, 0, int(s), PATH_STREAM], dtype=_U64)
            )
            for s in samples
        ]
        n_modes = len(eigenvalues)
        wps = _words_per_step(n_modes)
        self._words = window * wps
        self._sqrt_h, self._l21, self._l22 = increment_factors(eigenvalues, h)
        block = (min(_BLOCK_SAMPLES, len(samples)), window)
        self._block = (                 # raw words, u, z1, z2, mix scratch
            np.empty((*block, wps), dtype=_U64), np.empty((*block, 2 * n_modes)),
            *(np.empty((*block, n_modes)) for _ in range(3)))
        shape = (window, len(samples), n_modes)
        self._dw = np.empty(shape) if dw else None
        self._conv = np.empty(shape) if conv else None

    def next_window(self):
        """(dW, conv) of the next window of fine steps, each
        (window, samples, modes) or None; valid until the next call."""
        for b0 in range(0, len(self._bitgens), _BLOCK_SAMPLES):
            gens = self._bitgens[b0 : b0 + _BLOCK_SAMPLES]
            raw, u, z1, z2, mix = (a[: len(gens)] for a in self._block)
            np.stack([g.random_raw(self._words) for g in gens],
                     out=raw.reshape(len(gens), -1))
            _box_muller_into(raw, u, z1, z2)
            z2 *= self._l22
            z2 += np.multiply(self._l21, z1, out=mix)   # z2 is now conv
            z1 *= self._sqrt_h                          # z1 is now dW
            for buf, z in ((self._dw, z1), (self._conv, z2)):
                if buf is not None:
                    buf[:, b0 : b0 + len(gens)] = z.swapaxes(0, 1)
        return self._dw, self._conv


def conv_variance(lam, h: float):
    """Closed-form Var of the convolution increment over a step of size h."""
    lam = np.asarray(lam, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -np.expm1(-2.0 * lam * h) / (2.0 * lam)
    return np.where(lam * h > 0, v, h)


def conv_dw_covariance(lam, h: float):
    """Closed-form Cov between the convolution and plain increments."""
    lam = np.asarray(lam, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = -np.expm1(-lam * h) / lam
    return np.where(lam * h > 0, c, h)


def increment_factors(eigenvalues: np.ndarray, h: float):
    """Cholesky rows mapping (z1, z2) to (dW, conv) per mode.

    Returns (sqrt_h, l21, l22) with dW = sqrt_h z1 and
    conv = l21 z1 + l22 z2.  Modes whose covariance degenerates
    numerically (lambda h ~ 0) fall back to conv = dW.
    """
    sqrt_h = np.sqrt(h)
    cov = conv_dw_covariance(eigenvalues, h)
    var = conv_variance(eigenvalues, h)
    l21 = cov / sqrt_h
    resid = var - cov**2 / h
    degenerate = ~np.isfinite(resid) | (resid <= 0)
    l22 = np.sqrt(np.where(degenerate, 0.0, resid))
    l21 = np.where(degenerate, sqrt_h, l21)
    return sqrt_h, l21, l22


def increment_pairs(
    plan: NoisePlan,
    eigenvalues: np.ndarray,
    h: float,
    sample: int,
    step_start: int,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(dW, conv) arrays, each (n_steps, n_modes), for one sample."""
    z1, z2 = standard_pairs(plan, sample, step_start, n_steps, len(eigenvalues))
    sqrt_h, l21, l22 = increment_factors(np.asarray(eigenvalues), h)
    return sqrt_h * z1, l21 * z1 + l22 * z2


def sample_increment_pair(
    plan: NoisePlan,
    eigenvalues: np.ndarray,
    h: float,
    sample: int,
    mode: int,
    step: int,
) -> NoiseIncrementPair:
    """The (dW, conv) pair of one (sample, mode, fine step); O(1) access."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if not 1 <= mode <= len(eigenvalues):
        raise IndexError(f"mode {mode} outside 1..{len(eigenvalues)}")
    if step < 0:
        raise IndexError(f"fine step must be >= 0, got {step}")
    dw, conv = increment_pairs(plan, eigenvalues, h, sample, step, 1)
    return NoiseIncrementPair(float(dw[0, mode - 1]), float(conv[0, mode - 1]))


def coarse_convolution_increment(
    plan: NoisePlan,
    eigenvalues: np.ndarray,
    h: float,
    sample: int,
    mode: int,
    coarse_step: int,
    ratio: int,
) -> float:
    """Convolution increment over coarse step m of size tau = ratio * h.

    Computed by the same damped recursion the trajectory driver uses, so
    the coupling to the fine path is exact (not merely in distribution).
    """
    if ratio < 1 or int(ratio) != ratio:
        raise ValueError(f"coarse/fine ratio must be a positive integer, got {ratio}")
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if not 1 <= mode <= len(eigenvalues):
        raise IndexError(f"mode {mode} outside 1..{len(eigenvalues)}")
    ratio = int(ratio)
    _, conv = increment_pairs(
        plan, eigenvalues, h, sample, coarse_step * ratio, ratio
    )
    decay = float(np.exp(-eigenvalues[mode - 1] * h))
    acc = 0.0
    for k in range(ratio):
        acc = decay * acc + float(conv[k, mode - 1])
    return acc
