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
fixed-consumption map is what makes any window length and any batch of
samples give the same bits.

``IncrementStream`` is the one code path from Philox words to (dW, conv):
it builds each sample's generator once, at step 0, and draws window
after window from it, which yields the words the layout assigns to each
step because consecutive steps occupy consecutive counter blocks.  Its
uniforms go straight into a (32 samples, 8 steps, words) block;
Box-Muller splits the radius and angle words into contiguous (step,
sample, mode) scratch in its first operations and writes the normals
and the Cholesky mix into the window buffers, laid out (step, sample,
mode) so that one step of the batch is one contiguous (samples, modes)
slice: 8 x 256 x 64 x 8 B = 1 MB per kind for a 256-sample chunk at
N = 64, plus the 0.25 MB uniform block and 0.25 MB of scratch.  The
uniforms are drawn by ``_draw_uniforms`` and turned into normals by the
one elementwise kernel ``_box_muller_into``, whose operations are the
same for every element whatever the block and window sizes.  The floor
of that kernel is libm's scalar cos and sin; any faster normal map would
change the output bits.

A coarse step of ratio R covers R fine steps; its convolution increment

    sum_k e^{-lambda (R-1-k) h} conv_k

is accumulated by the recursion acc <- e^{-lambda h} acc + conv_k, which
is exact in distribution and exactly coupled to the fine path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import _as_int

__all__ = [
    "NoisePlan",
    "PATH_STREAM",
    "increment_factors",
    "conv_variance",
    "conv_dw_covariance",
]

#: stream-id word reserved for trajectory path noise
PATH_STREAM = 0

_U64 = np.uint64
_PHILOX_WORDS_PER_BLOCK = 4
# numpy's Philox doubles are (w >> 11) * 2**-53, exact; adding 2**-54
# rounds like (k + 0.5) * 2**-53, so the uniforms lie in (0, 1]
_HALF_ULP = 2.0**-54
_BLOCK_SAMPLES = 32         # samples per Box-Muller call in IncrementStream


@functools.lru_cache(maxsize=64)
def _philox_key(master_seed: int) -> np.ndarray:
    key = np.random.SeedSequence(master_seed).generate_state(2, _U64)
    key.flags.writeable = False
    return key


@dataclass(frozen=True)
class NoisePlan:
    """Addressing scheme for every random number a simulation consumes.

    ``fine_level`` fixes the fine grid: h = T / 2**fine_level for horizon
    T.  A run of level k <= fine_level consumes exactly the
    2**(fine_level - k) fine increments each of its steps covers, so runs
    at different step sizes share one underlying path.
    """

    master_seed: int
    fine_level: int

    def __post_init__(self):
        object.__setattr__(self, "fine_level",
                           _as_int("fine_level", self.fine_level, 0))

    @property
    def fine_steps(self) -> int:
        return 2**self.fine_level

    def fine_step_size(self, horizon: float) -> float:
        # not horizon / 2**fine_level: float(2**1024) overflows
        return math.ldexp(horizon, -self.fine_level)

    def philox_key(self) -> np.ndarray:
        """Two-word Philox key derived from the master seed (read-only,
        derived once per seed)."""
        return _philox_key(self.master_seed)

    def spawn(self, index: int) -> "NoisePlan":
        """Plan with an independent seed (for uncoupled runs)."""
        child = np.random.SeedSequence((self.master_seed, index + 1))
        return NoisePlan(int(child.generate_state(1, _U64)[0]), self.fine_level)


def _words_per_step(n_modes: int) -> int:
    need = 2 * n_modes
    blocks = -(-need // _PHILOX_WORDS_PER_BLOCK)
    return blocks * _PHILOX_WORDS_PER_BLOCK


def _generator(plan: NoisePlan, sample: int) -> np.random.Generator:
    """Generator whose next words are those of fine step 0 of ``sample``."""
    counter = np.array([0, 0, sample, PATH_STREAM], dtype=_U64)
    return np.random.Generator(
        np.random.Philox(key=plan.philox_key(), counter=counter))


def _draw_uniforms(gens: list[np.random.Generator], u: np.ndarray) -> None:
    """Fill row i of ``u`` with the next words of ``gens[i]`` as uniforms
    in (0, 1]: one Philox fill per sample."""
    for gen, row in zip(gens, u):
        gen.random(out=row)
    u += _HALF_ULP


def _box_muller_into(u: np.ndarray, r: np.ndarray, z1: np.ndarray,
                     z2: np.ndarray | None) -> None:
    """Standard normals from uniforms.

    ``u`` is (block, n_steps, >= 2N), in (0, 1]; fixed consumption: words
    (k, j-1) and (k, N+j-1) of a sample's row are mode j's radius and
    angle words at step k.  ``r`` and ``z1`` are contiguous (n_steps,
    block, N) scratch: the first two operations split the radius and
    angle words into them, so every later one runs on contiguous
    operands.  ``z1`` receives the first normal of each pair and ``z2``,
    of the same shape, the second (None skips it); ``r`` is left as free
    scratch.  Every element sees the same operations whatever the block
    and step counts, so one sample or a block of samples gives the same
    bits.
    """
    n_modes = r.shape[-1]
    np.log(u[..., :n_modes].transpose(1, 0, 2), out=r)
    np.multiply(u[..., n_modes : 2 * n_modes].transpose(1, 0, 2), 2.0 * np.pi,
                out=z1)                 # the angle
    r *= -2.0
    np.sqrt(r, out=r)
    if z2 is not None:
        np.sin(z1, out=z2)
        z2 *= r
    np.cos(z1, out=z1)
    z1 *= r


class IncrementStream:
    """Fine (dW, conv) increments of a batch of samples, window by window.

    Each sample's generator is built once, at fine step 0, and kept alive:
    the counter layout puts step k+1 right after step k, so its next draw
    gives exactly the words the layout assigns to the next window.  Each
    sample's uniforms go straight into its row of a (block, window, words)
    buffer, and Box-Muller and the mix run once per block of 32 samples
    (256 sample-steps per call at the sweep's 8-step windows), writing
    one (window, block, modes) slice of each window buffer.  The mix
    factors are tiled to (block, modes) once, so no multiply broadcasts a
    (modes,) row.  ``dw`` or ``conv`` set to False skips that window
    buffer (it is then returned as None).
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
        n_modes = len(eigenvalues)
        block = min(_BLOCK_SAMPLES, len(samples))
        self._gens = [_generator(plan, int(s)) for s in samples]
        self._sqrt_h, l21, l22 = increment_factors(eigenvalues, h)
        self._l21, self._l22 = (np.tile(f, (block, 1)) for f in (l21, l22))
        self._u = np.empty((block, window, _words_per_step(n_modes)))
        # flat, so that a short last block still gets contiguous scratch
        self._scratch = np.empty((2, window * block * n_modes))
        shape = (window, len(samples), n_modes)
        self._dw = np.empty(shape) if dw else None
        self._conv = np.empty(shape) if conv else None

    def next_window(self):
        """(dW, conv) of the next window of fine steps, each
        (window, samples, modes) or None; valid until the next call."""
        window, n_modes = self._u.shape[1], self._l21.shape[1]
        for b0 in range(0, len(self._gens), _BLOCK_SAMPLES):
            gens = self._gens[b0 : b0 + _BLOCK_SAMPLES]
            u = self._u[: len(gens)]
            _draw_uniforms(gens, u)
            size = window * len(gens) * n_modes
            r, z1 = (a[:size].reshape(window, len(gens), n_modes)
                     for a in self._scratch)
            rows = slice(b0, b0 + len(gens))
            conv = None if self._conv is None else self._conv[:, rows]
            _box_muller_into(u, r, z1, conv)
            if conv is not None:
                conv *= self._l22[: len(gens)]
                conv += np.multiply(self._l21[: len(gens)], z1, out=r)
            if self._dw is not None:
                np.multiply(z1, self._sqrt_h, out=self._dw[:, rows])
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
