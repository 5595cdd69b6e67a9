"""Time-stepping engine: the sweep that advances tamed exponential Euler
and semi-implicit reference runs, several step sizes coupled on one
noise path.

The tamed exponential step advances

    X_{m+1} = E(tau) X_m + tau E(tau) eps^-1 F_tau(X_m) + conv increment

with the nonlinearity evaluated by collocation (spectral -> nodal ->
spectral) and the noise term the exact stochastic-convolution increment.
The reference integrator is linear-implicit: implicit in the Laplacian,
explicit in the untamed reaction term,

    X_{m+1,j} = (X_{m,j} + tau eps^-1 F_j(X_m) + dW_j) / (1 + tau lambda_j).

A run of level k takes 2^k steps of tau = T / 2^k over its horizon T,
and a noise plan of fine level L >= k has 2^L steps of h = T / 2^L, so
each step of the run covers exactly 2^(L - k) fine steps.

``sweep_ensemble`` advances any number of runs through one pass over the
fine noise grid.  Every random number is counter-addressed per (sample,
mode, fine step), samples are processed in chunks of min(256,
ceil(samples / threads)) rows, at least two, and all reductions happen
on per-sample arrays in index order, so for one (config, seed, BLAS
kernel, SIMD dispatch) a sample's results are bit-identical for any
thread count or chunk size.  A one-row matmul takes BLAS's matrix-vector
path, whose last bit can differ from a row of a matrix product, so a
chunk of one sample is swept as two copies of it.

Snapshots are the sweep's only output: each run gives one (steps, samples,
...) array, a row per snapshot step on the run's own grid, and its
endpoint is the row of step n_steps, the one step taken when no other is
asked for; ``SchemeConfig.step_at`` maps a time to its step.  Snapshots
can be reduced as the sweep goes (``snapshot_fn``), so a caller that
reads a few numbers per sample and step, such as an observable of the
endpoint, does not hold the states.  The running norm monitors are the
maxima over time of norm snapshots taken at every step.

Each chunk streams its noise: a ``noise.IncrementStream`` keeps one live
Philox generator per sample and fills reused 8-step window buffers laid
out (step, sample, mode), 1 MB per kind for a 256-sample chunk at
N = 64; the sweep reads step k in place as the contiguous (samples,
modes) slice ``[k]``.
At every fine step, each (ratio, scheme kind) in use adds the step's
increments to one running (samples, modes) coarse sum by the fine-step
recursion, restarted at each coarse step; runs sharing a ratio and a
kind share the sum.  The runs then advance fine-step-major, in run
order, and a chunk stops at its first non-finite state, so the blow-up a
sweep reports is the same whatever the window length.  A step
writes its new state, both transforms, the drift polynomial, the taming
and its finiteness check into buffers allocated once per chunk: it fills
a spare state buffer and hands the run's old one on as the next spare,
the taming works in that spare before the update overwrites it, and one
collocation scratch pair serves every run.  The update's per-mode factor
is tiled to the chunk once per (kind, tau), because numpy takes a ufunc
buffer for every broadcast multiply.

``threads`` is the only parallelism: that many chunks run at once, and
BLAS is held at one thread for the whole sweep, then set back.  A chunk's
collocation matmul, (256, 64) @ (64, 64), is above OpenBLAS's cut-off for
threading, so each chunk thread would otherwise start BLAS threads of its
own and oversubscribe the cores.  The BLAS thread count is process-wide,
so other BLAS calls in the process also run on one thread while a sweep
is under way; where no OpenBLAS is found, nothing is pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import drift as drift_mod
from . import noise as noise_mod
from .drift import DriftSpec, TamingParams
from .noise import NoisePlan
from .spectral import SineBasis, _as_int, default_initial

__all__ = [
    "SchemeKind",
    "SchemeConfig",
    "BlowUpError",
    "sweep_ensemble",
]

_CHUNK_SAMPLES = 256
_WINDOW_STEPS = 8


class SchemeKind(enum.Enum):
    TAMED_EXP_EULER = "tamed-exp-euler"
    SEMI_IMPLICIT_REFERENCE = "semi-implicit-reference"


class BlowUpError(RuntimeError):
    """A trajectory produced a non-finite state."""

    def __init__(self, step_index: int, sample: int, run_index: int):
        self.step_index = step_index
        self.sample = sample
        self.run_index = run_index
        super().__init__(f"non-finite state at step {step_index}, "
                         f"sample {sample}, run {run_index}")


@dataclass(frozen=True)
class SchemeConfig:
    """One integrator run on the dyadic grid: ``n_steps = 2**level`` steps
    of ``tau = horizon / 2**level``, and the model and method it steps.

    A tamed run with a drift is tamed by ``taming`` at its own step ``tau``.
    """

    epsilon: float
    horizon: float
    level: int
    basis: SineBasis
    drift: DriftSpec | None = None
    taming: TamingParams | None = None
    kind: SchemeKind = SchemeKind.TAMED_EXP_EULER

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        object.__setattr__(self, "level", _as_int("level", self.level, 0))
        if self.kind is SchemeKind.TAMED_EXP_EULER and self.drift is not None:
            if self.taming is None:
                raise ValueError("tamed scheme with a drift needs TamingParams")

    @property
    def n_steps(self) -> int:
        return 2**self.level

    @property
    def tau(self) -> float:
        # not horizon / 2**level: float(2**level) overflows from level 1024
        return math.ldexp(self.horizon, -self.level)

    def step_at(self, t: float) -> int:
        """The step m with m * tau = t within 1e-9 max(1, tau), else
        ValueError; t / tau is clipped (NaN to -1), so inf or NaN is off the grid."""
        m = int(round(min(self.n_steps + 1.0, max(-1.0, t / self.tau))))
        if not 0 <= m <= self.n_steps or abs(m * self.tau - t) > 1e-9 * max(1.0, self.tau):
            raise ValueError(f"snapshot time {t} is not on the step grid of "
                             f"tau={self.tau} in [0, {self.horizon}]")
        return m


# ---------------------------------------------------------------------------
# one step of a run, on a batch of states
# ---------------------------------------------------------------------------


class _RunPre:
    """One run of a sweep: its coarse ratio (fine steps per step), its
    snapshot steps (kept as fine step -> output row) and the precomputed
    quantities of the step it takes."""

    def __init__(self, cfg: SchemeConfig, ratio: int = 1,
                 steps: Sequence[int] = ()):
        self.cfg = cfg
        self.ratio = ratio
        self.snaps = {m * ratio: row for row, m in enumerate(steps)}
        self.tamed = cfg.kind is SchemeKind.TAMED_EXP_EULER
        basis = cfg.basis
        self.transform = basis._transform
        self.inv_nodes = 1.0 / (basis.n_modes + 1)
        # read once: the drift term passes it to the taming at every step
        self.tau = cfg.tau
        self.drift_scale = self.tau / cfg.epsilon
        # per-mode factor of the update: E(tau) for the tamed step,
        # 1 / (1 + tau lambda) for the reference
        if self.tamed:
            self.factor = basis.semigroup_factors(self.tau)
        else:
            self.factor = 1.0 / (1.0 + self.tau * basis.eigenvalues)

    def drift_term(self, states: np.ndarray, phys: np.ndarray,
                   fv: np.ndarray, tame: np.ndarray) -> np.ndarray | None:
        """Collocation evaluation of the (tamed) Nemytskii drift, written
        to ``phys``; ``fv`` and ``tame`` are scratch of the same shape."""
        cfg = self.cfg
        if cfg.drift is None:
            return None
        # non-finite values propagate silently here; the step's blow-up
        # check is the reporting point
        with np.errstate(invalid="ignore", over="ignore"):
            np.matmul(states, self.transform, out=phys)
            if self.tamed:
                drift_mod.f_tau_eval(cfg.drift, cfg.taming, self.tau, phys,
                                     out=fv, scratch=tame)
            else:
                drift_mod.f_eval(cfg.drift, phys, out=fv)
            np.matmul(fv, self.transform, out=phys)
            phys *= self.inv_nodes
        return phys

    def advance(self, states: np.ndarray, noise: np.ndarray, out: np.ndarray,
                phys: np.ndarray, fv: np.ndarray,
                factor: np.ndarray) -> np.ndarray:
        """One step of ``states`` written to ``out``; ``phys`` and ``fv``
        are scratch.  All four buffers have the shape of ``states``.
        ``factor`` is ``self.factor``, best tiled to that shape too: a
        broadcast multiply takes a 64 kB ufunc buffer and twice the time."""
        # ``out`` is free until the update, so the taming uses it
        base = self.drift_term(states, phys, fv, out)
        if base is None:
            base = states
        else:
            base *= self.drift_scale
            base += states
        if self.tamed:
            np.multiply(base, factor, out=out)
            out += noise
        else:
            np.add(base, noise, out=out)
            out *= factor
        return out


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


class _OpenBLAS(NamedTuple):
    library: str                      # file name of the shared library
    core: str                         # the kernel it picked for this CPU
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


# (get threads, set threads, core name) symbols: numpy's wheel first,
# then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_corename64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads",
     "openblas_get_corename"),
)


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """The OpenBLAS library numpy loaded, found in this process's memory
    map; None where there is none (MKL, Accelerate) or no map to read
    (not Linux).  Looked up once, at the first sweep."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return None
    # numpy's own copy (in numpy.libs/ or under numpy/) before any other
    numpy_dir = os.path.dirname(np.__file__)
    for path in sorted(paths, key=lambda p: (not p.startswith(numpy_dir), p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS_SYMBOLS:
            try:
                get, put, core = (getattr(lib, name) for name in names)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            core.argtypes, core.restype = [], ctypes.c_char_p
            return _OpenBLAS(os.path.basename(path), core().decode(), get, put)
    return None


_blas_lock = threading.Lock()
_blas_depth = 0          # sweeps inside _single_threaded_blas, any thread
_blas_saved = 0          # thread count before the first of them entered


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold BLAS at one thread (see the module docstring for why); the
    count outside is restored when the last of several overlapping
    holders, from any thread, exits."""
    global _blas_depth, _blas_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = blas.get_threads()
            blas.set_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                blas.set_threads(_blas_saved)


def _blas_threads() -> dict:
    """The BLAS library sweeps pin, its kernel and its thread count
    outside and inside a sweep (all None when no OpenBLAS was found)."""
    blas = _openblas()
    if blas is None:
        return {"library": None, "core": None, "threads_outside": None,
                "threads_inside": None}
    outside = blas.get_threads()
    with _single_threaded_blas():
        inside = blas.get_threads()
    return {"library": blas.library, "core": blas.core,
            "threads_outside": outside, "threads_inside": inside}


# ---------------------------------------------------------------------------
# coupled multi-run sweep
# ---------------------------------------------------------------------------


def sweep_ensemble(
    runs: Sequence[SchemeConfig],
    plan: NoisePlan,
    samples: int | Sequence[int],
    *,
    snapshot_steps: Sequence[Sequence[int]] | None = None,
    snapshot_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    threads: int = 1,
) -> list[np.ndarray]:
    """Advance all runs, which share one horizon and are no finer than
    ``plan``, over one shared noise path per sample, every path from
    ``default_initial``.

    ``samples`` is either a count (ids 0..n-1) or explicit sample ids;
    ids select the counter-addressed noise.  Returns one (steps, samples,
    ...) array per run, a row per step of ``snapshot_steps[i]``, strictly
    increasing integers in [0, ``runs[i].n_steps``] on run i's own grid
    (else ValueError naming the run); the default step is ``n_steps``, so
    ``outs[i][-1]`` holds run i's endpoints.
    A non-finite state raises BlowUpError once every chunk has finished
    or blown, naming the first blow-up by (fine step, run, sample
    position); results and that error are independent of ``threads``.

    ``snapshot_fn`` reduces what a snapshot stores: it maps a (rows, N)
    batch of states to per-sample values, (rows, K) or (rows,), and each
    snapshot row is then (samples, K) or (samples,) instead of
    (samples, N); an observable of the endpoint is computed this way,
    inside the sweep.  It is applied to a whole chunk's states, always at
    least two rows (the state at t = 0 as two copies of the initial
    state), so a one-row matmul inside it cannot take BLAS's
    matrix-vector path; its rows must depend only on their own state.
    None stores the states themselves.  A caller that wants the running
    norm monitors asks for a snapshot at every step with
    ``snapshot_fn=basis.norms`` and takes the maxima over time of the
    square root, the fourth root and the sup column.
    """
    if not runs:
        raise ValueError("need at least one run")
    if isinstance(samples, (int, np.integer)):
        sample_ids = np.arange(samples)
    else:
        # the ids an int64 array holds (the Philox counter word is unsigned)
        sample_ids = np.array([_as_int("sample id", s, 0, 2**63)
                               for s in samples], dtype=np.int64)
    n_samples = len(sample_ids)
    basis = runs[0].basis
    horizon = runs[0].horizon
    given = [[r.n_steps] for r in runs] if snapshot_steps is None else snapshot_steps
    for i, (r, steps) in enumerate(zip(runs, given, strict=True)):
        if r.basis.n_modes != basis.n_modes:
            raise ValueError("all runs must share one basis size")
        if r.horizon != horizon:
            raise ValueError(
                f"runs disagree on the horizon: {r.horizon} vs {horizon}"
            )
        if r.level > plan.fine_level:
            raise ValueError(f"run level {r.level} is finer than the plan's "
                             f"fine level {plan.fine_level}")
        # -1 < s_0 < ... < s_last < n_steps + 1, else a row stays unwritten
        pairs = zip([-1, *steps], [*steps, r.n_steps + 1])
        if not all(isinstance(b, (int, np.integer)) and a < b for a, b in pairs):
            raise ValueError(f"run {i}: snapshot steps must be strictly increasing "
                             f"integers in [0, {r.n_steps}], got {steps}")
    x0 = default_initial(basis)

    n_mode = basis.n_modes
    fine_steps = plan.fine_steps
    h = plan.fine_step_size(horizon)
    pres = [_RunPre(r, 2 ** (plan.fine_level - r.level), steps)
            for r, steps in zip(runs, given)]
    snapshot_fn = snapshot_fn or np.asarray    # None: the states themselves
    # two rows: see the one-row note in work
    snap0 = snapshot_fn(np.tile(x0, (2, 1)))[:1]
    outputs = [np.empty((len(pre.snaps), n_samples, *snap0.shape[1:]))
               for pre in pres]

    decay_fine = basis.semigroup_factors(h)
    window = min(_WINDOW_STEPS, fine_steps)

    # one chunk per thread up to the cap, so that every thread has work
    size = max(2, min(_CHUNK_SAMPLES, -(-n_samples // max(1, threads))))
    chunks = [(start, min(start + size, n_samples))
              for start in range(0, n_samples, size)]

    def work(chunk: tuple[int, int]) -> tuple[int, int, int] | None:
        """Sweep one chunk; its first blow-up as (fine step, run, sample
        position), or None."""
        lo, hi = chunk
        rows = hi - lo
        ids = sample_ids[lo:hi]
        # a one-row matmul takes BLAS's matrix-vector path, whose bits
        # differ from a row of a matrix product: a lone sample is swept
        # twice and its copy dropped
        if rows == 1:
            ids = ids.repeat(2)
        count = len(ids)
        # one state buffer per run plus a spare: each step writes the
        # spare and hands the run's old buffer on as the next spare.  The
        # runs step one after another, so they share the spare and one
        # scratch pair for the collocation
        states = [np.tile(x0, (count, 1)) for _ in runs]
        spare = np.empty((count, n_mode))
        phys, fv = np.empty((count, n_mode)), np.empty((count, n_mode))
        finite = np.empty((count, n_mode), dtype=bool)
        for i, pre in enumerate(pres):
            if 0 in pre.snaps:
                outputs[i][pre.snaps[0], lo:hi] = snap0
        stream = noise_mod.IncrementStream(plan, ids, basis.eigenvalues, h, window,
                                           dw=not all(p.tamed for p in pres),
                                           conv=any(p.tamed for p in pres))
        # one running coarse sum per (ratio, kind), shared by the runs
        # with both: acc <- e^{-lambda h} acc + fine increment for tamed
        # runs, a plain sum for the reference, restarted at each coarse step
        accs = {(pre.ratio, pre.tamed): np.empty((count, n_mode))
                for pre in pres if pre.ratio > 1}
        decay = (np.tile(decay_fine, (count, 1))
                 if any(t for _, t in accs) else None)
        # update factors tiled to the chunk, one per (kind, tau) in use
        tiles = {(pre.tamed, pre.tau): np.tile(pre.factor, (count, 1))
                 for pre in pres}
        for w0 in range(0, fine_steps, window):
            fine = stream.next_window()     # (dW, conv), indexed by "tamed"
            for kl in range(window):
                k = w0 + kl
                for (ratio, t), acc in accs.items():
                    if k % ratio == 0:
                        acc.fill(0.0)
                    if t:
                        acc *= decay
                    acc += fine[t][kl]
                for i, pre in enumerate(pres):
                    ratio, t = pre.ratio, pre.tamed
                    if (k + 1) % ratio:
                        continue
                    inc = fine[t][kl] if ratio == 1 else accs[ratio, t]
                    new = pre.advance(states[i], inc, spare, phys, fv,
                                      tiles[t, pre.tau])
                    spare, states[i] = states[i], new
                    if not np.isfinite(new, out=finite).all():
                        bad = int(np.flatnonzero(~finite)[0]) // n_mode
                        return k, i, lo + bad
                    if k + 1 in pre.snaps:
                        outputs[i][pre.snaps[k + 1], lo:hi] = (
                            snapshot_fn(new)[:rows])
        return None

    with _single_threaded_blas():
        if threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                blowups = list(pool.map(work, chunks))
        else:
            blowups = list(map(work, chunks))
    # the least over all chunks, so the error does not follow the chunking
    first = min(filter(None, blowups), default=None)
    if first is not None:
        k, i, pos = first
        raise BlowUpError((k + 1) // pres[i].ratio, int(sample_ids[pos]), i)
    return outputs
