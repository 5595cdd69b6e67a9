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

``sweep_ensemble`` advances any number of runs through one pass over the
fine noise grid.  Every random number is counter-addressed per (sample,
mode, fine step), samples are processed in chunks of min(256,
ceil(samples / threads)) rows, at least two, and all reductions happen
on per-sample arrays in index order, so for one (config, seed, BLAS
kernel, SIMD dispatch) a sample's results are bit-identical for any
thread count or chunk size.  A one-row matmul takes BLAS's matrix-vector
path, whose last bit can differ from a row of a matrix product, so a
chunk of one sample is swept as two copies of it.  Snapshots can be reduced as the sweep goes
(``snapshot_fn``), so a caller that reads a few numbers per sample and
time does not hold the states.  Snapshots are the sweep's only per-step
output: the running norm monitors are the maxima over time of norm
snapshots taken at every step.

Each chunk streams its noise: a ``noise.IncrementStream`` keeps one live
Philox generator per sample and fills reused 8-step window buffers laid
out (step, sample, mode), 1 MB per kind for a 256-sample chunk at
N = 64; the sweep reads step k in place as the contiguous (samples,
modes) slice ``[k]``.
At every fine step, each (ratio, scheme kind) in use adds the step's
increments to one running (samples, modes) coarse sum by the fine-step
recursion, restarted at each coarse step; runs sharing a ratio and a
kind share the sum.  The runs then advance fine-step-major, in run
order, so blow-up reporting and ``skip_blowups`` see the steps in the
same order whatever the window length.  A step
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
from .spectral import SineBasis, default_initial

__all__ = [
    "SchemeKind",
    "SchemeConfig",
    "BlowUpError",
    "RunOutput",
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
    """One integrator run: step size, horizon, model, and method.

    A tamed run with a drift is tamed by ``taming`` at its own step ``tau``.
    """

    epsilon: float
    tau: float
    n_steps: int
    basis: SineBasis
    drift: DriftSpec | None = None
    taming: TamingParams | None = None
    kind: SchemeKind = SchemeKind.TAMED_EXP_EULER

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.kind is SchemeKind.TAMED_EXP_EULER and self.drift is not None:
            if self.taming is None:
                raise ValueError("tamed scheme with a drift needs TamingParams")

    @property
    def horizon(self) -> float:
        return self.tau * self.n_steps


@dataclass
class RunOutput:
    """Per-sample results of one run inside a sweep (sample-major arrays)."""

    endpoints: np.ndarray                     # (S, N)
    snapshots: dict[float, np.ndarray]        # time -> (S, N)


# ---------------------------------------------------------------------------
# one step of a run, on a batch of states
# ---------------------------------------------------------------------------


class _RunPre:
    """Precomputed per-run quantities of the step the sweep takes."""

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        basis = cfg.basis
        self.transform = basis._transform
        self.inv_nodes = 1.0 / (basis.n_modes + 1)
        self.drift_scale = cfg.tau / cfg.epsilon
        # per-mode factor of the update: E(tau) for the tamed step,
        # 1 / (1 + tau lambda) for the reference
        if cfg.kind is SchemeKind.TAMED_EXP_EULER:
            self.factor = basis.semigroup_factors(cfg.tau)
        else:
            self.factor = 1.0 / (1.0 + cfg.tau * basis.eigenvalues)

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
            if cfg.kind is SchemeKind.TAMED_EXP_EULER:
                drift_mod.f_tau_eval(cfg.drift, cfg.taming, cfg.tau, phys,
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
        if self.cfg.kind is SchemeKind.TAMED_EXP_EULER:
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


def _snapshot_steps(cfg: SchemeConfig, times: Sequence[float]) -> dict[int, float]:
    table: dict[int, float] = {}
    for t in times:
        # clipped, so a time whose step count overflows to inf is off the
        # grid rather than an OverflowError
        m = int(round(min(max(t / cfg.tau, -1.0), cfg.n_steps + 1.0)))
        if not 0 <= m <= cfg.n_steps or abs(m * cfg.tau - t) > 1e-9 * max(1.0, cfg.tau):
            raise ValueError(
                f"snapshot time {t} is not on the step grid of tau={cfg.tau} "
                f"in [0, {cfg.horizon}]"
            )
        table[m] = float(t)
    return table


def _sample_id(s) -> int:
    """``s`` as a sample id: an integer in [0, 2**63), the ids an int64
    array holds (the Philox counter word is unsigned)."""
    try:
        ok = int(s) == s and 0 <= s < 2**63
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"sample id {s!r} is not an integer in [0, 2**63)")
    return int(s)


def sweep_ensemble(
    runs: Sequence[SchemeConfig],
    plan: NoisePlan,
    samples: int | Sequence[int],
    *,
    x0: np.ndarray | None = None,
    snapshot_times: Sequence[Sequence[float]] | None = None,
    snapshot_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    skip_blowups: bool = False,
    threads: int = 1,
) -> tuple[list[RunOutput], np.ndarray]:
    """Advance all runs over one shared noise path per sample.

    ``samples`` is either a count (ids 0..n-1) or explicit sample ids;
    ids select the counter-addressed noise.  Returns one RunOutput per
    run plus the boolean mask of samples that blew up (only ever set
    when ``skip_blowups``; otherwise a blow-up raises).  Results are
    independent of ``threads``.

    ``snapshot_fn`` reduces what a snapshot stores: it maps a (rows, N)
    batch of states to (rows, K) per-sample values, and each snapshot
    array is then (samples, K) instead of (samples, N).  It is applied to
    a whole chunk's states, always at least two rows (the state at t = 0
    as two copies of ``x0``), so a one-row matmul inside it cannot take
    BLAS's matrix-vector path; its rows must depend only on their own
    state.  None stores the states themselves.  A caller that wants the
    running norm monitors asks for a snapshot at every step with
    ``snapshot_fn=basis.norms`` and takes the maxima over time of the
    square root, the fourth root and the sup column.
    """
    if not runs:
        raise ValueError("need at least one run")
    if isinstance(samples, (int, np.integer)):
        sample_ids = np.arange(samples)
    else:
        sample_ids = np.array([_sample_id(s) for s in samples], dtype=np.int64)
    n_samples = len(sample_ids)
    basis = runs[0].basis
    horizon = runs[0].horizon
    for r in runs:
        if r.basis.n_modes != basis.n_modes:
            raise ValueError("all runs must share one basis size")
        if abs(r.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError(
                f"runs disagree on the horizon: {r.horizon} vs {horizon}"
            )
    if x0 is None:
        x0 = default_initial(basis)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (basis.n_modes,):
        raise ValueError(f"x0 must have shape ({basis.n_modes},)")

    n_mode = basis.n_modes
    snap_map = [
        _snapshot_steps(r, snapshot_times[i]) if snapshot_times else {}
        for i, r in enumerate(runs)
    ]
    if snapshot_fn is None:
        snapshot_fn = np.asarray       # the states themselves
    # two rows: see the one-row note in work
    snap0 = snapshot_fn(np.tile(x0, (2, 1)))[:1]
    outputs = [
        RunOutput(
            endpoints=np.empty((n_samples, n_mode)),
            snapshots={t: np.empty((n_samples, *snap0.shape[1:]))
                       for t in sm.values()},
        )
        for sm in snap_map
    ]
    blown = np.zeros(n_samples, dtype=bool)

    fine_steps = plan.fine_steps
    h = plan.fine_step_size(horizon)
    ratios = []
    for r in runs:
        ratio = int(round(r.tau / h))
        if ratio < 1 or abs(ratio * h - r.tau) > 1e-9 * r.tau:
            raise ValueError(
                f"step size {r.tau} is not an integer multiple of the fine "
                f"step {h} (fine_level={plan.fine_level})"
            )
        if r.n_steps * ratio != fine_steps:
            raise ValueError(
                f"run covers {r.n_steps * ratio} fine steps, plan has {fine_steps}"
            )
        ratios.append(ratio)

    pres = [_RunPre(r) for r in runs]
    tamed = [r.kind is SchemeKind.TAMED_EXP_EULER for r in runs]
    decay_fine = np.exp(-basis.eigenvalues * h)
    window = min(_WINDOW_STEPS, fine_steps)

    # one chunk per thread up to the cap, so that every thread has work
    size = max(2, min(_CHUNK_SAMPLES, -(-n_samples // max(1, threads))))
    chunks = [(start, min(start + size, n_samples))
              for start in range(0, n_samples, size)]

    def work(chunk: tuple[int, int]) -> None:
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
        ok = np.empty(count, dtype=bool)
        alive = np.ones(count, dtype=bool)
        for i, sm in enumerate(snap_map):
            if 0 in sm:
                outputs[i].snapshots[sm[0]][lo:hi] = snap0
        stream = noise_mod.IncrementStream(plan, ids, basis.eigenvalues, h, window,
                                           dw=not all(tamed), conv=any(tamed))
        # one running coarse sum per (ratio, kind), shared by the runs
        # with both: acc <- e^{-lambda h} acc + fine increment for tamed
        # runs, a plain sum for the reference, restarted at each coarse step
        accs = {(ratio, t): np.empty((count, n_mode))
                for ratio, t in zip(ratios, tamed) if ratio > 1}
        decay = (np.tile(decay_fine, (count, 1))
                 if any(t for _, t in accs) else None)
        # update factors tiled to the chunk, one per (kind, tau) in use
        tiles = {(r.kind, r.tau): np.tile(pre.factor, (count, 1))
                 for r, pre in zip(runs, pres)}
        factors = [tiles[r.kind, r.tau] for r in runs]
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
                for i, (pre, ratio, t, factor) in enumerate(
                        zip(pres, ratios, tamed, factors)):
                    if (k + 1) % ratio:
                        continue
                    m = (k + 1) // ratio
                    inc = fine[t][kl] if ratio == 1 else accs[ratio, t]
                    new = pre.advance(states[i], inc, spare, phys, fv, factor)
                    spare, states[i] = states[i], new
                    np.all(np.isfinite(new, out=finite), axis=1, out=ok)
                    if not ok.all():
                        if not skip_blowups:
                            bad = int(np.nonzero(~ok)[0][0])
                            raise BlowUpError(m, int(ids[bad]), i)
                        alive &= ok
                        new[~alive] = 0.0
                        blown[lo:hi] |= ~alive[:rows]
                    if m in snap_map[i]:
                        outputs[i].snapshots[snap_map[i][m]][lo:hi] = (
                            snapshot_fn(new)[:rows])
        dead = lo + np.flatnonzero(~alive[:rows])
        for i, out in enumerate(outputs):
            out.endpoints[lo:hi] = states[i][:rows]
            # a blown sample restarted from zero where it blew: none of
            # its rows, in any run, hold a path of the scheme
            for arr in (out.endpoints, *out.snapshots.values()):
                arr[dead] = np.nan

    with _single_threaded_blas():
        if threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for f in [pool.submit(work, c) for c in chunks]:
                    f.result()
        else:
            for c in chunks:
                work(c)
    return outputs, blown
