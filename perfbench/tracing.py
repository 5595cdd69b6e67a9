"""Span recorder and the hooks that wrap the package's layer boundaries.

The hooks are installed from outside the package, on the attributes the
package looks up at call time: module globals called by name (for
example ``engine`` calls ``noise_mod.standard_pairs_batch``), methods
looked up on their class, and the names that ``analysis`` and ``cli``
bound at import (``analysis.sweep_ensemble``,
``cli.derive_growth_constants``).  Nothing under ``src/`` is edited.

Every span is charged to (layer, parent layer, thread id).  The parent is
the innermost open span of the same thread, so spans inside worker
threads of a threaded sweep have ``engine.chunk`` as their parent.
Totals are accumulated under one lock, so counts repeat exactly whatever
the thread interleaving.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, layer); a dotted attribute names a method on a class
HOOKS = (
    ("noise", "standard_pairs_batch", "noise.pairs"),
    ("noise", "_box_muller", "noise.box_muller"),
    ("noise", "_raw_words", "noise.philox"),
    ("engine", "_RunPre.drift_term", "drift.collocation"),
    ("engine", "_RunPre.advance", "engine.advance"),
    ("drift", "f_eval", "drift.poly"),
    ("drift", "_abs_power", "drift.taming"),
    ("drift", "_taming_denominator", "drift.taming"),
    ("cli", "derive_growth_constants", "drift.constants"),
    ("cli", "_drift", "drift.constants"),
    ("analysis", "StepTestFunction.__call__", "analysis.observable"),
    ("spectral", "SineBasis.to_physical", "analysis.observable"),
    ("cli", "weak_error_table", "analysis.entry"),
    ("cli", "weak_errors_shared_reference", "analysis.entry"),
    ("cli", "interface_profile", "analysis.entry"),
    ("cli", "moment_sup_estimate", "analysis.entry"),
    ("cli", "_resolve_config", "cli.config"),
    ("cli", "_write_csv", "cli.io"),
    ("cli", "_write_json", "cli.io"),
    ("cli", "_write_manifest", "cli.io"),
)

# names bound to sweep_ensemble; both get the one sweep wrapper
SWEEP_BINDINGS = (("engine", "sweep_ensemble"), ("analysis", "sweep_ensemble"))

ROOT = "-"


class Recorder:
    """Accumulates span totals keyed by (layer, parent, thread id)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.totals = {}          # (layer, parent, tid) -> [calls, total_s, self_s]
        self.io_bytes = 0
        self.sweeps = []          # one dict per sweep_ensemble call

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` on the current thread."""
        stack = self._stack()
        frame = [layer, 0.0]      # layer, time covered by child spans
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            parent = stack[-1][0] if stack else ROOT
            if stack:
                stack[-1][1] += dur
            key = (layer, parent, threading.get_ident())
            with self._lock:
                row = self.totals.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]

    def add_io_bytes(self, n):
        with self._lock:
            self.io_bytes += n

    # -- aggregation -------------------------------------------------------

    def calls(self, layer, parent=None):
        return sum(r[0] for (l, p, _), r in self.totals.items()
                   if l == layer and p != layer and parent in (None, p))

    def busy(self, layer, parent=None):
        """Summed duration of the outermost spans of ``layer`` over all
        threads, optionally only those opened directly under ``parent``."""
        return sum(r[1] for (l, p, _), r in self.totals.items()
                   if l == layer and p != layer and parent in (None, p))

    def self_time(self, layer):
        return sum(r[2] for (l, p, _), r in self.totals.items() if l == layer)


def _resolve(module, dotted):
    owner = module
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(pkg, rec, on_sweep=None):
    """Wrap every hook point of the imported package ``pkg``.

    ``on_sweep(runs, plan, samples)`` is called at each sweep entry
    before the sweep starts.  Returns the hook points the package no
    longer has; they are skipped, and their layers read zero.
    """
    modules = {name: getattr(pkg, name) for name in
               ("noise", "engine", "drift", "analysis", "spectral", "cli")}
    missing = []
    for mod_name, attr, layer in HOOKS:
        try:
            owner, name = _resolve(modules[mod_name], attr)
            original = getattr(owner, name)
        except AttributeError:
            missing.append(f"{mod_name}.{attr}")
            continue
        if name in ("_write_csv", "_write_json"):
            wrapper = _io_wrapper(rec, layer, original)
        elif name == "_write_manifest":
            wrapper = _manifest_wrapper(rec, layer, original)
        else:
            wrapper = _span_wrapper(rec, layer, original)
        setattr(owner, name, wrapper)
    engine = modules["engine"]
    sweep = _sweep_wrapper(rec, engine.sweep_ensemble, on_sweep)
    for mod_name, attr in SWEEP_BINDINGS:
        setattr(modules[mod_name], attr, sweep)
    engine.ThreadPoolExecutor = _chunk_pool(rec)
    return missing


def _span_wrapper(rec, layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.span(layer, fn, *args, **kwargs)
    return wrapper


def _io_wrapper(rec, layer, fn):
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        try:
            return rec.span(layer, fn, path, *args, **kwargs)
        finally:
            rec.add_io_bytes(_file_size(path))
    return wrapper


def _manifest_wrapper(rec, layer, fn):
    # the manifest writer also writes config.resolved.ini, which goes
    # through no _write_* helper; manifest.json is counted by _write_json
    @functools.wraps(fn)
    def wrapper(outdir, *args, **kwargs):
        try:
            return rec.span(layer, fn, outdir, *args, **kwargs)
        finally:
            rec.add_io_bytes(_file_size(os.path.join(outdir, "config.resolved.ini")))
    return wrapper


def _sweep_wrapper(rec, fn, on_sweep):
    @functools.wraps(fn)
    def wrapper(runs, plan, samples, *args, **kwargs):
        if on_sweep is not None:
            on_sweep(runs, plan, samples)
        chunks_before = rec.busy("engine.chunk")
        t0 = time.perf_counter()
        try:
            return rec.span("engine.sweep", fn, runs, plan, samples,
                            *args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            chunk_s = rec.busy("engine.chunk") - chunks_before
            # thread time spent inside the sweep: the summed chunk spans of
            # a threaded sweep, else the sweep's own wall time
            rec.sweeps.append({"wall_s": wall,
                               "thread_s": chunk_s if chunk_s > 0 else wall})
    return wrapper


def _chunk_pool(rec):
    class ChunkPool(ThreadPoolExecutor):
        """Thread pool whose tasks each run inside an ``engine.chunk`` span."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.span, "engine.chunk", fn, *args, **kwargs)

    return ChunkPool


def sweep_work(runs, plan, samples, chunk_samples):
    """(sample-fine-steps, loop iterations) of one sweep call.

    One loop iteration is one (chunk, fine step, run) visit of the
    engine's inner loop; an advance happens on the iterations that close
    a coarse step.
    """
    n = samples if isinstance(samples, int) else len(samples)
    chunks = -(-n // chunk_samples)
    return n * plan.fine_steps, chunks * plan.fine_steps * len(runs)


def layer_metrics(rec, sample_steps, iterations):
    """Per-layer figures of one traced run, in BENCHMARK.json units."""
    sweep_wall = sum(s["wall_s"] for s in rec.sweeps)
    sweep_busy = sum(s["thread_s"] for s in rec.sweeps)
    noise = rec.busy("noise.pairs")
    advance = rec.busy("engine.advance")
    coll = rec.busy("drift.collocation")
    return {
        "noise.pairs.busy_s": (noise, "s"),
        "noise.pairs.ns_per_sample_step": (1e9 * noise / sample_steps, "ns"),
        "noise.box_muller.busy_s": (rec.busy("noise.box_muller"), "s"),
        "noise.philox.busy_s": (rec.busy("noise.philox"), "s"),
        "noise.philox.calls": (rec.calls("noise.philox"), "count"),
        "drift.collocation.calls": (rec.calls("drift.collocation"), "count"),
        "drift.collocation.busy_s": (coll, "s"),
        "drift.poly.busy_s": (
            rec.busy("drift.poly", parent="drift.collocation"), "s"),
        "drift.taming.busy_s": (
            rec.busy("drift.taming", parent="drift.collocation"), "s"),
        # collocation minus polynomial and taming: the two transforms
        "spectral.transform.self_s": (rec.self_time("drift.collocation"), "s"),
        "engine.advance.calls": (rec.calls("engine.advance"), "count"),
        "engine.advance.busy_s": (advance, "s"),
        "engine.loop.self_s": (sweep_busy - noise - advance, "s"),
        "engine.advance_per_iteration": (
            rec.calls("engine.advance") / iterations, "ratio"),
        "engine.parallelism": ((noise + advance) / sweep_wall, "ratio"),
        "analysis.reduce.self_s": (rec.self_time("analysis.entry"), "s"),
        "analysis.observable.busy_s": (rec.busy("analysis.observable"), "s"),
        "cli.io.busy_s": (rec.busy("cli.io"), "s"),
        "cli.io.bytes": (rec.io_bytes, "bytes"),
        "drift.constants.busy_s": (rec.busy("drift.constants"), "s"),
        "cli.config.busy_s": (rec.busy("cli.config"), "s"),
    }

