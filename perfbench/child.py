"""Run one tamedspde CLI command in this process and report on it.

    python3 perfbench/child.py REPORT.json MODE CLI-ARGS...

Imports the package from the checkout's ``src/`` and wraps the sweep entry
points to timestamp the first sweep entry (the end of set-up).  MODE is
``run`` (the command as a user runs it), ``trace`` (also install the
per-layer hooks of ``tracing``) or ``setup`` (stop at the first sweep
entry).  Afterwards the report (exit code, first-sweep timestamp on the
system-wide monotonic clock, work done and, when traced, the per-layer
figures) is written as JSON and the process exits with the command's code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class SetupDone(Exception):
    """Raised at the first sweep entry of a ``setup`` probe."""


def main(argv):
    report_path, mode, cli_args = argv[0], argv[1], argv[2:]
    trace = mode == "trace"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tamedspde
    import tamedspde.cli
    from tamedspde import engine

    import tracing

    if not Path(tamedspde.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported tamedspde from {tamedspde.__file__}, not {SRC}")

    state = {"first_sweep": None, "sample_steps": 0, "iterations": 0}

    def on_sweep(runs, plan, samples):
        if state["first_sweep"] is None:
            state["first_sweep"] = time.monotonic()
        steps, iters = tracing.sweep_work(runs, plan, samples,
                                          engine._CHUNK_SAMPLES)
        state["sample_steps"] += steps
        state["iterations"] += iters
        if mode == "setup":
            raise SetupDone

    rec = tracing.Recorder()
    missing = []
    if trace:
        missing = tracing.install(tamedspde, rec, on_sweep)
    else:
        original = engine.sweep_ensemble

        def probe(runs, plan, samples, *args, **kwargs):
            on_sweep(runs, plan, samples)
            return original(runs, plan, samples, *args, **kwargs)

        for mod_name, attr in tracing.SWEEP_BINDINGS:
            setattr(getattr(tamedspde, mod_name), attr, probe)

    try:
        code = tamedspde.cli.main(cli_args)
    except SetupDone:
        code = 0
    report = {"exit_code": code, "missing_hooks": missing, **state}
    if trace and state["sample_steps"]:
        report["layers"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracing.layer_metrics(
                rec, state["sample_steps"], state["iterations"]).items()
        }
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
