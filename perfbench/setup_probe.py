"""Set-up probe: seconds in a fresh process from importing gaugelab to a calibrated well.

Every `gaugelab run` pays this once before its first sweep point
(`base_matter_spec` -> `calibrate_potential`).  The benchmark takes one
sample in its own process and more in fresh child processes that run this
file:

    python3 perfbench/setup_probe.py '<config JSON>'

which prints `{"setup_s": <seconds>}`.  It also holds the two things every
benchmark process must do first: pin BLAS to one thread before numpy loads,
and import gaugelab from the checkout's `src/` and nowhere else.
"""

from __future__ import annotations

import json
import os
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is imported anywhere."""
    if all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS):
        return
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_gaugelab():
    """Import gaugelab from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gaugelab", "__init__.py")):
        raise ImportError(f"no gaugelab sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import gaugelab

    if not os.path.abspath(gaugelab.__file__).startswith(src + os.sep):
        raise ImportError(f"gaugelab imported from {gaugelab.__file__}, not {src}")
    return gaugelab


def measure_setup(config: dict, before_calibrate=None) -> float:
    """Seconds from `import gaugelab` to the calibrated well spec for `config`.

    `before_calibrate(gaugelab)` runs after the import and before calibration
    (the traced run installs its wrappers there); its time is included.
    """
    t0 = time.perf_counter()
    gaugelab = import_gaugelab()
    if before_calibrate is not None:
        before_calibrate(gaugelab)
    from gaugelab.experiments import base_matter_spec

    base_matter_spec(gaugelab.ExperimentConfig.from_dict(config))
    return time.perf_counter() - t0


if __name__ == "__main__":
    pin_blas()
    print(json.dumps({"setup_s": measure_setup(json.loads(sys.argv[1]))}))
