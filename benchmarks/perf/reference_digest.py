#!/usr/bin/env python
"""sha256 digests of a full-size ``reference`` diagnosis and training run.

Hashes perfbench's seed-1 ``diagnose_lowdose`` scans diagnosed on the
``reference`` backend (scan, probability, lung mask, segmented volume)
and four ``train_enhance`` steps (their losses and the DDnet weights
after them), with one BLAS thread, as perfbench runs.

The bits depend on the host: which BLAS kernels the CPU selects and the
NumPy/SciPy builds.  So the recorded digests below are a check for the
host that recorded them, not a portable test; the portable form
(kernels against the expressions they replaced, in one process) is
``tests/test_reference_pins.py``.  A change meant to keep ``reference``
bit-identical should print ``match`` for both on the recording host.

Usage::

    python benchmarks/perf/reference_digest.py

Exits 1 when a digest differs from the recorded one.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: Recorded on a 2-core Intel Xeon, Python 3.11, NumPy 2.4.6, SciPy
#: 1.17.1, one OpenBLAS thread.
RECORDED = {
    "diagnosis": "3ca6de93e59f5054607174bd5d44e141f706e7547742fe74bca979b1fd922953",
    "training": "48c86c3c3e2581868b7b7dc310900048581de9fba8738fb05252dcd05ef73597",
}


def _update(h, a) -> None:
    a = np.asarray(a)
    h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())


def digests() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO_ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    diagnose = workloads.DiagnoseLowDose(1)
    diagnose.framework.to_backend("reference")
    h = hashlib.sha256()
    for i in range(diagnose.cycle):
        scan, result = diagnose.run(i)
        for a in (scan, result.probability, result.lung_mask, result.segmented_volume):
            _update(h, a)
    out = {"diagnosis": h.hexdigest()}

    train = workloads.TrainEnhance(1)
    h = hashlib.sha256()
    for i in range(4):
        _update(h, np.float64(train.run(i)))
    for k, v in sorted(train.enhancer.model.state_dict().items()):
        h.update(k.encode())
        _update(h, v)
    out["training"] = h.hexdigest()
    return out


def main() -> int:
    ok = True
    for name, digest in digests().items():
        match = digest == RECORDED[name]
        ok &= match
        print(f"{name:9s} {digest} {'match' if match else 'DIFFERS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
