"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/stages.py JOB.json

The job names the source tree, the config, the run directory and the CLI
argument lists of the stages. This process imports ``robust_recon.cli``,
loads the config (together, the set-up every CLI call pays), then calls
``cli.main`` once per stage and times each call. With ``trace`` set it
wraps the layer functions first (see spans.py) and reports per-layer
numbers. After the timed part it verifies the run directory's manifest and
hashes the outputs, so the caller can check them. The result is written as
JSON to the job's ``result`` path.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

OUTPUT_GLOBS = ("reconstruction.rrc", "sweep_*.csv")
SUMMARIES = ("reconstruction_summary.json", "quality_summary.json",
             "sweep_summary.json")


def blas_info() -> dict:
    """BLAS library, the kernel core it picked at run time and its thread
    count, read from the OpenBLAS that numpy loaded."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "core": None, "threads": None, "machine": platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    # the symbol prefix and suffix depend on how the wheel built OpenBLAS
    for stem in ("scipy_openblas_get_{}64_", "openblas_get_{}64_", "openblas_get_{}"):
        if lib is None or not hasattr(lib, stem.format("corename")):
            continue
        corename = getattr(lib, stem.format("corename"))
        threads = getattr(lib, stem.format("num_threads"))
        corename.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        info["core"] = corename().decode()
        info["threads"] = threads()
        break
    return info


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    from robust_recon import artifacts, cli, config
    from robust_recon.errors import IntegrityError

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"robust_recon imported from {cli.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    config.load_config(job["config"])
    ready = time.monotonic()

    out = Path(job["out"])
    stages = []
    for argv in job["stages"]:
        argv = [argv[0], "--config", job["config"], "--out", str(out)] + argv[1:]
        stderr = io.StringIO()
        span = tracer.begin(f"cli.{argv[0]}") if tracer else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end(span)
        stages.append({"name": argv[0], "code": code, "s": seconds,
                       "stderr": stderr.getvalue().strip()})
        if code != 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"ready": ready, "stages": stages, "peak_rss_mb": peak_rss_mb,
              "environment": blas_info(), "outputs": {}, "summaries": {}}
    if tracer:
        result["layers"] = spans.summarize(tracer.spans)
        result["fevals_in_lbfgsb"] = sum(
            1 for name, parent, *_ in tracer.spans
            if name == "solvers.Objective.evaluate" and parent >= 0
            and tracer.spans[parent][0] == "solvers.lbfgsb")
    try:
        artifacts.verify_manifest(out)
        result["manifest_error"] = None
    except (IntegrityError, OSError) as exc:  # reported as a failed check
        result["manifest_error"] = f"{type(exc).__name__}: {exc}"
    for pattern in OUTPUT_GLOBS:
        for path in sorted(out.glob(pattern)):
            result["outputs"][path.name] = sha256(path)
    for name in SUMMARIES:
        if (out / name).is_file():
            result["summaries"][name] = json.loads((out / name).read_text())
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
