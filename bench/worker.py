"""One fresh benchmark process: set up, run one workload once, report.

    python3 bench/worker.py --workload NAME --seed N --out-dir DIR [--trace] [--tiny]
    python3 bench/worker.py --setup-only

Set-up is timed from the first statement of this file (interpreter start-up
itself is not included) to the end of the warm-up: importing numpy, scipy
and nekrasov, then one dense LAPACK solve and one FFT, so that first-call
costs land in set-up and not in the first timed operation.  The result is
printed as one JSON line on stdout.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# a LAPACK warm-up slower than this is counted as a first-call stall
STALL_S = 0.05
# one BLAS thread (at most nproc): on 2 shared vCPUs a second thread made a
# 511x511 LU plus matmul slower at the median and added 0.1-0.3 s stalls
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def set_up() -> dict:
    import numpy as np
    import scipy.fft
    import scipy.linalg

    import nekrasov  # noqa: F401

    imported = time.perf_counter()
    rng = np.random.default_rng(0)
    matrix = rng.random((64, 64)) + 64.0 * np.eye(64)
    scipy.linalg.solve(matrix, np.ones(64))
    lapack_done = time.perf_counter()
    scipy.fft.dst(rng.random(64), type=1)
    ready = time.perf_counter()
    return {"setup_s": ready - START, "import_s": imported - START,
            "lapack_s": lapack_done - imported, "fft_s": ready - lapack_done,
            "lapack_stall": lapack_done - imported > STALL_S}


def blas_threads() -> dict:
    """Threads reported by each OpenBLAS loaded in this process (numpy and
    scipy each bundle their own)."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    threads = {}
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": blas_threads()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup = set_up()
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    import tracing
    import workloads

    run, check = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.FULL
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    patches = tracing.install(tracer) if tracer else None
    try:
        outcome = run(args.seed, args.out_dir, sizes)
    finally:
        if patches:
            patches.restore()
    verdict = check(outcome, sizes)
    report = {
        "setup": setup,
        "env": environment(),
        "wall_s": outcome.wall_s,
        "latencies_s": outcome.latencies_s,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failures": verdict.failures,
        "io_hashes": verdict.io_hashes,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report["layers"] = tracing.layer_metrics(tracer, outcome.wall_s)
        with open(args.out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ok"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
