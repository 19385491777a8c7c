"""Host-noise and reference figures quoted in ``perfbench/README.md``.

    python3 perfbench/reference.py

Host noise: each of ``PROCESSES`` fresh processes runs a single-thread
400x400 float64 matmul loop for each of ``LOOP_SECONDS`` and reports the
median time of one product; the spread of those medians between
processes is the drift a benchmark median cannot average away.
Reference: the package's Jacobi ``symmetric_eig`` against
``numpy.linalg.eigh`` at n = 60, 100 and 183.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROCESSES = 5
LOOP_SECONDS = (3, 20)


def matmul_loop(seconds: float) -> float:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((400, 400)), rng.standard_normal((400, 400))
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        started = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def eig_times(sizes=(60, 100, 183), repeats=3) -> list[tuple[int, float, float]]:
    sys.path.insert(0, SRC)
    from fggsl.graphs import symmetric_eig
    out = []
    for n in sizes:
        m = np.random.default_rng(n).standard_normal((n, n))
        m = m + m.T
        jacobi, lapack = [], []
        for _ in range(repeats):
            started = time.perf_counter()
            symmetric_eig(m)
            jacobi.append(time.perf_counter() - started)
            started = time.perf_counter()
            np.linalg.eigh(m)
            lapack.append(time.perf_counter() - started)
        out.append((n, statistics.median(jacobi), statistics.median(lapack)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loop", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.loop:
        print(matmul_loop(args.loop))
        return 0
    for seconds in LOOP_SECONDS:
        medians = []
        for _ in range(PROCESSES):
            proc = subprocess.run([sys.executable, __file__, "--loop", str(seconds)],
                                  capture_output=True, text=True, check=True)
            medians.append(float(proc.stdout))
        lo, hi = min(medians), max(medians)
        print(f"matmul 400x400, {PROCESSES} processes of {seconds:g} s: medians "
              f"{1e3 * lo:.2f}-{1e3 * hi:.2f} ms, range {(hi - lo) / lo:.1%} of the lowest")
    for n, jacobi, lapack in eig_times():
        print(f"eigendecomposition n={n}: Jacobi {jacobi:.3f} s, numpy eigh {lapack * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
