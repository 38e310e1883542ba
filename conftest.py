"""Pins the BLAS and OpenMP thread pools to one thread for the test run, as
CI and the benchmark do: the matrices are at most 16 x 16, so more threads
cost CPU time and buy no speed.  numpy reads these variables once, when it
is first imported, so they are set here, at the root: perfbench/ is
collected before tests/ and imports numpy.  A value set in the environment
is kept."""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
