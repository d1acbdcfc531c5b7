"""Run the suite with one BLAS thread unless the caller sets the count.

On small hosts the default OpenBLAS thread pool makes the dense
coarse-graining and chain kernels slower, not faster: on 2 CPUs a 25-step
chi 32 TRG flow took 7.1 s with two threads and 3.5 s with one. The
variables must be set before numpy is first imported, which pytest does
only after loading this file; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
