"""Brightness-curve sonification: video in, MIDI score and analysis artifacts out."""

import os

# OpenBLAS starts a worker thread per further core when numpy is imported,
# and the worker busy-waits: 50-80 ms of CPU at start-up on a 2-vCPU Xeon
# with NumPy 2.4, and more after each product it shares.  lumascore's BLAS
# calls are the RGB24 luma-key products, made on each measuring thread while
# the measuring threads already fill every core, and the small products of
# the exponential fit; their bits are the same at any thread count.  Python
# runs a package's start before any of its modules, and this one imports
# nothing of the package, so the default is set before any lumascore module
# brings in numpy; a value the caller has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
