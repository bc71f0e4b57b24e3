"""Set-up probe: one fresh process per measurement.

    python perfbench/setup_probe.py WORKLOAD   # build what WORKLOAD needs
    python perfbench/setup_probe.py --env      # print the environment record

A workload's set-up is what a fresh process must import and build, through
the public functions, before its first Monte Carlo sample:

    scan-1d  import + the 1D ground state (closed form)
    scan-2d  import + the 2D ground state + bessel_zeros and radial_basis at
             the top of the schedule
    verify   import only

The parent times the whole process, interpreter start included.
"""
import json
import os
import platform
import sys


def build(workload, dim, p, top_n):
    import gibbslab

    if workload == "verify":
        return
    gibbslab.solve_ground_state(dim, p)
    if dim == 2:
        gibbslab.radial_basis(gibbslab.bessel_zeros(top_n), top_n)


def environment():
    import numpy
    import scipy

    import gibbslab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "gibbslab_file": gibbslab.__file__,
        "gibbslab_version": gibbslab.__version__,
        "backend": gibbslab.BACKEND,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GIBBSLAB_WORKERS")},
    }


if __name__ == "__main__":
    if sys.argv[1] == "--env":
        print(json.dumps(environment()))
    else:
        build(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]),
              int(sys.argv[4]))
