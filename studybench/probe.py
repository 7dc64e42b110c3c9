"""Cold-start probes, each run in a fresh interpreter with the package on the path.

    python3 probe.py import
        prints, as JSON, the seconds that ``import cpkmeans`` took inside the
        interpreter, the numpy version and the kernel backend.
    python3 probe.py setup experiment --config C --out O [--workers W] ...
        does what ``cpkmeans experiment`` does before its first trial (import,
        CLI parse, config read and validation, and for W > 1 one round of
        tasks through the studies' own process pool, ``_run_trials``, which
        starts W workers and shuts them down), then prints "ready".
        The caller times the launch until that line arrives.
    python3 probe.py kernel SEED
        prints, as JSON, the median microseconds per ``objective_table`` call
        at each shape the studies pass it, on N(0, 1) input drawn from SEED.
"""

import json
import statistics
import sys
import time

# Method 2's 80-row subsamples and the sweep's full sample (d=200), and the
# rate study's samples after truncation to T=10.
KERNEL_SHAPES = ((80, 200), (100, 200), (500, 10), (4000, 10))
KERNEL_REPEATS = 101


def kernel_us(seed):
    import numpy as np

    from cpkmeans._kernels import objective_table

    rng = np.random.default_rng(seed)
    out = {}
    for n, d in KERNEL_SHAPES:
        values = rng.standard_normal((n, d))
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            objective_table(values)
            times.append(time.perf_counter() - t0)
        out[f"kernel.us.{n}x{d}"] = statistics.median(times) * 1e6
    return out


def main(argv):
    if argv == ["import"]:
        t0 = time.perf_counter()
        import cpkmeans

        import_s = time.perf_counter() - t0
        import numpy

        numba = getattr(cpkmeans._kernels, "NUMBA_ENABLED", False)
        facts = {"numpy": numpy.__version__, "kernel_backend": "numba" if numba else "numpy"}
        print(json.dumps({"import_s": import_s, **facts}))
        return
    if len(argv) == 2 and argv[0] == "kernel":
        print(json.dumps(kernel_us(int(argv[1]) % 2**63)))
        return
    if not argv or argv[0] != "setup":
        sys.exit(__doc__)
    from cpkmeans import cli, experiments

    _, _, workers = cli._build_experiment(cli.parse_invocation(argv[1:]))
    if workers > 1:
        # The studies' own pool: started, one task per worker, shut down.
        experiments._run_trials(abs, list(range(workers)), workers)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
