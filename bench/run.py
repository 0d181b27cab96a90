"""socrec benchmark: run one workload in one process and print its metrics.

    python3 bench/run.py --workload ciao-train --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The program under test is the checkout's
own `src/socrec`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json untraced (`--trace 0`), or its per-layer metrics
from a traced run (`--trace 1`). The line before it (`record ...`) holds
the whole run: provenance, dataset statistics, per-operation values,
output-file hashes and computed work counts. `bench/compare.py` reads
files of captured standard output:

    python3 bench/run.py --workload ciao-train --seed 1 --seconds 55 >> parent.out
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys

# Pin BLAS threads to the CPUs this process may use, before numpy loads.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_program():
    """Put this checkout's src/ first on the path, or refuse to run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "socrec", "__init__.py")):
        sys.exit(f"error: no socrec sources under {src}; run from a full checkout")
    sys.path.insert(0, src)


def read_first(path, prefix=""):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip().lstrip(":").strip()
    except OSError:
        pass
    return None


def blas_threads_in_effect():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and ".so" in path:
                paths.add(path)
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_sha():
    """HEAD of the checkout's git repository; None outside one."""
    git = os.path.join(ROOT, ".git")
    head = read_first(os.path.join(git, "HEAD"))
    if not head or not head.startswith("ref:"):
        return head
    ref = head[4:].strip()
    sha = read_first(os.path.join(git, ref))
    if sha:
        return sha
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy
    import scipy
    l3 = read_first("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pin": {var: os.environ[var] for var in BLAS_VARS},
        "blas_threads_in_effect": blas_threads_in_effect(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ciao-train", "planted-converge"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    load_program()
    from workloads import LAYER_METRICS, Run

    work_dir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    run = Run(args.workload, args.seed, work_dir, size=args.size)
    try:
        run.execute(args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds a concurrent run's files
            os.rmdir(os.path.dirname(work_dir))

    failed = sum(1 for op in run.ops if op["failures"])
    untraced = run.completed(False)
    if not untraced:
        sys.exit("error: no operation completed")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "dataset": run.stats,
        "setup_times_s": run.setup_times,
        "rss_after_setup_mb": run.rss_after_setup_mb,
        "end_to_end": run.end_to_end(untraced),
        "unit_medians": run.medians(untraced),
        "operations": run.ops,
        "attempted": len(run.ops), "failed": failed,
        "failed_share": failed / len(run.ops),
    }
    if args.trace:
        if not run.completed(True):
            sys.exit("error: no traced operation completed")
        record["end_to_end_traced"] = run.end_to_end(run.completed(True))
        record["per_layer"] = run.per_layer()
        record["trace_names"] = run.trace_names()
        record["per_layer_sources"] = {metric: names for metric, (_, names)
                                       in LAYER_METRICS.items()}
        record["computed"] = run.computed_work()
    # The record also carries z_gap and failed_share, which BENCHMARK.json
    # leaves out: z_gap sits at zero on ciao-train and failed_share is zero
    # whenever the checks pass, so neither can take a relative bound.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    for op in run.ops:
        for failure in op["failures"]:
            print(f"check failed in operation {op['op']}: {failure}", file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
