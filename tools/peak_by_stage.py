"""Peak resident memory per stage of one benchmark operation.

    python tools/peak_by_stage.py [--workload ciao-train] [--seed 1] [--size full]

Sets up a `bench/` run as `bench/run.py` does (BLAS pinned to the CPUs the
process may use, the run's three set-ups), runs its operation once,
untraced, and prints per stage:

- `sampled_mb`: the highest resident set size read from
  /proc/self/statm, by a thread every millisecond and at every stage
  change, while the stage was the innermost one running;
- `maxrss_mb`: the process peak (`ru_maxrss`) when the stage last raised
  it, if it did; the largest figure is the process's peak and names the
  stage that reached it.

The stages: set-up, sample, gradients, Adam, encode (the training's),
validation, test evaluation, export, load_checkpoint and read passes
(their encode and ranking); time in none of them counts as "other"
(Laplacians, the snapshot, checkpoint writes, the rank check). The
sampled figures are lower bounds between samples; `maxrss_mb` is exact.

The script imports `bench/` without writing to it (no bytecode; the
run's work directory is a temporary one) and patches module attributes
only while the operation runs.
"""

import argparse
import collections
import contextlib
import functools
import os
import pathlib
import resource
import sys
import tempfile
import threading

BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path[:0] = [str(REPO / "src"), str(REPO / "bench")]
import workloads  # noqa: E402
from socrec import eval as eval_mod  # noqa: E402
from socrec import experiments  # noqa: E402
from socrec import model as model_mod  # noqa: E402
from socrec import train as train_mod  # noqa: E402

PAGE = os.sysconf("SC_PAGE_SIZE")
MB = 1024.0 * 1024.0

# (stage, owner, attribute) of every call that opens a stage
STAGES = (
    ("sample", train_mod, "sample_batch"),
    ("gradients", train_mod, "compute_gradients"),
    ("Adam", train_mod, "adam_step"),
    ("encode", train_mod, "encode"),
    ("validation", train_mod, "evaluate"),
    ("test evaluation", experiments, "evaluate_stratified"),
    ("export", eval_mod, "export_relevance_weights"),
    ("read passes", workloads.Run, "read_passes"),
    ("load_checkpoint", model_mod, "load_checkpoint"),
)
ORDER = ("set-up", *(stage for stage, _, _ in STAGES), "other")


class StageMemory:
    """The stage stack, the sampled peak per stage and the ru_maxrss
    increases per stage."""

    def __init__(self, interval=1e-3):
        self.stack = ["other"]
        self.sampled = collections.defaultdict(int)   # stage -> bytes
        self.raised = {}                              # stage -> ru_maxrss MB
        self.calls = collections.Counter()
        self.maxrss = self._maxrss()
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._lock = threading.Lock()  # the poller and stage changes both sample
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._poll, args=(interval,), daemon=True)

    @staticmethod
    def _maxrss():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB

    def sample(self):
        with self._lock:
            rss = int(os.pread(self._fd, 128, 0).split()[1]) * PAGE
            stage = self.stack[-1]
            self.sampled[stage] = max(self.sampled[stage], rss)

    def _poll(self, interval):
        while not self._done.wait(interval):
            self.sample()

    def _switch(self):
        """Sample, and credit a rise of ru_maxrss to the innermost stage."""
        self.sample()
        maxrss = self._maxrss()
        if maxrss > self.maxrss:
            self.raised[self.stack[-1]] = self.maxrss = maxrss

    @contextlib.contextmanager
    def stage(self, name):
        self._switch()
        self.stack.append(name)
        self.calls[name] += 1
        try:
            yield
        finally:
            self._switch()
            self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def staged(*args, **kwargs):
            with self.stage(name):
                return fn(*args, **kwargs)
        return staged

    @contextlib.contextmanager
    def patched(self):
        saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in STAGES]
        try:
            for (name, owner, attr), (_, _, real) in zip(STAGES, saved):
                setattr(owner, attr, self.wrap(name, real))
            yield
        finally:
            for owner, attr, real in reversed(saved):
                setattr(owner, attr, real)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()
        self._switch()
        os.close(self._fd)

    def table(self):
        rows = [f"{'stage':<16} {'calls':>5} {'sampled_mb':>10} {'maxrss_mb':>9}"]
        for name in ORDER:
            if name in self.sampled:
                raised = self.raised.get(name)
                calls = self.calls[name] if name != "other" else ""
                rows.append(f"{name:<16} {calls:>5} "
                            f"{self.sampled[name] / MB:>10.1f} "
                            f"{'' if raised is None else f'{raised:.1f}':>9}")
        rows.append(f"process peak (ru_maxrss): {self._maxrss():.1f} MB")
        return "\n".join(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="ciao-train", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work_dir:
        run = workloads.Run(args.workload, args.seed, work_dir, size=args.size)
        with StageMemory() as memory, run.clock:  # the clock hands over the dataset
            with memory.stage("set-up"):
                run.set_up()
            with workloads.capped_steps(run.workload.steps_per_epoch), memory.patched():
                op = run.operation(0, traced=False)
    print(f"# {args.workload} seed {args.seed} ({args.size}), one operation, "
          f"{BLAS_THREADS} BLAS threads")
    print(memory.table())
    for failure in op["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if op["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
