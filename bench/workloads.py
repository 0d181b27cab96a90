"""Workloads: seeded inputs, set-up, the closed-loop operation and its checks.

One run is one process with one caller. A child process writes raw edge
files from the seed (`gen.py`); the run sets up SETUPS times (ingest,
`build_dataset`, both Laplacians), picks its check users, then repeats one
operation until the time budget is spent:

    `socrec train` path (`experiments.run_train`)
      -> tie-weight export and rank check on the trained model
      -> the `socrec eval` read path on the checkpoint it wrote
         (`load_checkpoint`, `encode`, `evaluate`), `eval_passes` times

Every training in a run is the same work (same data, seeds and early
stopping), so their artifacts must match byte for byte; every read pass
uses a fresh evaluation seed, so no two passes share a candidate set.

A `Clock` times every call to a few module-level names for the whole run.
The end-to-end timings are composed from these short units, each at its
pace in the run (see `Run.end_to_end`), so a run holds dozens to hundreds
of samples of each part instead of a few whole operations.
"""

import collections
import dataclasses
import functools
import hashlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from contextlib import contextmanager

import numpy as np

from spans import Tracer
from socrec import data, experiments, graph
from socrec import eval as eval_mod
from socrec import model as model_mod
from socrec import train as train_mod
from socrec.experiments import ExperimentSpec
from socrec.objective import TrainConfig
from socrec.selfcheck import reference_rank

GEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gen.py")
SETUPS = 3
CHECK_USERS = 64
HR_CUTOFF = 10


@dataclasses.dataclass(frozen=True)
class Workload:
    config: TrainConfig       # the run seed replaces config.seed
    steps_per_epoch: int = None  # cap on train_model's steps; None = full epochs
    eval_passes: int = 1      # read passes per operation
    planted: bool = False     # quality must beat chance and z must separate


# Paper defaults (d=128, L=2, B=2048, float64, variant full) on Ciao-shaped
# data. One full epoch there is about 91 steps (about two minutes on a
# 2-core box), so a run trains one epoch capped at 12 steps.
CIAO = TrainConfig(epochs=1)
# Planted clusters: learning rate and loss weights as in the denoising
# acceptance test; validation HR peaked at the fifth epoch at every seed
# tried, so early stopping ends training after the seventh.
PLANTED = TrainConfig(dim=32, batch=2048, lr=5e-3, lambda2=1e-3, lambda3=1e-5,
                      epochs=40, patience=2)

# Inputs for each (workload, size) are defined in gen.INPUTS.
WORKLOADS = {
    "ciao-train": {
        "full": Workload(CIAO, steps_per_epoch=12, eval_passes=3),
        "tiny": Workload(CIAO.with_overrides(dim=16, batch=256), steps_per_epoch=2,
                         eval_passes=2),
    },
    "planted-converge": {
        "full": Workload(PLANTED, eval_passes=10, planted=True),
        "tiny": Workload(PLANTED.with_overrides(dim=16, batch=256, lr=1e-2,
                                                patience=1),
                         eval_passes=2, planted=True),
    },
}


@contextmanager
def capped_steps(steps):
    """Cap the steps per epoch of `train_model`.

    train.py derives them as `math.ceil(len(train) / batch)`; the cap swaps
    the `math` name it reads for one whose `ceil` stops at `steps`, and
    fails the run if training never asked for the step count.
    """
    if steps is None:
        yield
        return
    real = train_mod.math
    asked = []

    def ceil(x):
        asked.append(x)
        return min(steps, real.ceil(x))

    train_mod.math = types.SimpleNamespace(**{**vars(real), "ceil": ceil})
    try:
        yield
    finally:
        train_mod.math = real
    if not asked:
        raise RuntimeError("train_model no longer reads math.ceil; "
                           "the step cap did not apply")


# (stage, module, attribute) of every name the clock wraps. A training step
# runs from the start of `sample_batch` to the end of `adam_step` and calls
# each of the STEP_STAGES once. `evaluate` is the validation inside
# `train_model`, the test evaluation of `run_train` and the read passes'
# ranking; `load_checkpoint` is the read passes'.
STEP_STAGES = ("sample_batch", "encode", "joint_loss", "compute_gradients",
               "adam_step")
CLOCKED = (
    ("ingest", experiments, "load_spec_dataset"),
    ("laplacian", graph, "build_interaction_laplacian"),
    ("laplacian", graph, "build_social_laplacian"),
    ("laplacian", train_mod, "build_interaction_laplacian"),
    ("laplacian", train_mod, "build_social_laplacian"),
    ("train_model", experiments, "train_model"),
    ("sample_batch", train_mod, "sample_batch"),
    ("encode", train_mod, "encode"),
    ("encode", model_mod, "encode"),
    ("joint_loss", train_mod, "joint_loss"),
    ("compute_gradients", train_mod, "compute_gradients"),
    ("adam_step", train_mod, "adam_step"),
    ("evaluate", train_mod, "evaluate"),
    ("evaluate", eval_mod, "evaluate"),
    ("evaluate", experiments, "evaluate_stratified"),
    ("load_checkpoint", model_mod, "load_checkpoint"),
)


class Clock:
    """Start and end of every call to the CLOCKED names, per stage.

    Each wrapper adds about a microsecond to calls of milliseconds or
    more; a call that raises is not recorded. For `evaluate` it also keeps
    the users each call attempted. The
    dataset the last ingest returned is kept until `take_dataset` hands it
    over, so the checks use the program's own dataset instead of holding a
    second one.
    """

    def __init__(self):
        self.laps = collections.defaultdict(list)  # stage -> [(start, end)]
        self.attempted = []                         # per evaluate call
        self.dataset = None
        self._saved = []

    def _timed(self, stage, fn):
        laps = self.laps[stage]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            laps.append((start, time.perf_counter()))
            if stage == "ingest":
                self.dataset = result
            elif stage == "evaluate":
                self.attempted.append(result.num_users + result.skipped)
            return result

        return timed

    def __enter__(self):
        for stage, owner, attr in CLOCKED:
            real = getattr(owner, attr)
            self._saved.append((owner, attr, real))
            setattr(owner, attr, self._timed(stage, real))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, real = self._saved.pop()
            setattr(owner, attr, real)

    def take_dataset(self):
        ds, self.dataset = self.dataset, None
        return ds

    def calls(self, stage, t0, t1):
        """(start, end) of the stage's calls that started in [t0, t1]."""
        return [(start, end) for start, end in self.laps[stage] if t0 <= start <= t1]

    def within(self, stage, t0, t1):
        """Durations of the stage's calls that started in [t0, t1]."""
        return [end - start for start, end in self.calls(stage, t0, t1)]

    def set_up_time(self, t0, t1):
        """Ingest plus Laplacian builds that started in [t0, t1]."""
        return sum(self.within("ingest", t0, t1) + self.within("laplacian", t0, t1))

    def steps(self, t0, t1):
        """(start, end) of every training step that started in [t0, t1]."""
        starts = [s for s, _ in self.laps["sample_batch"] if t0 <= s <= t1]
        ends = [e for s, e in self.laps["adam_step"] if t0 <= s <= t1]
        if len(starts) != len(ends):
            raise RuntimeError(f"{len(starts)} sample_batch calls but {len(ends)} "
                               "adam_step calls in one training")
        return list(zip(starts, ends))

    def evaluations(self, t0, t1):
        """(seconds, users attempted) of every evaluate call in [t0, t1]."""
        return [(end - start, n) for (start, end), n
                in zip(self.laps["evaluate"], self.attempted) if t0 <= start <= t1]


def dataset_stats(ds, g_r, g_s):
    return {"users": ds.num_users, "items": ds.num_items,
            "train_edges": len(ds.train_edges), "val_edges": len(ds.val_edges),
            "test_edges": len(ds.test_edges),
            "directed_ties": len(ds.social_edges),
            "interaction_nnz": int(g_r.matrix.nnz),
            "social_nnz": int(g_s.matrix.nnz)}


def oracle_negatives(rng, num_items, known, count):
    """A user's negative candidates as the evaluation protocol defines them.

    `count` distinct items the user never interacted with: drawn one by one
    with `rng.integers(num_items)`, skipping known and repeated items; when
    at most four times `count` items are left, the remaining items in index
    order, shuffled, first `count` of them; None when too few are left.
    """
    pool = num_items - len(known)
    if pool < count:
        return None
    if pool <= 4 * max(count, 1):
        allowed = np.array([v for v in range(num_items) if v not in known],
                           dtype=np.int64)
        rng.shuffle(allowed)
        return allowed[:count]
    picked = []
    while len(picked) < count:
        v = int(rng.integers(num_items))
        if v not in known and v not in picked:
            picked.append(v)
    return np.array(picked, dtype=np.int64)


def rank_mismatches(ms, ds, users, seed, cfg):
    """Ranks from one `evaluate_stratified` call against the full-sort oracle.

    The call ranks all sampled users together with every cutoff 1..n+1, so
    hits[r+1] - hits[r] users hold rank r. That histogram, overall and per
    degree stratum, and the skipped count must equal the oracle's, which
    redraws each user's candidates from the stream `default_rng([seed, user])`
    and sorts them fully. Returns the total count by which the
    histograms and skipped counts differ; 0 when they agree.
    """
    edges = ds.test_edges[np.isin(ds.test_edges[:, 0], users)]
    sub = dataclasses.replace(ds, test_edges=edges)
    strata = data.stratify_by_degree(sub, data.DEFAULT_STRATA)
    labels = strata.labels()
    cutoffs = tuple(range(1, cfg.negatives + 2))
    report = eval_mod.evaluate_stratified(ms, sub, strata, "test", cfg.negatives,
                                          cutoffs, seed=seed,
                                          social_fusion=cfg.social_fusion)

    def histogram(hits):
        return collections.Counter({r: hits[r + 1] - (hits[r] if r else 0)
                                    for r in range(cfg.negatives + 1)})

    got = {"all": histogram(report.hits)}
    got.update((label, histogram(s["hits"])) for label, s in report.per_stratum.items())
    want = collections.defaultdict(collections.Counter)
    skipped = 0
    splits = np.concatenate([ds.train_edges, ds.val_edges, ds.test_edges])
    for u, held in edges.tolist():
        known = set(splits[splits[:, 0] == u, 1].tolist())
        negs = oracle_negatives(np.random.default_rng([seed, u]), ds.num_items,
                                known, cfg.negatives)
        if negs is None:
            skipped += 1
            continue
        cand = np.concatenate([[held], negs])
        uvec = ms.agg_r[u] + (ms.agg_s[u] if cfg.social_fusion else 0.0)
        rank = reference_rank(ms.agg_r[ds.num_users + cand] @ uvec, cand)
        want["all"][rank] += 1
        want[labels[strata.assignment[u]]][rank] += 1
    mismatches = abs(report.skipped - skipped)
    for label in set(got) | set(want):
        diff = got.get(label, collections.Counter())
        diff.subtract(want[label])
        mismatches += sum(abs(n) for n in diff.values())
    return mismatches


def z_gap(export, group):
    """Mean learned z on intra-group ties minus cross-group ties."""
    rows = np.array([(i, j, z) for i, j, z, _ in export.rows])
    i, j, z = rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2]
    same = group[i] == group[j]
    return float(z[same].mean() - z[~same].mean())


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pace(values):
    """A call's time at the run's pace: the fastest of its times (min of N).

    On a shared host the same call runs at different speeds in spells of a
    fraction of a second to minutes; its fastest run is the one least moved
    by other tenants. Over ten-run sets the minimum spread less than a low
    quantile, the mean of the faster half or the median (README, Noise).
    """
    return min(values)


# Per-layer metric -> (reduction, span or counter names). Times are seconds
# per traced operation; "self" subtracts the time of child spans; "share"
# divides the first counter by the second. trace.overhead_share compares
# the wall time of traced and untraced operations of the same run.
LAYER_METRICS = {
    "graph.propagate.interaction_s": ("total", ["graph.propagate.interaction"]),
    "graph.propagate.social_s": ("total", ["graph.propagate.social"]),
    "graph.propagate_calls": ("count", ["graph.propagate_calls"]),
    "model.encode_self_s": ("self", ["model.encode"]),
    "model.aggregate_backward_self_s": ("self", ["model.aggregate_backward"]),
    "objective.compute_gradients_self_s": ("self", ["objective.compute_gradients"]),
    "objective.adam_step_s": ("total", ["objective.adam_step"]),
    "objective.sample_batch_s": ("total", ["objective.sample_batch"]),
    "model.load_checkpoint_s": ("total", ["model.load_checkpoint"]),
    "eval.evaluate_s": ("total", ["eval.evaluate"]),
    "eval.users_ranked": ("count", ["eval.users_ranked"]),
    "eval.candidates_scored": ("count", ["eval.candidates_scored"]),
    "data.load_edges_s": ("total", ["data.load_edges"]),
    "data.build_dataset_s": ("total", ["data.build_dataset"]),
    "graph.build_s": ("total", ["graph.build"]),
    "model.copy_params_s": ("total", ["model.copy_params"]),
    "model.save_checkpoint_s": ("total", ["model.save_checkpoint"]),
    "experiments.persist_s": ("total", ["experiments.write_lines",
                                        "model.save_checkpoint"]),
    "train.loop_self_s": ("self", ["train.train_model"]),
    "train.epochs_run": ("count", ["train.epochs_run"]),
    "objective.hinge_active_share": ("share", ["objective.hinge_active",
                                               "objective.hinge_pairs"]),
    "eval.skipped_share": ("share", ["eval.users_skipped", "eval.users_attempted"]),
}


class Run:
    """One benchmark run: a workload at one seed, traced or not."""

    def __init__(self, name, seed, work_dir, size="full"):
        self.name, self.size, self.seed, self.work_dir = name, size, seed, work_dir
        self.workload = WORKLOADS[name][size]
        self.cfg = self.workload.config.with_overrides(seed=seed)
        self.clock = Clock()
        self.tracer = Tracer()
        self.ops = []

    def execute(self, seconds, trace):
        with self.clock:
            self.set_up()
            self.measure(seconds, trace)

    def spec(self, run_name, eval_seed):
        return ExperimentSpec(config=self.cfg, interactions_path=self.paths[0],
                              social_path=self.paths[1],
                              out_dir=os.path.join(self.work_dir, "runs"),
                              run_name=run_name, eval_seed=eval_seed)

    def set_up(self):
        """Write the inputs in a child process, then set up SETUPS times as
        `socrec train` does (ingest, `build_dataset`, both Laplacians);
        the last one gives the dataset statistics and the check users."""
        input_dir = os.path.join(self.work_dir, "input")
        subprocess.run([sys.executable, GEN, "--workload", self.name, "--size",
                        self.size, "--seed", str(self.seed), "--out", input_dir],
                       check=True)
        self.paths = [os.path.join(input_dir, name) for name in
                      ("interactions.txt", "social.txt", "groups.txt")]
        self.setup_times = []
        for _ in range(SETUPS):
            ds = graphs = None  # free the previous set-up first
            tic = time.perf_counter()
            ds = experiments.load_spec_dataset(self.spec("setup", 0))
            graphs = graph.build_interaction_laplacian(ds), graph.build_social_laplacian(ds)
            self.setup_times.append(self.clock.set_up_time(tic, time.perf_counter()))
            self.clock.take_dataset()
        self.stats = dataset_stats(ds, *graphs)
        with open(self.paths[2]) as fh:
            groups = dict(line.split() for line in fh)
        self.group = np.array([int(groups[uid]) for uid in ds.user_ids])
        test_users = ds.test_edges[:, 0]
        rng = np.random.default_rng([self.seed, 3])
        self.check_users = rng.choice(test_users, size=min(CHECK_USERS, len(test_users)),
                                      replace=False)
        self.rss_after_setup_mb = peak_rss_mb()

    def measure(self, seconds, trace):
        """Closed loop: operations while the budget allows another of
        typical length. In a traced run operations alternate untraced and
        traced, so the run measures its own tracing overhead."""
        minimum = 2 if trace else 1
        start = time.perf_counter()
        cycles = []
        with capped_steps(self.workload.steps_per_epoch):
            while True:
                tic = time.perf_counter()
                k = len(self.ops)
                try:
                    op = self.operation(k, traced=trace and k % 2 == 1)
                except Exception as err:  # an operation that raises counts as failed
                    traceback.print_exc(file=sys.stderr)
                    op = {"op": k, "traced": False, "error": repr(err),
                          "failures": [f"raised {err!r}"]}
                self.ops.append(op)
                cycles.append(time.perf_counter() - tic)
                elapsed = time.perf_counter() - start
                if len(self.ops) >= minimum and elapsed + statistics.median(cycles) > seconds:
                    break

    def operation(self, k, traced):
        """run_train, the tie-weight export and rank check, then the read
        passes on the checkpoint it wrote."""
        cfg = self.cfg
        eval_seed = 1000 * self.seed  # validation and test inside run_train
        op = {"op": k, "traced": traced, "failures": []}
        self.clock.take_dataset()
        if traced:
            self.tracer.op = k
            self.tracer.install()
        try:
            tic = time.perf_counter()
            result, report, run_dir = experiments.run_train(self.spec(f"op{k}", eval_seed))
            toc = time.perf_counter()
            ds = self.clock.take_dataset()
            export = eval_mod.export_relevance_weights(result.model, ds)
            mismatches = rank_mismatches(result.model, ds, self.check_users,
                                         eval_seed, cfg)
            aborted, epochs_run = result.aborted, result.epochs_run
            del result
            passes = self.read_passes(ds, os.path.join(run_dir, "checkpoint"),
                                      eval_seed + 100 * k)
            end = time.perf_counter()
            del ds
        finally:
            if traced:
                self.tracer.restore()
                self.tracer.op = None
        (t0, t1), = self.clock.calls("train_model", tic, toc)
        windows = self.clock.steps(t0, t1)
        steps = [stop - start for start, stop in windows]
        stages = {stage: [t for start, stop in windows
                          for t in self.clock.within(stage, start, stop)]
                  for stage in STEP_STAGES}
        encodes = self.clock.within("encode", t0, t1)
        validation = self.clock.evaluations(t0, t1)
        reports = [report] + [rep for rep, _ in passes]
        op.update({
            "wall_s": toc - tic + sum(seconds for _, seconds in passes),
            "units": {**stages,
                      "encode": self.clock.within("encode", tic, end),
                      "seconds_per_user": [seconds / n for seconds, n
                                           in self.clock.evaluations(tic, end)],
                      "load_checkpoint": self.clock.within("load_checkpoint", toc, end)},
            "step_s": steps,
            "step_rest_s": sum(steps) - sum(map(sum, stages.values())),
            "encodes_outside_steps": len(encodes) - len(steps),
            "validation_users": sum(n for _, n in validation),
            "train_model_s": t1 - t0,
            "train_other_s": (t1 - t0 - sum(steps) - sum(s for s, _ in validation)
                              - (sum(encodes) - sum(stages["encode"]))),
            "setup_s": self.clock.set_up_time(tic, toc),
            "read_s": [seconds for _, seconds in passes],
            "read_users": [(rep.num_users, rep.num_users + rep.skipped)
                           for rep, _ in passes],
            "epochs_run": epochs_run,
            "test_hr10": statistics.fmean(rep.hr[HR_CUTOFF] for rep in reports),
            "test_ndcg10": statistics.fmean(rep.ndcg[HR_CUTOFF] for rep in reports),
            "z_gap": z_gap(export, self.group),
            "sha256": {name: file_sha256(os.path.join(run_dir, name))
                       for name in ("report.dat", "history.txt")},
        })
        self.check(op, aborted, mismatches)
        shutil.rmtree(run_dir)
        return op

    def read_passes(self, ds, checkpoint, seed):
        """The `socrec eval` read path `eval_passes` times, each with a
        fresh evaluation seed: load_checkpoint, encode, evaluate on test.
        Its ingest and Laplacians are the training's, so each pass is a
        short unit of its own. Returns [(report, seconds)]."""
        cfg = self.cfg
        g_r, g_s = graph.build_interaction_laplacian(ds), graph.build_social_laplacian(ds)
        passes = []
        for j in range(1, self.workload.eval_passes + 1):
            tic = time.perf_counter()
            ms = model_mod.load_checkpoint(checkpoint)
            model_mod.encode(ms, g_r, g_s, ms.num_layers or cfg.layers, cfg.agg)
            rep = eval_mod.evaluate(ms, ds, "test", cfg.negatives, cfg.cutoffs,
                                    seed=seed + j, social_fusion=cfg.social_fusion)
            passes.append((rep, time.perf_counter() - tic))
        return passes

    def check(self, op, aborted, mismatches):
        failures = op["failures"]
        if aborted:
            failures.append("training aborted on a non-finite loss")
        first = next((o for o in self.ops if "sha256" in o), op)
        if op["sha256"] != first["sha256"]:
            failures.append(f"report.dat or history.txt differs from operation "
                            f"{first['op']} of the same run")
        if mismatches:
            failures.append(f"ranks of {len(self.check_users)} test users differ "
                            f"from the full-sort oracle by {mismatches}")
        if self.workload.planted:
            chance = HR_CUTOFF / (self.cfg.negatives + 1)
            if not op["test_hr10"] > chance:
                failures.append(f"test HR@10 {op['test_hr10']:.4f} does not beat "
                                f"chance {chance:.2f}")
            if not op["z_gap"] > 0:
                failures.append(f"z_gap {op['z_gap']:.4f} is not positive")

    # -- results -------------------------------------------------------------

    def completed(self, traced):
        return [op for op in self.ops if "error" not in op and op["traced"] == traced]

    def end_to_end(self, ops):
        """End-to-end metrics over `ops`, composed from the run's units.

        Each call's time is its `pace` over the operations. `encode` is
        paced over every encode (training steps, after each epoch and in
        the read passes run the same computation) and `evaluate` per user
        attempted over every call (validation and read passes rank users
        the same way).

          step                 the STEP_STAGES at their paces, plus the
                               step's mean bookkeeping between them
          train_triples_per_s  batch / step
          train_s              train_model at the run's pace: steps x step
                               + encodes outside steps x encode + users
                               validated x time per user + the rest of
                               train_model (Laplacians, init_model,
                               snapshots) at its pace over operations
          eval_users_per_s     users ranked / read pass, where a read pass
                               is load_checkpoint + encode + users attempted
                               x time per user
          setup_s              median of the run's set-ups: ingest,
                               build_dataset and both Laplacians

        Quality is the mean over every test report of the operations.
        """
        paces = {unit: pace([t for op in ops for t in op["units"][unit]])
                 for unit in ops[0]["units"]}
        steps = sum(len(op["step_s"]) for op in ops)
        step = (sum(paces[stage] for stage in STEP_STAGES)
                + sum(op["step_rest_s"] for op in ops) / steps)
        first = ops[0]
        train_s = (len(first["step_s"]) * step
                   + first["encodes_outside_steps"] * paces["encode"]
                   + first["validation_users"] * paces["seconds_per_user"]
                   + pace([op["train_other_s"] for op in ops]))
        ranked, attempted = first["read_users"][0]
        read = (paces["load_checkpoint"] + paces["encode"]
                + attempted * paces["seconds_per_user"])
        return {
            "setup_s": statistics.median(self.setup_times + [op["setup_s"] for op in ops]),
            "train_s": train_s,
            "train_triples_per_s": self.cfg.batch / step,
            "eval_users_per_s": ranked / read,
            "peak_rss_mb": peak_rss_mb(),
            "test_hr10": statistics.fmean(op["test_hr10"] for op in ops),
            "test_ndcg10": statistics.fmean(op["test_ndcg10"] for op in ops),
            "z_gap": statistics.fmean(op["z_gap"] for op in ops),
        }

    def medians(self, ops):
        """Median and count of each timed unit, beside the paces."""
        units = {unit: [t for op in ops for t in op["units"][unit]]
                 for unit in ops[0]["units"]}
        for key in ("step_s", "read_s"):
            units[key] = [t for op in ops for t in op[key]]
        for key in ("train_model_s", "train_other_s"):
            units[key] = [op[key] for op in ops]
        return {unit: {"median": statistics.median(v) if v else None, "n": len(v)}
                for unit, v in units.items()}

    def traced_ops(self):
        return [op["op"] for op in self.completed(True)]

    def trace_names(self):
        """Span and counter names recorded during traced operations."""
        traced = set(self.traced_ops())
        return sorted(set(self.tracer.layer_times(traced))
                      | set(self.tracer.op_counts(traced)))

    def per_layer(self):
        """Per-layer metrics, per traced operation (see LAYER_METRICS)."""
        traced = self.traced_ops()
        n = len(traced)
        times = self.tracer.layer_times(set(traced))
        counts = self.tracer.op_counts(traced)
        reduce = {
            "total": lambda names: sum(times[k][0] for k in names if k in times) / n,
            "self": lambda names: sum(times[k][1] for k in names if k in times) / n,
            "count": lambda names: sum(counts[k] for k in names) / n,
            "share": lambda names: counts[names[0]] / counts[names[1]]
            if counts[names[1]] else 0.0,
        }
        out = {metric: reduce[how](names)
               for metric, (how, names) in LAYER_METRICS.items()}
        walls = {flag: statistics.median(op["wall_s"] for op in self.completed(flag))
                 for flag in (False, True)}
        out["trace.overhead_share"] = walls[True] / walls[False] - 1.0
        return out

    def computed_work(self):
        """Exact work counts from the traced operations (computed, not timed)."""
        traced = self.traced_ops()
        counts = self.tracer.op_counts(traced)
        n = len(traced)
        return {
            "label": "computed from array sizes and call counts, not measured",
            "spmm_per_call": self.tracer.computed.get("spmm", {}),
            "adam_per_step": self.tracer.computed.get("adam", {}),
            "per_operation": {key: counts[key] / n for key in (
                "objective.rec_triples", "objective.soc_triples",
                "objective.ssl_pairs", "graph.propagate_calls",
                "eval.users_ranked", "eval.candidates_scored")},
        }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
