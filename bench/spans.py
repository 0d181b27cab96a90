"""Span tracer for socrec's layer boundaries.

The tracer patches the module-level names through which `train.py`,
`model.py`, `objective.py` and `experiments.py` call into other layers,
the `eval` and `model` names the benchmark's read passes call, and two
`ModelState` methods, so every call records a span: name,
start, end, parent span and the operation it belongs to. Nothing under
`src/` changes; `restore` puts the original names back.
"""

import collections
import functools
import importlib
import inspect
import time

import numpy as np

# (module, attribute, span name). A name ending in "." gets the graph view
# appended, so interaction and social propagation are told apart.
PATCHES = (
    ("socrec.data", "load_edges", "data.load_edges"),
    ("socrec.data", "build_dataset", "data.build_dataset"),
    ("socrec.graph", "build_interaction_laplacian", "graph.build"),
    ("socrec.graph", "build_social_laplacian", "graph.build"),
    ("socrec.eval", "export_relevance_weights", "eval.export_relevance_weights"),
    ("socrec.eval", "evaluate", "eval.evaluate"),  # the read passes
    ("socrec.model", "load_checkpoint", "model.load_checkpoint"),
    ("socrec.experiments", "load_edges", "data.load_edges"),
    ("socrec.experiments", "build_dataset", "data.build_dataset"),
    ("socrec.experiments", "stratify_by_degree", "data.stratify_by_degree"),
    ("socrec.experiments", "train_model", "train.train_model"),
    ("socrec.experiments", "evaluate_stratified", "eval.evaluate"),
    ("socrec.experiments", "save_checkpoint", "model.save_checkpoint"),
    ("socrec.experiments", "write_lines", "experiments.write_lines"),
    ("socrec.train", "build_interaction_laplacian", "graph.build"),
    ("socrec.train", "build_social_laplacian", "graph.build"),
    ("socrec.train", "init_model", "model.init_model"),
    ("socrec.train", "encode", "model.encode"),
    ("socrec.train", "sample_batch", "objective.sample_batch"),
    ("socrec.train", "joint_loss", "objective.joint_loss"),
    ("socrec.train", "compute_gradients", "objective.compute_gradients"),
    ("socrec.train", "adam_step", "objective.adam_step"),
    ("socrec.train", "evaluate", "eval.evaluate"),
    ("socrec.model", "encode", "model.encode"),  # the read passes
    ("socrec.model", "propagate", "graph.propagate."),
    ("socrec.model.ModelState", "copy_params", "model.copy_params"),
    ("socrec.model.ModelState", "set_params", "model.set_params"),
    ("socrec.objective", "aggregate_backward", "model.aggregate_backward"),
    ("socrec.objective", "ssl_hinge_loss", "objective.ssl_hinge_loss"),
)


def _resolve(path):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.counts = collections.defaultdict(collections.Counter)  # op -> counts
        self.computed = {}
        self.op = None
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrapper(self, fn, name):
        signature = inspect.signature(fn)
        count = _COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name + args[0].view if name.endswith(".") else name
            tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer, bound.arguments, result)
            return result

        return traced

    def install(self):
        for owner_path, attr, name in PATCHES:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def layer_times(self, ops):
        """name -> (total seconds, self seconds), over spans of `ops`.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        child_time = collections.defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = collections.defaultdict(lambda: [0.0, 0.0])
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child_time[k]
        return {name: tuple(row) for name, row in out.items()}

    def op_counts(self, ops):
        total = collections.Counter()
        for op in ops:
            total.update(self.counts[op])
        return total


# -- counters: called after a span closes, outside its timing ---------------

def _count_batch(tracer, args, batch):
    counts = tracer.counts[tracer.op]
    counts["objective.rec_triples"] += len(batch.rec_triples)
    counts["objective.soc_triples"] += len(batch.soc_triples)
    counts["objective.ssl_pairs"] += len(batch.ssl_pairs)


def _count_hinge(tracer, args, loss):
    z, zhat = np.asarray(args["z"]), np.asarray(args["zhat"])
    counts = tracer.counts[tracer.op]
    counts["objective.hinge_pairs"] += z.size
    counts["objective.hinge_active"] += int((1.0 - z * zhat > 0).sum())


def _count_eval(tracer, args, report):
    negatives = args["num_negatives"]
    counts = tracer.counts[tracer.op]
    counts["eval.users_ranked"] += report.num_users
    counts["eval.users_skipped"] += report.skipped
    counts["eval.users_attempted"] += report.num_users + report.skipped
    counts["eval.candidates_scored"] += report.num_users * (negatives + 1)


def _count_propagate(tracer, args, out):
    g, E = args["g"], np.asarray(args["E"])
    tracer.counts[tracer.op]["graph.propagate_calls"] += 1
    spmm = tracer.computed.setdefault("spmm", {})
    if g.view not in spmm:
        spmm[g.view] = spmm_work(g.matrix, E)


def _count_training(tracer, args, result):
    tracer.counts[tracer.op]["train.epochs_run"] += result.epochs_run


def _count_adam(tracer, args, ms):
    if "adam" not in tracer.computed:
        tracer.computed["adam"] = adam_work(args["ms"])


_COUNTERS = {
    "objective.sample_batch": _count_batch,
    "objective.ssl_hinge_loss": _count_hinge,
    "eval.evaluate": _count_eval,
    "graph.propagate.": _count_propagate,
    "objective.adam_step": _count_adam,
    "train.train_model": _count_training,
}


def spmm_work(matrix, E):
    """Computed work of one `A @ E + E` call (A in CSR, E dense).

    flops: one multiply and one add per stored entry and column, plus the
    self-loop add. bytes: CSR arrays read once, E read twice (product and
    self-loop), the product written and read once, the result written;
    a lower bound that ignores cache misses.
    """
    n, d = E.shape
    item = E.dtype.itemsize
    csr = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return {"nnz": int(matrix.nnz), "rows": int(n), "dim": int(d),
            "flops": int(2 * matrix.nnz * d + n * d),
            "bytes": int(csr + 5 * n * d * item)}


def adam_work(ms):
    """Computed bytes one Adam step must touch: read param, grad, m, v and
    write param, m, v, for every parameter value."""
    copy_params = type(ms).copy_params
    params = getattr(copy_params, "__wrapped__", copy_params)(ms)  # untraced
    values = sum(p.size for p in params.values())
    item = next(iter(params.values())).dtype.itemsize
    return {"parameters": int(values), "bytes": int(7 * values * item)}
