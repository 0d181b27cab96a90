"""Summarise captured `bench/run.py` output as one JSON benchmark file.

    python tools/bench_summary.py captured.out [more.out ...] > BENCH_<tag>.json

Each input holds the standard output of one or more `bench/run.py` runs;
only their `record {...}` lines are read. Runs are grouped by workload and
then by the git SHA of the checkout that ran them, so the output of a
parent and a change, captured into one file or two, sits side by side.
Per group it writes, over the untraced (`--trace 0`) runs:

- the seeds, the run count, and the operations attempted and failed;
- median, q1 and q3 of every end-to-end metric `BENCHMARK.json` lists,
  with its unit (quartiles as `bench/compare.py` computes them);
- the distinct SHA-256 of each operation's `report.dat` and
  `history.txt`, per seed, so two groups show whether they wrote the same
  bytes;

under `traced`, over the `--trace 1` runs: their seeds, run count, failed
operations, and median, q1 and q3 of every per-layer metric
`BENCHMARK.json` lists; and for all of them the provenance: numpy/scipy/
python versions, CPU count and model, and the BLAS thread pin, which must
agree across the group's runs.
"""

import json
import pathlib
import sys
from collections import defaultdict

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))
from compare import load_records, quartiles  # noqa: E402

PROVENANCE = ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_pin",
              "blas_threads_in_effect")


def quartile_table(values, metrics):
    """{metric: median, q1, q3 and unit} over a list of {metric: value}."""
    out = {}
    for m in metrics:
        q1, median, q3 = quartiles([v[m["name"]] for v in values])
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3, "unit": m["unit"]}
    return out


def summarise(records, spec):
    """{workload: {git_sha: group summary}}: untraced runs give the
    end-to-end figures and outputs, traced runs the per-layer figures."""
    groups = defaultdict(lambda: ([], []))
    for rec in records:
        groups[rec["workload"], rec["provenance"]["git_sha"]][rec["trace"]].append(rec)
    out = defaultdict(dict)
    for (workload, sha), (untraced, traced) in groups.items():
        recs = untraced + traced
        provenance = {key: recs[0]["provenance"][key] for key in PROVENANCE}
        for rec in recs:
            if any(rec["provenance"][key] != provenance[key] for key in PROVENANCE):
                sys.exit(f"error: runs of {workload} at {sha} differ in provenance")
        group = out[workload][str(sha)] = {"provenance": provenance}
        if untraced:
            outputs = defaultdict(lambda: defaultdict(set))
            for rec in untraced:
                for op in rec["operations"]:
                    for name, digest in op.get("sha256", {}).items():
                        outputs[str(rec["seed"])][name].add(digest)
            group.update({
                "seeds": sorted(rec["seed"] for rec in untraced),
                "runs": len(untraced),
                "attempted": sum(rec["attempted"] for rec in untraced),
                "failed": sum(rec["failed"] for rec in untraced),
                "seconds": sorted({rec["seconds"] for rec in untraced}),
                "end_to_end": quartile_table([rec["end_to_end"] for rec in untraced],
                                             spec["end_to_end"]),
                "outputs_sha256": {seed: {name: sorted(d) for name, d in names.items()}
                                   for seed, names in outputs.items()},
            })
        if traced:
            group["traced"] = {
                "seeds": sorted(rec["seed"] for rec in traced),
                "runs": len(traced),
                "failed": sum(rec["failed"] for rec in traced),
                "per_layer": quartile_table([rec["per_layer"] for rec in traced],
                                            spec["per_layer"]),
            }
    return out


def main(paths):
    if not paths:
        sys.exit(__doc__)
    records = [rec for path in paths for rec in load_records(path)]
    if not records:
        sys.exit("error: no `record` lines in the input")
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    json.dump({"workloads": summarise(records, spec)}, sys.stdout, indent=1,
              sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
