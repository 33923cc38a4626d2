"""What the benchmark runs and what it reports: workloads and metrics.

This module is the single source for the names later changes cite.
``BENCHMARK.json`` at the repository root is ``benchmark_json()`` written
out, and the harness self-check asserts that the two agree.  Nothing here
imports numpy or neca, so the orchestrator and the set-up timer can load it
before either is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

LAYERS = ("dataset", "cavnet", "model", "autodiff", "training", "encoders",
          "evaluation", "cli")

# Domain sizes of the bundled datasets, as observed in the UCI files.
MU_DOMAINS = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 4, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 7)
DE_DOMAINS = (4,) * 33 + (60,)


@dataclass(frozen=True)
class Workload:
    name: str
    manifest: str                 # bundled manifest whose header gives n, m, classes
    domain_sizes: tuple[int, ...]
    class_prior: tuple[int, ...]
    alpha: float                  # Dirichlet concentration of the class profiles
    population_seed: int          # fixes the class profiles; --seed draws the sample
    missing_rate: float
    epochs: int
    seeds: tuple[int, ...]        # model seeds embedded in every pass
    why: str
    n: int | None = None          # overrides the manifest's record count


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mu-tall", manifest="mu", domain_sizes=MU_DOMAINS,
            class_prior=(4208, 3916), alpha=0.3, population_seed=3,
            missing_rate=0.01, epochs=5, seeds=(0,),
            why="8124x22 MU shape: parsing, graph build, assembly, CSV I/O, encoders "
                "and the O(n^2) silhouette dominate, training does little; the only "
                "large-memory workload",
        ),
        Workload(
            name="de-train", manifest="de", domain_sizes=DE_DOMAINS,
            class_prior=(112, 61, 72, 49, 52, 20), alpha=0.3, population_seed=2,
            missing_rate=0.0, epochs=20, seeds=(0,),
            why="366x34 DE shape with the largest realistic |V| (~185): forward, "
                "backward and Adam take about 80% of an embed at 20 epochs, "
                "n-proportional work is small",
        ),
    )
}

SMOKE_N = 48
RUN_SECONDS = 50                  # --seconds of a benchmark run (BENCHMARK.json)


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks it to a seconds-long self-check."""
    w = WORKLOADS[name]
    if smoke:
        w = replace(w, n=SMOKE_N, epochs=3, seeds=w.seeds[:2])
    return w


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                   # "lower" or "higher"
    bound: float | None = None    # end-to-end only: allowed relative worsening
    moves: str = ""               # per-layer only: the end-to-end metric it moves
    where: str = ""               # per-layer only: workloads where it is large/small


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("embed_s", "s", "lower", 0.25),
    Metric("eval_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    # 1.0 on working code; any failed operation of a run (far fewer than a
    # million are attempted) breaches this bound
    Metric("ok_ratio", "ratio", "higher", 1e-6),
    Metric("loss_final", "nats", "lower", 0.2),
    Metric("s_neca", "ratio", "higher", 0.25),
    Metric("ch_neca", "ratio", "higher", 0.25),
)

_SETUP = "setup_s"
_EMBED = "embed_s"
_EVAL = "eval_s and peak_rss_mb"
_N_BIG = "large on mu-tall, small on de-train"
_TRAIN = "large on de-train, small on mu-tall"
_GRAPH = "large on mu-tall, small on de-train"

PER_LAYER = (
    Metric("dataset.records", "count", "lower", moves=_SETUP, where=_N_BIG),
    Metric("dataset.attributes", "count", "lower", moves=_SETUP, where="largest on de-train"),
    Metric("dataset.load_csv_s", "s", "lower", moves=_SETUP, where=_N_BIG),
    Metric("dataset.impute_modes_s", "s", "lower", moves=_SETUP, where=_N_BIG),
    Metric("cavnet.build_node_set_s", "s", "lower", moves=_EMBED, where=_GRAPH),
    Metric("cavnet.build_inter_network_s", "s", "lower", moves=_EMBED, where=_GRAPH),
    Metric("cavnet.build_intra_network_s", "s", "lower", moves=_EMBED, where=_GRAPH),
    Metric("cavnet.build_hetnet_s", "s", "lower", moves=_EMBED, where=_GRAPH),
    Metric("cavnet.adjacency_s", "s", "lower", moves=_EMBED, where=_GRAPH),
    Metric("cavnet.nodes", "count", "lower", moves=_EMBED, where="largest on de-train"),
    Metric("cavnet.inter_edges", "count", "lower", moves=_EMBED, where="largest on de-train"),
    Metric("cavnet.intra_edges", "count", "lower", moves=_EMBED, where="largest on de-train"),
    Metric("cavnet.inter_density", "ratio", "lower", moves=_EMBED,
           where="about 0.9 on mu-tall, about 0.8 on de-train"),
    Metric("training.forward_ms", "ms", "lower", moves=_EMBED, where=_TRAIN),
    Metric("autodiff.backward_ms", "ms", "lower", moves=_EMBED, where=_TRAIN),
    Metric("training.adam_ms", "ms", "lower", moves=_EMBED, where=_TRAIN),
    Metric("training.epoch_ms", "ms", "lower", moves=_EMBED, where=_TRAIN),
    Metric("training.epochs_run", "count", "lower", moves=_EMBED, where=_TRAIN),
    Metric("autodiff.tape_nodes", "count", "lower", moves=_EMBED,
           where=_TRAIN),
    Metric("autodiff.tape_mb", "MiB", "lower", moves="embed_s and peak_rss_mb",
           where="large on de-train and mu-tall"),
    Metric("model.compute_table_s", "s", "lower", moves=_EMBED, where=_N_BIG),
    Metric("model.assemble_objects_s", "s", "lower", moves=_EMBED, where=_N_BIG),
    Metric("cli.write_embedding_s", "s", "lower", moves=_EMBED, where=_N_BIG),
    Metric("cli.embedding_mb", "MiB", "lower", moves=_EMBED, where=_N_BIG),
    Metric("cli.read_embedding_s", "s", "lower", moves=_EVAL, where=_N_BIG),
    Metric("encoders.onehot_s", "s", "lower", moves=_EVAL, where=_N_BIG),
    Metric("encoders.frequency_s", "s", "lower", moves=_EVAL, where=_N_BIG),
    Metric("evaluation.ch_s", "s", "lower", moves=_EVAL, where=_N_BIG),
    Metric("evaluation.silhouette_s", "s", "lower", moves=_EVAL, where=_N_BIG),
    Metric("evaluation.silhouette_alloc_mb", "MiB", "lower", moves=_EVAL, where=_N_BIG),
) + tuple(
    Metric(f"{layer}.self_s", "s", "lower", moves="embed_s or eval_s",
           where="time spent in the layer's own code, children excluded")
    for layer in LAYERS
) + (
    Metric("trace.untraced_s", "s", "lower", moves="embed_s and eval_s",
           where="flow time of one untraced pass"),
    Metric("trace.unattributed_s", "s", "lower", moves="embed_s and eval_s",
           where="untraced flow time not covered by any layer's self time"),
    Metric("trace.overhead_pct", "%", "lower", moves="none; tracing cost",
           where="spans in one traced pass times the measured cost of one span, "
                 "over the untraced flow time"),
    Metric("trace.spans", "count", "lower", moves="none; tracing cost",
           where="spans recorded in one traced pass"),
)


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
