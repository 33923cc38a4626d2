"""The user's flow through neca's public functions, timed and checked.

One pass loads and imputes the generated CSV, then embeds it once per model
seed of the workload the way ``neca embed`` does (graph, training,
``compute_table``, embedding CSV and metadata JSON).  After each embed come
evaluation rounds.  A round reads that embedding back, and scores it and the
two baseline encodings with CH and silhouette against the planted classes.
An untraced pass repeats rounds until they have taken a quarter of the
embed's time, so the short evaluations of small tables get as many samples
as the long ones get time, and the samples are spread over the whole run
rather than bunched at its end.

Every call is one operation of the run.  An operation fails when it raises
or when its output fails a check; ``failed / attempted`` is the run's fail
ratio.  Checks run outside the timed segments.

With tracing on, the same calls run with the library's internal steps
spanned (``train`` splits into ``forward_loss``, ``autodiff.backward`` and
``adam_step`` per epoch, then ``compute_table``).  A traced embed must
reproduce the untraced embed of its seed, loss history, object vectors and
file bytes, bit for bit; a mismatch is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from neca.cli import RunConfig, read_embedding, run_pipeline, write_embedding
from neca.dataset import DatasetManifest, impute_modes, load_csv
from neca.encoders import encode_frequency, encode_onehot
from neca.evaluation import LabeledEmbedding, calinski_harabasz, silhouette

import spec
from tracer import NullTracer, Tracer

# What ``neca embed data.csv --label class`` builds for a CSV with a header.
MANIFEST = DatasetManifest(name="data", label_column="class")
MiB = float(1 << 20)
EVAL_SHARE = 0.25       # evaluation time after each embed, relative to the embed's time

# per-layer metric -> span whose durations it sums over one traced pass
SPAN_TOTALS = {
    "dataset.load_csv_s": "dataset.load_csv",
    "dataset.impute_modes_s": "dataset.impute_modes",
    "cavnet.build_node_set_s": "cavnet.build_node_set",
    "cavnet.build_inter_network_s": "cavnet.build_inter_network",
    "cavnet.build_intra_network_s": "cavnet.build_intra_network",
    "cavnet.build_hetnet_s": "cavnet.build_hetnet",
    "model.compute_table_s": "model.compute_table",
    "model.assemble_objects_s": "model.assemble_objects",
    "cli.write_embedding_s": "cli.write_embedding",
    "cli.read_embedding_s": "cli.read_embedding",
    "encoders.onehot_s": "encoders.encode_onehot",
    "encoders.frequency_s": "encoders.encode_frequency",
    "evaluation.ch_s": "evaluation.calinski_harabasz",
    "evaluation.silhouette_s": "evaluation.silhouette",
}
# per-layer metric -> span whose per-epoch median it reports, in ms
EPOCH_MEDIANS = {
    "training.forward_ms": "training.forward_loss",
    "autodiff.backward_ms": "autodiff.backward",
    "training.adam_ms": "training.adam_step",
}


class OpFailed(Exception):
    """An operation raised; the operations that need its output are skipped."""


class Ledger:
    """Counts operations and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, tracer, name, fn, *args, **kwargs):
        """Run one operation inside span ``name``; return (value, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = tracer.call(name, fn, *args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        return value, time.perf_counter() - start

    def check(self, name, problems) -> None:
        """Record the operation's output problems (at most one failure per call)."""
        problems = [p for p in problems if p]
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _index_problems(name, value, lo, hi):
    if not (isinstance(value, float) and math.isfinite(value) and lo <= value <= hi):
        return f"{name} = {value!r} outside [{lo}, {hi}]"
    return None


@dataclass
class PassResult:
    flow_s: float = 0.0                 # time inside the timed segments
    embed_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)   # one per evaluation round


def _enough(start: float, last: float, seconds: float) -> bool:
    """True when one more repetition as long as the last would end after ``seconds``.

    So a run never starts a repetition it cannot finish in time, and the
    number of samples does not flip with small changes in speed when a
    repetition is a large share of ``seconds``.
    """
    return time.perf_counter() - start + last >= seconds


class WorkloadRun:
    """State of one workload run: inputs, the ledger and what passes found."""

    def __init__(self, workload: spec.Workload, csv: Path, n: int, work: Path):
        self.w = workload
        self.csv = csv
        self.n = n
        self.config = RunConfig(epochs=workload.epochs)
        self.ledger = Ledger()
        self.work = work
        self.first: dict[int, tuple[str, str, str]] = {}   # seed -> digests of its first embed
        self.repeated = False                              # some seed embedded twice
        self.sizes: dict[str, float] = {}                 # graph and file sizes at seed 0
        self.loss_final = None                             # last training loss at seed 0
        self.scores: dict[str, tuple[float, float]] = {}   # method -> first (CH, S)
        self.neca0 = None                                  # seed-0 embedding, read back
        self.cad = None

    # -- one pass ---------------------------------------------------------

    def path(self, seed):
        return self.work / f"embedding-seed{seed}.csv"

    def run_pass(self, tr, rounds=None) -> PassResult:
        """One pass; after each embed ``rounds`` evaluation rounds, or if None
        as many as fit in EVAL_SHARE of the embed's time (at least one)."""
        result = PassResult()
        L = self.ledger
        cad, t_load = L.op(tr, "dataset.load_csv", load_csv, self.csv, MANIFEST)
        cad, t_impute = L.op(tr, "dataset.impute_modes", impute_modes, cad,
                             MANIFEST.missing_token)
        L.check("dataset", self._cad_problems(cad))
        self.cad = cad
        for seed in self.w.seeds:
            try:
                t_embed, table = self.embed(tr, cad, seed)
            except OpFailed:
                continue
            result.embed_s.append(t_embed)
            start, done = time.perf_counter(), 0
            while True:
                result.eval_s.append(self._eval_round(tr, cad, table, seed))
                done += 1
                if (done >= rounds) if rounds else (
                        time.perf_counter() - start >= EVAL_SHARE * t_embed):
                    break
        result.flow_s = t_load + t_impute + sum(result.embed_s) + sum(result.eval_s)
        return result

    def _eval_round(self, tr, cad, table, seed):
        try:
            total = self._eval_neca(tr, cad, table, seed)
        except OpFailed:
            total = 0.0
        return total + self._eval_baselines(tr, cad)

    def _cad_problems(self, cad):
        return [
            cad.n != self.n and f"{cad.n} records, expected {self.n}",
            cad.m != len(self.w.domain_sizes) and f"{cad.m} attributes",
            cad.labels is None and "no labels",
            any(MANIFEST.missing_token in d for d in cad.domains) and "missing token left",
        ]

    def embed(self, tr, cad, seed):
        """What ``neca embed`` does after loading; returns (seconds, table)."""
        L = self.ledger
        start = time.perf_counter()
        (net, _, table, report), _ = L.op(tr, "cli.run_pipeline", run_pipeline,
                                           cad, self.config, seed=seed)
        history = report.loss_history
        path = self.path(seed)
        L.op(tr, "cli.write_embedding", write_embedding, path, table.objects)
        L.op(tr, "bench.write_meta", self._write_meta, path.with_suffix(".meta.json"),
             cad, net, seed, history)
        elapsed = time.perf_counter() - start

        sizes = self._graph_counts(cad, net)
        sizes["cli.embedding_mb"] = path.stat().st_size / MiB
        for name, value in sizes.items():
            tr.count(name, value)
        tr.count("training.epochs_run", len(history))
        if seed == self.w.seeds[0]:
            self.sizes = self.sizes or sizes
            if self.loss_final is None:
                self.loss_final = history[-1]
        self.repeated |= seed in self.first
        L.check(f"embed seed {seed}", self._embed_problems(cad, seed, history, table))
        return elapsed, table

    def _write_meta(self, meta_path, cad, net, seed, history):
        meta = {
            "dataset": {"n": cad.n, "m": cad.m, "num_cav_nodes": net.node_set.total,
                        "inter_edges": len(net.inter), "intra_edges": len(net.intra)},
            "config": asdict(self.config),
            "seeds": {"graph": net.rng_seed, "model": seed},
            "loss_history": history,
            "epochs_run": len(history),
        }
        meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def _graph_counts(cad, net):
        sizes = np.array([len(d) for d in cad.domains], dtype=np.float64)
        cross_pairs = (sizes.sum() ** 2 - (sizes ** 2).sum()) / 2.0
        return {"cavnet.nodes": net.node_set.total, "cavnet.inter_edges": len(net.inter),
                "cavnet.intra_edges": len(net.intra),
                "cavnet.inter_density": len(net.inter) / cross_pairs}

    def _embed_problems(self, cad, seed, history, table):
        objects = table.objects
        width = cad.m * self.config.heads * self.config.head_dim
        problems = [
            objects.shape != (cad.n, width) and f"objects shape {objects.shape}",
            not np.all(np.isfinite(objects)) and "non-finite object vector",
            not all(math.isfinite(x) for x in history) and "non-finite loss",
            not history[-1] < history[0]
            and f"final loss {history[-1]!r} not below first {history[0]!r}",
        ]
        digests = (_sha(np.asarray(history, dtype=np.float64).tobytes()),
                   _sha(objects.tobytes()), _file_sha(self.path(seed)))
        reference = self.first.setdefault(seed, digests)
        for what, mine, ref in zip(("loss history", "object vectors", "embedding file"),
                                   digests, reference):
            if mine != ref:
                problems.append(f"{what} differ from the first embed of seed {seed}")
        return problems

    def _score(self, tr, name, vectors, labels):
        """CH and silhouette of one embedding; returns (seconds, ch, s, embedding)."""
        L = self.ledger
        emb, t_wrap = L.op(tr, "evaluation.labeled_embedding", LabeledEmbedding, vectors, labels)
        ch, t_ch = L.op(tr, "evaluation.calinski_harabasz", calinski_harabasz, emb)
        s, t_s = L.op(tr, "evaluation.silhouette", silhouette, emb)
        L.check(f"scores of {name}", [_index_problems("ch", ch, 0.0, math.inf),
                                      _index_problems("s", s, -1.0, 1.0)])
        return t_wrap + t_ch + t_s, ch, s, emb

    def _eval_neca(self, tr, cad, table, seed):
        L = self.ledger
        vectors, t_read = L.op(tr, "cli.read_embedding", read_embedding, self.path(seed))
        L.check("cli.read_embedding", [
            (vectors.shape != table.objects.shape
             or vectors.tobytes() != table.objects.tobytes())
            and "embedding read back differs from the matrix written"])
        t_score, ch, s, emb = self._score(tr, f"neca seed {seed}", vectors, cad.labels)
        if seed == self.w.seeds[0] and self.neca0 is None:
            self.scores["neca"] = (ch, s)
            self.neca0 = emb
        return t_read + t_score

    def _eval_baselines(self, tr, cad):
        L = self.ledger
        total = 0.0
        nodes = sum(len(d) for d in cad.domains)
        for name, encoder in (("encoders.encode_onehot", encode_onehot),
                              ("encoders.encode_frequency", encode_frequency)):
            try:
                encoded, t_enc = L.op(tr, name, encoder, cad)
                v = encoded.vectors
                if encoder is encode_onehot:
                    problems = [v.shape != (cad.n, nodes) and f"shape {v.shape}",
                                not np.array_equal(v.sum(axis=1), np.full(cad.n, float(cad.m)))
                                and "a row does not hold one indicator per attribute"]
                else:
                    problems = [v.shape != (cad.n, cad.m) and f"shape {v.shape}",
                                not (np.all(np.isfinite(v)) and np.all(v >= 0))
                                and "negative or non-finite frequency code"]
                L.check(name, problems)
                t_score, ch, s, _ = self._score(tr, encoded.method, v, cad.labels)
                self.scores.setdefault(encoded.method, (ch, s))
            except OpFailed:
                continue
            total += t_enc + t_score
        return total

    # -- whole runs ---------------------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        """Passes until about ``seconds`` have gone by; end-to-end metrics."""
        null = NullTracer()
        embed_s, eval_s = [], []
        start = time.perf_counter()
        while True:
            try:
                result = self.run_pass(null)
            except OpFailed:
                break
            embed_s += result.embed_s
            eval_s += result.eval_s
            if _enough(start, result.flow_s, seconds):
                break
        if self.cad is not None and not self.repeated:
            # every run embeds some seed twice, to check that embeds reproduce
            try:
                embed_s.append(self.embed(null, self.cad, self.w.seeds[0])[0])
            except OpFailed:
                pass
        metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        # One sample's speed varies up to 1.5x from the next on a shared host,
        # with no floor that a few samples reliably reach, so the fastest
        # sample is not a steady figure: over ten de-train seeds its quartile
        # spread was 8% for embed_s and 17% for eval_s, against 8% and 12%
        # for the median of the run's samples.
        if embed_s:
            metrics["embed_s"] = statistics.median(embed_s)
        if eval_s:
            metrics["eval_s"] = statistics.median(eval_s)
        if self.loss_final is not None:
            metrics["loss_final"] = self.loss_final
        # Quality is taken relative to the one-hot baseline on the same table:
        # on small tables the absolute indices vary 10-30% from one input seed
        # to the next, their ratio to one-hot's about 2-5%.
        if "neca" in self.scores and "onehot" in self.scores:
            (ch, s), (ch_onehot, s_onehot) = self.scores["neca"], self.scores["onehot"]
            metrics.update(s_neca=s / s_onehot, ch_neca=ch / ch_onehot)
        return {"metrics": metrics, "sizes": self.sizes, "scores": self.scores,
                "samples": {"embed_s": embed_s, "eval_s": eval_s}}

    def run_traced(self, seconds: float, trace_path: Path) -> dict:
        """Pairs of an untraced and a traced pass until ``seconds`` have gone by.

        Both passes of a pair run one evaluation round after each embed, so they
        do the same work.
        """
        tr = Tracer()
        tr.on_return["training.forward_loss"] = _count_tape
        null = NullTracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            try:
                plain = self.run_pass(null, rounds=1)
                with tr.nested_calls(), tr.traced_pass(len(traced)):
                    spanned = self.run_pass(tr, rounds=1)
            except OpFailed:
                break
            untraced.append(plain.flow_s)
            traced.append(spanned.flow_s)
            if _enough(start, plain.flow_s + spanned.flow_s, seconds):
                break
        metrics = self._counts(tr)
        if traced:
            metrics.update(self._layer_metrics(tr, untraced, traced))
        if self.neca0 is not None:
            try:
                metrics["evaluation.silhouette_alloc_mb"] = self._silhouette_alloc()
            except OpFailed:
                pass
        tr.write(trace_path)
        return {"metrics": metrics, "sizes": self.sizes, "scores": self.scores,
                "samples": {"untraced_s": untraced, "traced_s": traced}}

    def _layer_metrics(self, tr, untraced, traced):
        passes = range(len(traced))
        durations = [tr.durations(p) for p in passes]
        layer_self = [tr.self_times(p) for p in passes]
        span_self = [tr.self_times(p, key=lambda name: name) for p in passes]
        med = statistics.median
        out = {metric: med(sum(d.get(span, [])) for d in durations)
               for metric, span in SPAN_TOTALS.items()}
        for metric, span in EPOCH_MEDIANS.items():
            samples = [x for d in durations for x in d.get(span, [])]
            out[metric] = 1e3 * med(samples) if samples else 0.0
        # an epoch runs from one forward_loss start to the next within a train call
        epochs = [x for p in passes for x in tr.start_gaps(p, "training.forward_loss")]
        out["training.epoch_ms"] = 1e3 * med(epochs) if epochs else 0.0
        out["cavnet.adjacency_s"] = med(s.get("cavnet.build_hetnet", 0.0) for s in span_self)
        for layer in spec.LAYERS:
            out[f"{layer}.self_s"] = med(s.get(layer, 0.0) for s in layer_self)
        out["trace.untraced_s"] = med(untraced)
        out["trace.unattributed_s"] = med(
            u - sum(s.get(layer, 0.0) for layer in spec.LAYERS)
            for u, s in zip(untraced, layer_self))
        # Timed against each other, a traced and an untraced pass differ by the
        # host's pass-to-pass noise (10-20%), which hides a cost of about 1%; so
        # the overhead is the pass's span count times the measured cost of one span.
        out["trace.spans"] = sum(1 for s in tr.spans if s[3] == 0)
        out["trace.overhead_pct"] = 100.0 * out["trace.spans"] * tr.span_cost() / med(untraced)
        return out

    def _counts(self, tr):
        """The first value of each count recorded at a span boundary."""
        out = {}
        for _, name, value in tr.counts:
            out.setdefault(name, value)
        return out

    def _silhouette_alloc(self):
        """Peak bytes allocated during one silhouette call on the seed-0 embedding."""
        tracemalloc.start()
        try:
            s, _ = self.ledger.op(NullTracer(), "evaluation.silhouette", silhouette, self.neca0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.ledger.check("evaluation.silhouette", [
            s != self.scores["neca"][1] and "silhouette differs between identical calls"])
        return peak / MiB


def _count_tape(tr, forward):
    """Count the tape of the loss ``forward_loss`` returned (its first call only)."""
    nodes, nbytes = tape_size(forward[0])
    tr.count("autodiff.tape_nodes", nodes)
    tr.count("autodiff.tape_mb", nbytes / MiB)


def tape_size(root) -> tuple[int, int]:
    """Nodes on the autodiff tape reachable from ``root``, and their value bytes."""
    seen = set()
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.value.nbytes
        stack.extend(getattr(node, "parents", ()))
    return len(seen), nbytes
