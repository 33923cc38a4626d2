"""Command line entry point wiring the full pipeline.

Subcommands: fetch, embed, encode, eval, compare, export-graph.  Exit codes:
0 success, 1 runtime failure, 2 usage error.  Configuration precedence is
command-line flags over config file over defaults; the run-metadata file
written next to every embedding holds every config value and seed needed to
reproduce the run bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import urllib.error
import urllib.request
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from importlib import resources
from itertools import islice
from pathlib import Path

import numpy as np

from .cavnet import build_hetnet, export_edge_list
from .dataset import CAD, DatasetError, DatasetManifest, impute_modes, load_csv
from .encoders import encode_frequency, encode_onehot
from .evaluation import INDICES, LabeledEmbedding, evaluate_all
from .model import NecaConfig
from .training import TrainConfig, train

BUNDLED = ("bc", "ce", "de", "ly", "ma", "mu", "pt", "sb", "sh", "wi", "zo")
_CHUNK_ROWS = 128       # embedding CSV rows formatted or parsed at a time
_TOKEN_CACHE = 1 << 16  # parsed tokens kept across chunks by read_embedding


class StageError(Exception):
    """Runtime failure attributed to a pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class FetchError(StageError):
    def __init__(self, message: str, retriable: bool = False):
        super().__init__("fetch", message)
        self.retriable = retriable


@dataclass
class RunConfig:
    """Merged view of model, training and graph parameters."""

    heads: int = 8
    head_dim: int = 8
    fusion_dim: int = 16
    leaky_slope: float = 0.2
    elu_alpha: float = 1.0
    self_loop: bool = False
    share_projections: bool = False
    beta_connect: float = 0.01
    seed: int = 0
    lr: float = 0.005
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 200
    tol: float = 1e-5
    sigma: float = 1.0
    clamp_eps: float = 1e-7

    def model_config(self, seed: int | None = None) -> NecaConfig:
        return NecaConfig(
            heads=self.heads, head_dim=self.head_dim, fusion_dim=self.fusion_dim,
            leaky_slope=self.leaky_slope, elu_alpha=self.elu_alpha,
            include_self_loop=self.self_loop, share_projections=self.share_projections,
            seed=self.seed if seed is None else seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.lr, adam_beta1=self.adam_beta1,
            adam_beta2=self.adam_beta2, adam_epsilon=self.adam_eps,
            max_epochs=self.epochs, rel_tol=self.tol, kernel_sigma=self.sigma,
            clamp_eps=self.clamp_eps,
        )

    @classmethod
    def from_sources(cls, file_entries: dict[str, str], overrides: dict) -> "RunConfig":
        values = {}
        types = {f.name: f.type for f in fields(cls)}
        casts = {"int": int, "float": float, "bool": lambda s: str(s).lower() == "true"}
        for key, raw in file_entries.items():
            if key not in types:
                raise DatasetError(f"unknown config key {key!r}")
            values[key] = casts[types[key]](raw)
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
        return cls(**values)


def cache_dir() -> Path:
    override = os.environ.get("NECA_CACHE")
    return Path(override) if override else Path.home() / ".cache" / "neca"


def bundled_manifest(name: str) -> DatasetManifest:
    ref = resources.files("neca.manifests") / f"{name.lower()}.manifest"
    with resources.as_file(ref) as path:
        return DatasetManifest.from_file(path)


def resolve_manifest(args) -> DatasetManifest:
    if getattr(args, "manifest", None):
        return DatasetManifest.from_file(args.manifest)
    name = str(args.dataset)
    if name.lower() in BUNDLED and not Path(name).exists():
        return bundled_manifest(name)
    columns = tuple(args.columns.split(",")) if getattr(args, "columns", None) else None
    return DatasetManifest(
        name=Path(name).stem,
        label_column=getattr(args, "label", None),
        drop_columns=tuple(args.drop.split(",")) if getattr(args, "drop", None) else (),
        missing_token=getattr(args, "missing", "?"),
        has_header=not getattr(args, "no_header", False),
        column_names=columns,
    )


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fetch_dataset(manifest: DatasetManifest, cache: Path | None = None,
                  mirror: Path | None = None, quiet: bool = False) -> Path:
    """Return a verified local copy, downloading or copying only on cache miss.

    A new copy is written beside the cache file and verified before it
    replaces it, so a failed or mismatched fetch leaves nothing cached.
    """
    cache = cache or cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"{manifest.name.lower()}.data"

    def verify(path: Path, origin) -> Path:
        digest = sha256_of(path)
        if manifest.checksum and digest != manifest.checksum:
            raise FetchError(
                f"checksum mismatch for {origin}: expected {manifest.checksum}, got {digest}")
        if not manifest.checksum and not quiet:
            print(f"note: {manifest.name} checksum unpinned; sha256 {digest}", file=sys.stderr)
        return path

    if target.exists():
        return verify(target, target)
    if mirror is None and os.environ.get("NECA_MIRROR"):
        mirror = Path(os.environ["NECA_MIRROR"])
    origin = mirror / f"{manifest.name.lower()}.data" if mirror is not None else None
    if origin is not None and origin.exists():
        data = origin.read_bytes()
    elif not manifest.source_url:
        raise FetchError(f"no source_url for dataset {manifest.name!r} and no mirror copy")
    else:
        try:
            with urllib.request.urlopen(manifest.source_url, timeout=60) as resp:
                data = resp.read()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise FetchError(f"download failed for {manifest.source_url}: {exc}",
                             retriable=True) from exc
        origin = manifest.source_url
    with _replacing(target, binary=True) as fh:
        fh.write(data)
        fh.flush()
        verify(Path(fh.name), origin)
    return target


def resolve_dataset(args) -> tuple[CAD, DatasetManifest, str]:
    """Turn a path-or-bundled-name argument into a loaded, imputed CAD."""
    manifest = resolve_manifest(args)
    name = str(args.dataset)
    if Path(name).exists():
        path = Path(name)
    elif name.lower() in BUNDLED or getattr(args, "manifest", None):
        path = fetch_dataset(manifest,
                             mirror=Path(args.mirror) if getattr(args, "mirror", None) else None)
    else:
        raise StageError("dataset", f"{name!r} is neither a file nor a bundled dataset name")
    cad = load_csv(path, manifest)
    cad = impute_modes(cad, manifest.missing_token)
    return cad, manifest, str(path)


@contextmanager
def _replacing(path, binary: bool = False):
    """Handle on a temp file beside ``path`` that replaces ``path`` on success.

    The handle is text unless ``binary``.  On any failure the temp file is
    removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _format_rows(block: np.ndarray, first_id: int) -> str:
    """CSV lines of ``block``, formatting each distinct float64 bit pattern once.

    The key is the bit pattern, not the value: 0.0 == -0.0 but the two print
    differently, and nan != nan.
    """
    bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
    tokens = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    rows = tokens[inverse].reshape(block.shape).tolist()
    return "".join(f"{i},{','.join(row)}\n" for i, row in enumerate(rows, first_id))


def write_embedding(path, matrix: np.ndarray) -> None:
    """CSV with an object_id column; repr floats round-trip exactly.

    Rows go out in chunks of ``_CHUNK_ROWS``, and the file replaces ``path``
    only once it is complete.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    with _replacing(path) as fh:
        fh.write("object_id," + ",".join(f"dim_{k}" for k in range(matrix.shape[1])) + "\n")
        for lo in range(0, matrix.shape[0], _CHUNK_ROWS):
            fh.write(_format_rows(matrix[lo:lo + _CHUNK_ROWS], lo))


def _parse_tokens(tokens: list[str], cache: dict[str, float]) -> np.ndarray:
    """Float64 array of ``tokens``, calling ``float`` only on tokens not in ``cache``.

    A token that is not a number raises ``ValueError(token)``.
    """
    try:
        return np.fromiter(map(cache.__getitem__, tokens), np.float64, len(tokens))
    except KeyError:
        pass
    if len(cache) > _TOKEN_CACHE:
        cache.clear()
    for token in set(tokens).difference(cache):
        try:
            cache[token] = float(token)
        except ValueError:
            raise ValueError(token) from None
    return np.fromiter(map(cache.__getitem__, tokens), np.float64, len(tokens))


def read_embedding(path) -> np.ndarray:
    """The matrix ``write_embedding`` wrote, bit for bit (NaN payloads aside).

    ``float`` runs once per distinct token.  A row whose width differs from
    the header's, or a token that is not a number, raises a ``StageError``
    naming the path and the 1-based line.
    """
    cache: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "object_id":
            raise StageError("eval", f"{path} is not an embedding file")
        width = len(header) - 1
        blocks = [np.empty((0, width))]
        lineno = 1
        while lines := list(islice(fh, _CHUNK_ROWS)):
            numbered = [(k, line.strip()) for k, line in enumerate(lines, lineno + 1)
                        if not line.isspace()]
            lineno += len(lines)
            for k, line in numbered:
                if line.count(",") != width:
                    raise StageError("eval", f"{path}, line {k}: {line.count(',')} values, "
                                             f"header has {width}")
            tokens = ",".join(line for _, line in numbered).split(",")
            del tokens[::width + 1]   # the object_id column
            try:
                block = _parse_tokens(tokens, cache)
            except ValueError as exc:
                token = exc.args[0]
                k = numbered[tokens.index(token) // width][0]
                raise StageError("eval", f"{path}, line {k}: {token!r} is not a number") \
                    from None
            blocks.append(block.reshape(len(numbered), width))
    return np.concatenate(blocks)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def run_pipeline(cad: CAD, config: RunConfig, seed: int | None = None,
                 log_fn=None):
    """graph -> training -> assembled object vectors, for one seed."""
    seed = config.seed if seed is None else seed
    net = _stage("graph", build_hetnet, cad, beta=config.beta_connect, seed=seed)
    params, table, report = _stage(
        "training", train, cad, net,
        config.model_config(seed=seed), config.train_config(), log_fn)
    return net, params, table, report


def cmd_embed(args) -> int:
    config = load_run_config(args)
    cad, manifest, source = _stage("dataset", resolve_dataset, args)
    log_fn = None
    if args.verbose:
        log_fn = lambda epoch, loss, bi, ba: print(
            f"epoch={epoch} loss={loss!r} beta_inter={bi!r} beta_intra={ba!r}")
    t0 = time.perf_counter()
    net, params, table, report = run_pipeline(cad, config, log_fn=log_fn)
    out = Path(args.out)
    meta_path = Path(args.meta) if args.meta else out.with_suffix(".meta.json")
    metadata = {
        "dataset": {"name": manifest.name, "source": source, "n": cad.n, "m": cad.m,
                    "num_cav_nodes": net.node_set.total,
                    "inter_edges": len(net.inter), "intra_edges": len(net.intra)},
        "config": asdict(config),
        "seeds": {"graph": net.rng_seed, "model": config.model_config().seed},
        "loss_history": report.loss_history,
        "epochs_run": report.epochs_run,
        "stop_reason": report.stop_reason,
        "beta_inter": report.beta_inter,
        "beta_intra": report.beta_intra,
        "wall_time_s": time.perf_counter() - t0,
    }

    def write_outputs():
        write_embedding(out, table.objects)
        with _replacing(meta_path) as fh:
            fh.write(json.dumps(metadata, indent=2) + "\n")

    _stage("output", write_outputs)
    print(f"wrote {out} ({table.objects.shape[0]} x {table.objects.shape[1]}) "
          f"and {meta_path}")
    return 0


def cmd_encode(args) -> int:
    cad, _, _ = _stage("dataset", resolve_dataset, args)
    encoder = {"onehot": encode_onehot, "frequency": encode_frequency}[args.method]
    encoded = _stage("encode", encoder, cad)
    _stage("output", write_embedding, args.out, encoded.vectors)
    print(f"wrote {args.out} ({encoded.vectors.shape[0]} x {encoded.vectors.shape[1]})")
    return 0


def cmd_eval(args) -> int:
    cad, _, _ = _stage("dataset", resolve_dataset, args)
    if cad.labels is None:
        raise StageError("eval", "dataset has no label column; evaluation needs labels")
    vectors = _stage("eval", read_embedding, args.embedding)
    if vectors.shape[0] != cad.n:
        raise StageError("eval", f"embedding has {vectors.shape[0]} rows, dataset has {cad.n}")
    indices = tuple(s.strip() for s in args.indices.split(","))
    rows = _stage("eval", evaluate_all, {"embedding": LabeledEmbedding(vectors, cad.labels)},
                  indices)
    results = {row.index: row.value for row in rows}
    for index, value in results.items():
        print(f"{index} = {value!r}")
    if args.out:
        Path(args.out).write_text(json.dumps(results) + "\n", encoding="utf-8")
    return 0


def cmd_compare(args) -> int:
    config = load_run_config(args)
    methods = [m.strip() for m in args.methods.split(",")]
    unknown = [m for m in methods if m not in ("onehot", "frequency", "neca")]
    if unknown:
        raise StageError("compare", f"unknown method {unknown[0]!r}")
    cad, manifest, _ = _stage("dataset", resolve_dataset, args)
    if cad.labels is None:
        raise StageError("compare", "dataset has no label column; comparison needs labels")
    records = []
    for method in methods:
        if method == "onehot":
            embeddings = [(None, encode_onehot(cad).vectors)]
        elif method == "frequency":
            embeddings = [(None, encode_frequency(cad).vectors)]
        else:
            embeddings = []
            for i in range(args.runs):
                seed = args.seed0 + i
                _, _, table, _ = run_pipeline(cad, config, seed=seed)
                embeddings.append((seed, table.objects))
        for seed, vectors in embeddings:
            emb = LabeledEmbedding(vectors, cad.labels)
            records.append({"method": method, "seed": seed,
                            **{index: fn(emb) for index, fn in INDICES.items()}})

    summary = []
    for method in methods:
        runs = [r for r in records if r["method"] == method]
        for index in INDICES:
            values = [r[index] for r in runs]
            summary.append({
                "method": method, "dataset": manifest.name, "index": index,
                "best": max(values), "median": statistics.median(values),
                "runs": len(values),
            })
    for index in INDICES:
        rows = [s for s in summary if s["index"] == index]
        ranked = sorted(rows, key=lambda r: -r["best"])
        for row in rows:
            row["rank"] = ranked.index(row) + 1

    header = f"{'index':<6}{'method':<12}{'best':>12}{'median':>12}{'runs':>6}  rank"
    print(header)
    for row in summary:
        print(f"{row['index']:<6}{row['method']:<12}{row['best']:>12.4g}"
              f"{row['median']:>12.4g}{row['runs']:>6}  {row['rank']}")
    if args.json:
        payload = {"summary": summary,
                   "runs": [{**r, "dataset": manifest.name} for r in records]}
        with _replacing(args.json) as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_fetch(args) -> int:
    if str(args.dataset).lower() in BUNDLED and not args.manifest:
        manifest = bundled_manifest(args.dataset)
    elif args.manifest:
        manifest = DatasetManifest.from_file(args.manifest)
    else:
        raise StageError("fetch", f"unknown dataset {args.dataset!r}; "
                                  f"bundled names: {', '.join(n.upper() for n in BUNDLED)}")
    path = fetch_dataset(manifest,
                         cache=Path(args.cache) if args.cache else None,
                         mirror=Path(args.mirror) if args.mirror else None)
    print(path)
    return 0


def cmd_export_graph(args) -> int:
    config = load_run_config(args)
    cad, _, _ = _stage("dataset", resolve_dataset, args)
    net = _stage("graph", build_hetnet, cad, beta=config.beta_connect, seed=config.seed)
    _stage("output", export_edge_list, net, args.which, args.out)
    print(f"wrote {args.out} ({len(net.edges(args.which))} edges)")
    return 0


def load_run_config(args) -> RunConfig:
    from .dataset import read_kv_file
    file_entries = read_kv_file(args.config) if getattr(args, "config", None) else {}
    flag_names = [f.name for f in fields(RunConfig)]
    overrides = {name: getattr(args, name, None) for name in flag_names}
    return RunConfig.from_sources(file_entries, overrides)


def add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help="path to a CSV file or a bundled dataset name")
    p.add_argument("--manifest", help="manifest file describing the dataset")
    p.add_argument("--label", help="label column name (path datasets)")
    p.add_argument("--drop", help="comma-separated identifier columns to drop")
    p.add_argument("--columns", help="comma-separated column names for headerless files")
    p.add_argument("--missing", default="?", help="missing-value token (default '?')")
    p.add_argument("--no-header", action="store_true", help="file has no header row")
    p.add_argument("--mirror", help="local directory with pre-downloaded dataset files")


def add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="master seed (graph sampling and init)")
    p.add_argument("--heads", type=int, help="attention heads K (default 8)")
    p.add_argument("--head-dim", type=int, dest="head_dim", help="per-head width (default 8)")
    p.add_argument("--fusion-dim", type=int, dest="fusion_dim")
    p.add_argument("--leaky-slope", type=float, dest="leaky_slope")
    p.add_argument("--elu-alpha", type=float, dest="elu_alpha")
    p.add_argument("--self-loop", action="store_const", const=True, default=None,
                   dest="self_loop", help="include each node in its own neighborhood")
    p.add_argument("--share-projections", action="store_const", const=True, default=None,
                   dest="share_projections",
                   help="use one projection/attention set for both networks")
    p.add_argument("--beta-connect", type=float, dest="beta_connect",
                   help="connectivity-edge affinity (default 0.01)")
    p.add_argument("--lr", type=float, help="Adam learning rate (default 0.005)")
    p.add_argument("--adam-beta1", type=float, dest="adam_beta1")
    p.add_argument("--adam-beta2", type=float, dest="adam_beta2")
    p.add_argument("--adam-eps", type=float, dest="adam_eps")
    p.add_argument("--epochs", type=int, help="epoch cap (default 200)")
    p.add_argument("--tol", type=float, help="relative loss-change stop (default 1e-5)")
    p.add_argument("--sigma", type=float, help="kernel bandwidth (default 1.0)")
    p.add_argument("--clamp-eps", type=float, dest="clamp_eps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neca",
        description="categorical data embeddings via attention over value networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download a dataset into the cache")
    p.add_argument("dataset", help="bundled dataset name (e.g. ZO)")
    p.add_argument("--manifest", help="manifest file for a non-bundled dataset")
    p.add_argument("--cache", help="cache directory (default $NECA_CACHE or ~/.cache/neca)")
    p.add_argument("--mirror", help="local directory with pre-downloaded files")
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser("embed", help="train and write per-object embeddings")
    add_dataset_args(p)
    add_config_args(p)
    p.add_argument("--out", required=True, help="embedding CSV output path")
    p.add_argument("--meta", help="metadata JSON path (default: alongside --out)")
    p.add_argument("--verbose", action="store_true", help="per-epoch loss lines")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("encode", help="baseline encoders")
    add_dataset_args(p)
    p.add_argument("--method", required=True, choices=("onehot", "frequency"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("eval", help="cluster-validity indices for an embedding")
    add_dataset_args(p)
    p.add_argument("--embedding", required=True, help="embedding CSV to score")
    p.add_argument("--indices", default="ch,s", help="subset of ch,s (default both)")
    p.add_argument("--out", help="optional JSON results path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="multi-run method comparison table")
    add_dataset_args(p)
    add_config_args(p)
    p.add_argument("--methods", default="neca,onehot,frequency",
                   help="comma-separated subset of neca,onehot,frequency")
    p.add_argument("--runs", type=int, default=5, help="stochastic-method repetitions")
    p.add_argument("--seed0", type=int, default=0, help="first seed; run i uses seed0+i")
    p.add_argument("--json", help="optional structured results path")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("export-graph", help="write a network edge list")
    add_dataset_args(p)
    add_config_args(p)
    p.add_argument("--which", required=True, choices=("inter", "intra"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
