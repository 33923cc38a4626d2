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
import math
import os
import sys
import time
import urllib.error
import urllib.request
import uuid
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from importlib import resources
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .cavnet import build_hetnet, export_edge_list
from .dataset import CAD, DatasetManifest, impute_modes, load_csv, read_kv_file
from .encoders import encode_frequency, encode_onehot
from .evaluation import (INDICES, LabeledEmbedding, check_indices, evaluate_all,
                         factor_columns)
from .model import RunConfig
from .training import train

BUNDLED = ("bc", "ce", "de", "ly", "ma", "mu", "pt", "sb", "sh", "wi", "zo")
# the manifest key each dataset flag sets for a dataset given as a file
DATASET_FLAGS = {"label": "label", "drop": "drop", "columns": "columns",
                 "missing": "missing_token"}
ENCODERS = {"onehot": encode_onehot, "frequency": encode_frequency}
_CHUNK_ROWS = 128       # embedding CSV rows formatted or read at a time; caps learned text
# bytes of an embedding file decoded at a time: a line is tens of KiB, which
# the default 8 KiB pieces put together from several decodes
_DECODE_BYTES = 1 << 16


class StageError(Exception):
    """Runtime failure attributed to a pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class FetchError(StageError):
    def __init__(self, message: str):
        super().__init__("fetch", message)


def cache_dir() -> Path:
    override = os.environ.get("NECA_CACHE")
    return Path(override) if override else Path.home() / ".cache" / "neca"


def bundled_manifest(name: str) -> DatasetManifest:
    ref = resources.files("neca.manifests") / f"{name.lower()}.manifest"
    with resources.as_file(ref) as path:
        return DatasetManifest.from_file(path)


def resolve_source(dataset: str, manifest_file=None,
                   **flags) -> tuple[DatasetManifest, Path | None]:
    """The manifest of ``dataset`` and its local path, or None where it must be fetched.

    ``flags`` are the values of the ``DATASET_FLAGS`` given on the command
    line, None where not given.  An existing file without ``manifest_file``
    is described by them; beside a manifest file or a bundled name, whose
    manifest describes the file, any of them is an error.  Beside a manifest
    file, ``dataset`` is an existing file or the manifest's name.
    """
    given = {flag: value for flag, value in flags.items() if value is not None}
    path = Path(dataset)
    if manifest_file is None and path.is_file():
        keys = {DATASET_FLAGS[flag]: value for flag, value in given.items()}
        return DatasetManifest.from_entries({"name": path.stem, **keys}, dataset), path
    if manifest_file is None and dataset.lower() not in BUNDLED:
        raise StageError("dataset", f"{dataset!r} is neither a file nor a bundled dataset name; "
                                    f"bundled names: {', '.join(n.upper() for n in BUNDLED)}")
    if given:
        raise StageError("dataset", f"{', '.join('--' + flag for flag in given)} cannot be "
                                    f"given with a manifest, which describes {dataset!r}")
    manifest = (DatasetManifest.from_file(manifest_file) if manifest_file is not None
                else bundled_manifest(dataset))
    if path.is_file():
        return manifest, path
    if dataset.lower() != manifest.name.lower():
        raise StageError("dataset", f"{dataset!r} is neither a file nor the manifest's "
                                    f"dataset name, {manifest.name!r}")
    return manifest, None


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fetch_dataset(manifest: DatasetManifest) -> Path:
    """Return a verified copy in ``cache_dir()``, downloading or copying only on a miss.

    On a miss the copy comes from the ``NECA_MIRROR`` directory if it holds
    the file, else from the manifest's ``source_url``.

    A new copy is written beside the cache file and verified before it
    replaces it, so a failed or mismatched fetch leaves nothing cached.
    """
    cache = cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"{manifest.name.lower()}.data"

    def verify(path: Path, origin) -> Path:
        digest = sha256_of(path)
        if manifest.checksum and digest != manifest.checksum:
            raise FetchError(
                f"checksum mismatch for {origin}: expected {manifest.checksum}, got {digest}")
        if not manifest.checksum:
            print(f"note: {manifest.name} checksum unpinned; sha256 {digest}", file=sys.stderr)
        return path

    if target.exists():
        return verify(target, target)
    mirror = os.environ.get("NECA_MIRROR")
    origin = Path(mirror) / f"{manifest.name.lower()}.data" if mirror else None
    if origin is not None and origin.exists():
        data = origin.read_bytes()
    elif not manifest.source_url:
        raise FetchError(f"no source_url for dataset {manifest.name!r} and no mirror copy")
    else:
        try:
            with urllib.request.urlopen(manifest.source_url, timeout=60) as resp:
                data = resp.read()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise FetchError(f"download failed for {manifest.source_url}: {exc}") from exc
        origin = manifest.source_url
    with _replacing(target, binary=True) as fh:
        fh.write(data)
        fh.flush()
        verify(Path(fh.name), origin)
    return target


def resolve_dataset(args) -> tuple[CAD, DatasetManifest, str]:
    """The dataset the arguments name, fetched if need be, loaded and imputed."""
    manifest, path = resolve_source(args.dataset, args.manifest,
                                    **{flag: getattr(args, flag) for flag in DATASET_FLAGS})
    if path is None:
        path = fetch_dataset(manifest)
    cad = load_csv(path, manifest)
    cad = impute_modes(cad, manifest.missing_token)
    return cad, manifest, str(path)


@contextmanager
def _replacing(path, binary: bool = False):
    """Handle on a temp file beside ``path`` that replaces ``path`` on success.

    The handle is text unless ``binary``.  On any failure the temp file is
    removed and ``path`` is left as it was; a failed temp-file open names ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp")
    try:
        fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path, text: str) -> None:
    """Replace ``path`` with ``text``, atomically through ``_replacing``."""
    with _replacing(path) as fh:
        fh.write(text)


def _format_segments(rows: np.ndarray) -> list[bytes]:
    """Each row's tokens as bytes, each after a comma, formatting each distinct bit pattern once.

    The key is the bit pattern, not the value: 0.0 == -0.0 but the two print
    differently, and nan != nan.
    """
    bits, inverse = np.unique(rows.view(np.int64).ravel(), return_inverse=True)
    tokens = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return [("," + ",".join(row)).encode() for row in tokens[inverse].reshape(rows.shape).tolist()]


def _format_rows(matrix: np.ndarray, runs, first_id: int, cache: list[dict]) -> bytes:
    """CSV lines of the ``_CHUNK_ROWS`` rows of ``matrix`` from ``first_id``.

    A line joins one segment per column run of ``factor_columns``; a run's
    segment is formatted once per distinct code and kept in that run's dict
    of ``cache``.  The cache is emptied once it holds as many tokens as a
    chunk has, so it never outgrows the chunk's own text.
    """
    count = min(_CHUNK_ROWS, matrix.shape[0] - first_id)
    if sum(len(segments) * (hi - lo) for segments, (lo, hi, _, _) in zip(cache, runs)) \
            >= _CHUNK_ROWS * matrix.shape[1]:
        for segments in cache:
            segments.clear()
    columns = []
    for (lo, hi, codes, first), segments in zip(runs, cache):
        chunk = codes[first_id:first_id + count].tolist()
        missing = sorted(set(chunk).difference(segments))
        if missing:
            segments.update(zip(missing, _format_segments(matrix[first[missing], lo:hi])))
        columns.append([segments[c] for c in chunk])
    return b"".join(b"%d%b\n" % (i, b"".join(row))
                    for i, *row in zip(range(first_id, first_id + count), *columns))


def write_embedding(path, matrix: np.ndarray) -> None:
    """CSV with an object_id column; repr floats round-trip exactly.

    Rows go out in chunks of ``_CHUNK_ROWS``, and the file replaces ``path``
    only once it is complete.  Each line is built from the column runs of
    ``factor_columns``, so an assembled embedding formats and encodes each
    attribute value's row once rather than once per object.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    runs = factor_columns(matrix)
    cache = [{} for _ in runs]
    with _replacing(path, binary=True) as fh:
        fh.write(("object_id" + "".join(f",dim_{k}" for k in range(matrix.shape[1]))
                  + "\n").encode())
        for lo in range(0, matrix.shape[0], _CHUNK_ROWS):
            fh.write(_format_rows(matrix, runs, lo, cache))


def _parse_tokens(tokens: list[str]) -> np.ndarray:
    """Float64 array of ``tokens``; a token that is not a number raises ``float``'s ``ValueError``."""
    return np.fromiter(map(float, tokens), np.float64, len(tokens))


def _raise_bad_line(path, k: int, line: str, width: int) -> None:
    """Raise the ``StageError`` of line ``k``, stripped ``line``, if not ``width`` numbers."""
    tokens = line.split(",")[1:]
    if len(tokens) != width:
        raise StageError("eval", f"{path}, line {k}: {len(tokens)} values, header has {width}")
    for token in tokens:
        try:
            float(token)
        except ValueError:
            raise StageError("eval", f"{path}, line {k}: {token!r} is not a number") from None


class _Segments:
    """The text of the column runs' rows read so far, keyed by each run's first token.

    A line is an object id, then one segment per run, each segment a comma
    and the run's tokens.  A segment matches when the token after its comma
    is a known first token and the text from the comma on is the segment
    learned with it.  Its values are then the learned row: equal text is
    equal tokens, so a match is exact.  Runs only get finer: a run may join
    attributes that later lines tell apart, and the first line that does so
    splits it into at least two runs.  A header of width w thus splits at
    most w - 1 times.
    """

    def __init__(self, spans: list[tuple[int, int]]):
        self.spans = spans
        self.index: list[dict[str, tuple[int, str, int]]] = [{} for _ in spans]
        self.rows: list[list[np.ndarray]] = [[] for _ in spans]
        self.tables: list[np.ndarray] = []

    def _keep(self, run: int, first: str, segment: str, row: np.ndarray) -> int:
        """Learn ``segment``, whose first token is ``first``, with its values ``row``."""
        rows = self.rows[run]
        self.index[run][first] = len(rows), segment, len(segment)
        rows.append(row)
        self.tables = []
        return len(rows) - 1

    def size(self) -> int:
        """The number of tokens learned."""
        return sum(len(rows) * (hi - lo) for (lo, hi), rows in zip(self.spans, self.rows))

    def match(self, line: str) -> list[int] | None:
        """The learned code of each run's segment of ``line``, or None unless all match."""
        find, startswith = line.find, line.startswith
        pos = find(",")
        if pos < 0:
            return None
        codes = []
        for index in self.index:
            # up to the next comma, or with none up to the last character, the newline
            hit = index.get(line[pos + 1:find(",", pos + 1)])
            if hit is None or not startswith(hit[1], pos):
                return None
            codes.append(hit[0])
            pos += hit[2]
        return codes if line[pos:] in ("\n", "") else None

    def _split(self, run: int, tokens: list[str], row: np.ndarray,
               pending: list[list[int]]) -> list[int]:
        """Replace ``run`` by the runs of ``factor_columns`` over its learned rows and ``row``.

        ``row`` shares its first token with a learned row but not its bits,
        so no run of ``factor_columns`` over them spans ``run`` unless the
        whole run is a stretch of columns it finds isolated.  Such a stretch
        is split into one run per column, so every split refines.  Each new
        run's index is keyed from the learned segments' text, then from
        ``tokens``, the text of ``row``.
        The codes of the lines in ``pending`` are rewritten for the new runs;
        returns the code of ``row`` in each.
        """
        lo = self.spans[run][0]
        learned = self.rows[run]
        stacked = np.array(learned + [row])
        texts = [(code, segment[1:].split(",")) for code, segment, _ in self.index[run].values()]
        texts.append((len(learned), tokens))
        parts = [(a, b, codes.tolist(), first) for a, b, codes, first in factor_columns(stacked)]
        if len(parts) == 1:
            # the run is a stretch of columns factor_columns finds isolated,
            # which its rule gives one run per column
            _, _, codes, first = parts[0]
            parts = [(a, a + 1, codes, first) for a in range(len(row))]
        index = []
        for a, b, codes, _ in parts:
            keyed = {}
            for code, text in texts:
                segment = "," + ",".join(text[a:b])
                keyed.setdefault(text[a], (codes[code], segment, len(segment)))
            index.append(keyed)
        self.spans[run:run + 1] = [(lo + a, lo + b) for a, b, _, _ in parts]
        self.index[run:run + 1] = index
        self.rows[run:run + 1] = [list(stacked[first, a:b]) for a, b, _, first in parts]
        self.tables = []
        for found in pending:
            found[run:run + 1] = [codes[found[run]] for _, _, codes, _ in parts]
        return [codes[-1] for _, _, codes, _ in parts]

    def resolve(self, line: str, pending: list[list[int]]) -> list[int] | None:
        """The codes of the stripped ``line``, parsing only its unmatched runs.

        A run whose first token is new is split off, parsed and learned.  A
        run whose first token is known but whose text differs is parsed.
        With the bits of that token's row, as for ``1.00`` in
        place of ``1.0``, it takes that token's code and is not learned.
        With other bits, the run joined columns that differ here, and
        ``_split`` refines it, rewriting the codes of the lines in
        ``pending``.  None when the line is not one segment per run: too few
        or too many tokens, or a bad one.
        """
        find, startswith = line.find, line.startswith
        pos = find(",")
        if pos < 0:
            pos = len(line)   # no values, which only a header of width 0 allows
        codes = []
        while len(codes) < len(self.spans):
            run = len(codes)
            (lo, hi), index = self.spans[run], self.index[run]
            end = find(",", pos + 1)
            hit = index.get(line[pos + 1:end] if end >= 0 else line[pos + 1:])
            # a known segment, ending where its last token does: 1.0 is not 1.00
            if hit is not None and startswith(hit[1], pos) \
                    and line[pos + hit[2]:pos + hit[2] + 1] in (",", ""):
                codes.append(hit[0])
                pos += hit[2]
                continue
            tokens = line[pos + 1:].split(",", hi - lo)
            del tokens[hi - lo:]   # the rest of the line
            try:
                row = _parse_tokens(tokens) if len(tokens) == hi - lo else None
            except ValueError:
                row = None
            if row is None:
                return None
            segment = "," + ",".join(tokens)
            if hit is None:
                codes.append(self._keep(run, tokens[0], segment, row))
            elif row.tobytes() == self.rows[run][hit[0]].tobytes():
                codes.append(hit[0])
            else:
                codes.extend(self._split(run, tokens, row, pending))
            pos += len(segment)
        return codes if pos == len(line) else None

    def fill(self, out: np.ndarray, codes: list[list[int]]) -> None:
        """Write the learned rows of the lines' ``codes`` into the rows of ``out``, in order."""
        if not self.tables:
            self.tables = [np.array(learned) for learned in self.rows]
        for (lo, hi), table, column in zip(self.spans, self.tables, np.array(codes).T):
            out[:, lo:hi] = table[column]


def read_embedding(path) -> np.ndarray:
    """The matrix ``write_embedding`` wrote, bit for bit (NaN payloads aside).

    Any CSV of numbers with the header's width reads as ``float`` parses each
    token.  The file is decoded ``_DECODE_BYTES`` at a time.  The reader
    starts from one column run as wide as the header, and learns the text
    of each line's runs as it reads (``_Segments``).  A line made of learned
    segments takes their rows without being split into tokens; in any other
    line only the runs that do not match are split off and parsed, and a
    run's segment with a new first token is learned.  A run that joins
    columns a line tells apart, as the first run joins every attribute, is
    split into finer runs on that line.  A line that is not one segment per
    run raises its error.  The learned text starts over once it holds as
    many tokens as a chunk of ``_CHUNK_ROWS`` lines, the runs found so far
    kept, and rows go straight into the one array returned.

    A row whose width differs from the header's, or a token that is not a
    number, raises a ``StageError`` naming the path and the 1-based line of
    the first such row; a byte that is not UTF-8 makes its token not a number.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        fh._CHUNK_SIZE = _DECODE_BYTES
        header = fh.readline().strip().split(",")
        if not header or header[0] != "object_id":
            raise StageError("eval", f"{path} is not an embedding file")
        width = len(header) - 1
        segments = _Segments([(0, width)] if width else [])
        lines = list(islice(fh, _CHUNK_ROWS))
        # the row count a chunk of lines' lengths suggests
        size = os.fstat(fh.fileno()).st_size
        out = np.empty((size * len(lines) // max(sum(map(len, lines)), 1) + 1, width))
        n, lineno = 0, 1
        chunks = iter(lambda: list(islice(fh, _CHUNK_ROWS)), [])
        for lines in chain([lines], chunks):
            if n + len(lines) > len(out):
                # realloc: a large array grows in place, not by a copy
                out.resize((max(n + len(lines), len(out) + len(out) // 8), width),
                           refcheck=False)
            codes = []
            for k, line in enumerate(lines, lineno + 1):
                found = segments.match(line)
                if found is None:
                    if line.isspace():
                        continue
                    line = line.strip()
                    found = segments.resolve(line, codes)
                    if found is None:
                        _raise_bad_line(path, k, line, width)
                codes.append(found)
            segments.fill(out[n:n + len(codes)], codes)
            n += len(codes)
            if segments.size() >= _CHUNK_ROWS * width:
                segments = _Segments(segments.spans)
            lineno += len(lines)
    out.resize((n, width), refcheck=False)
    return out


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
    if seed is not None:
        config = _stage("config", replace, config, seed=seed)
    net = _stage("graph", build_hetnet, cad, beta=config.beta_connect, seed=config.seed)
    params, table, report = _stage("training", train, net, config, log_fn)
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
        "seeds": {"graph": net.rng_seed, "model": config.seed},
        "loss_history": report.loss_history,
        "epochs_run": len(report.loss_history),
        "stop_reason": report.stop_reason,
        "beta_inter": table.beta_inter,
        "beta_intra": table.beta_intra,
        "wall_time_s": time.perf_counter() - t0,
    }

    def write_outputs():
        write_embedding(out, table.objects)
        _write_text(meta_path, json.dumps(metadata, indent=2) + "\n")

    _stage("output", write_outputs)
    print(f"wrote {out} ({table.objects.shape[0]} x {table.objects.shape[1]}) "
          f"and {meta_path}")
    return 0


def cmd_encode(args) -> int:
    cad, _, _ = _stage("dataset", resolve_dataset, args)
    encoder = ENCODERS[args.method]
    encoded = _stage("encode", encoder, cad)
    _stage("output", write_embedding, args.out, encoded.vectors)
    print(f"wrote {args.out} ({encoded.vectors.shape[0]} x {encoded.vectors.shape[1]})")
    return 0


def cmd_eval(args) -> int:
    indices = tuple(s.strip() for s in args.indices.split(","))
    _stage("eval", check_indices, indices)
    cad, _, _ = _stage("dataset", resolve_dataset, args)
    if cad.labels is None:
        raise StageError("eval", "dataset has no label column; evaluation needs labels")
    vectors = _stage("eval", read_embedding, args.embedding)
    if vectors.shape[0] != cad.n:
        raise StageError("eval", f"embedding has {vectors.shape[0]} rows, dataset has {cad.n}")
    emb = _stage("eval", LabeledEmbedding, vectors, cad.labels)
    del vectors   # the silhouette runs beside the compacted points only
    rows = _stage("eval", evaluate_all, {"embedding": [emb]}, indices)
    results = {row.index: row.best for row in rows}
    for index, value in results.items():
        print(f"{index} = {value!r}")
    if args.out:
        _stage("output", _write_text, args.out, json.dumps(results) + "\n")
    return 0


def cmd_compare(args) -> int:
    config = load_run_config(args)
    if args.runs < 1:
        raise StageError("config", f"runs must be >= 1, got {args.runs}")
    methods = [m.strip() for m in args.methods.split(",")]
    unknown = [m for m in methods if m != "neca" and m not in ENCODERS]
    if unknown:
        raise StageError("compare", f"unknown method {unknown[0]!r}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise StageError("compare", f"method {repeated[0]!r} is named twice")
    cad, manifest, _ = _stage("dataset", resolve_dataset, args)
    if cad.labels is None:
        raise StageError("compare", "dataset has no label column; comparison needs labels")
    seeds = {m: [config.seed + i for i in range(args.runs)] if m == "neca" else [None]
             for m in methods}

    def embeddings(method):
        # no local keeps a matrix while its embedding is scored
        for seed in seeds[method]:
            yield LabeledEmbedding(
                run_pipeline(cad, config, seed=seed)[2].objects if method == "neca"
                else _stage("encode", ENCODERS[method], cad).vectors, cad.labels)

    rows = _stage("eval", evaluate_all, {m: embeddings(m) for m in seeds}, tuple(INDICES))
    print(f"{'index':<6}{'method':<12}{'best':>12}{'median':>12}{'runs':>6}  rank")
    for row in rows:
        best, median = (("undefined",) * 2 if row.reason
                        else (f"{row.best:.4g}", f"{row.median:.4g}"))
        print(f"{row.index:<6}{row.method:<12}{best:>12}{median:>12}{row.runs:>6}  {row.rank}"
              + (f"  ({row.reason})" if row.reason else ""))
    if args.json:
        # an undefined score is null, as JSON has no NaN
        number = lambda value: None if math.isnan(value) else value
        summary = [{"method": row.method, "dataset": manifest.name, "index": row.index,
                    "best": number(row.best), "median": number(row.median),
                    "runs": row.runs, "rank": row.rank, "reason": row.reason}
                   for row in rows]
        records = [{"method": m, "seed": seed,
                    **{row.index: number(row.values[i]) for row in rows if row.method == m},
                    "dataset": manifest.name}
                   for m in seeds for i, seed in enumerate(seeds[m])]
        _stage("output", _write_text, args.json,
               json.dumps({"summary": summary, "runs": records}, indent=2) + "\n")
    return 0


def cmd_fetch(args) -> int:
    manifest, path = _stage("dataset", resolve_source, args.dataset, args.manifest)
    if path is not None:
        raise FetchError(f"{path} is a local file; fetch takes a bundled name or a --manifest")
    print(fetch_dataset(manifest))
    return 0


def cmd_export_graph(args) -> int:
    config = load_run_config(args)
    cad, _, _ = _stage("dataset", resolve_dataset, args)
    net = _stage("graph", build_hetnet, cad, beta=config.beta_connect, seed=config.seed)
    text = _stage("graph", export_edge_list, net, args.which)
    _stage("output", _write_text, args.out, text)
    print(f"wrote {args.out} ({len(net.edges(args.which))} edges)")
    return 0


def load_run_config(args) -> RunConfig:
    """Defaults, then the ``--config`` file's keys, then the flags given."""
    kinds = {f.name: type(f.default) for f in fields(RunConfig)}
    values = {}
    path = args.config
    for key, raw in (_stage("config", read_kv_file, path) if path else {}).items():
        if key not in kinds:
            raise StageError("config", f"{path}: unknown key {key!r}")
        try:
            values[key] = kinds[key](raw)
        except ValueError:
            raise StageError("config", f"{path}: {key} = {raw!r} is not "
                                       f"a valid {kinds[key].__name__}") from None
    values.update((name, getattr(args, name)) for name in kinds
                  if getattr(args, name, None) is not None)
    return _stage("config", RunConfig, **values)


def add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help="path to a CSV file or a bundled dataset name")
    p.add_argument("--manifest", help="manifest file describing the dataset")
    p.add_argument("--label", help="label column name (path datasets)")
    p.add_argument("--drop", help="comma-separated identifier columns to drop")
    p.add_argument("--columns", help="comma-separated column names of a headerless file")
    p.add_argument("--missing", help=f"missing-value token (default "
                                     f"{DatasetManifest.missing_token!r})")


def add_config_args(p: argparse.ArgumentParser, names) -> None:
    """``--config`` and one flag for each ``RunConfig`` field in ``names``."""
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        if f.name in names:
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           help=f"{f.metadata['help']} (default {f.default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neca",
        description="categorical data embeddings via attention over value networks")
    sub = parser.add_subparsers(dest="command", required=True)
    every = [f.name for f in fields(RunConfig)]

    p = sub.add_parser("fetch", help="download a dataset into the cache")
    p.add_argument("dataset", help="bundled dataset name (e.g. ZO)")
    p.add_argument("--manifest", help="manifest file for a non-bundled dataset")
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser("embed", help="train and write per-object embeddings")
    add_dataset_args(p)
    add_config_args(p, every)
    p.add_argument("--out", required=True, help="embedding CSV output path")
    p.add_argument("--meta", help="metadata JSON path (default: alongside --out)")
    p.add_argument("--verbose", action="store_true", help="per-epoch loss lines")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("encode", help="baseline encoders")
    add_dataset_args(p)
    p.add_argument("--method", required=True, choices=tuple(ENCODERS))
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
    add_config_args(p, every)
    p.add_argument("--methods", default="neca,onehot,frequency",
                   help="comma-separated subset of neca,onehot,frequency")
    p.add_argument("--runs", type=int, default=5,
                   help="stochastic-method repetitions; run i uses seed + i")
    p.add_argument("--json", help="optional structured results path")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("export-graph", help="write a network edge list")
    add_dataset_args(p)
    add_config_args(p, ("seed", "beta_connect"))
    p.add_argument("--which", required=True, choices=("inter", "intra"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
