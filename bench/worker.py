"""One step of a benchmark run, in a process of its own.

    python3 bench/worker.py gen   --workload W --seed N --dir D [--smoke]
    python3 bench/worker.py setup --csv D/data.csv
    python3 bench/worker.py run   --workload W --seed N --seconds S --trace 0|1 --dir D
                                  [--smoke]

``gen`` writes the seeded CAD to ``D/data.csv`` and its facts to ``D/gen.json``.
``setup`` times ``import neca``, ``load_csv`` and ``impute_modes`` in a fresh
process.  ``run`` runs the workload and writes ``D/result.json`` (and, when
traced, the spans to ``D/trace.json``).  ``run.py`` starts these with the
BLAS thread count pinned to one and the checkout's ``src`` first on the
import path; nothing here imports numpy or neca before it is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent


def cmd_gen(args) -> None:
    import cad_gen

    w = spec.workload(args.workload, args.smoke)
    shape = cad_gen.manifest_shape(w.manifest)
    if shape.m != len(w.domain_sizes) or shape.classes != len(w.class_prior):
        raise SystemExit(f"{w.name}: domain sizes or class prior disagree with {shape}")
    g = cad_gen.generate(Path(args.dir) / "data.csv", w.n or shape.n, w.domain_sizes,
                         w.class_prior, seed=args.seed, profile_seed=w.population_seed,
                         alpha=w.alpha, missing_rate=w.missing_rate)
    facts = json.dumps({"n": g.n, "m": g.m, "classes": g.classes,
                        "missing_cells": g.missing_cells})
    (Path(args.dir) / "gen.json").write_text(facts + "\n", encoding="utf-8")
    print(facts)


def cmd_setup(args) -> None:
    start = time.perf_counter()
    import neca

    manifest = neca.DatasetManifest(name="data", label_column="class")
    cad = neca.impute_modes(neca.load_csv(args.csv, manifest), manifest.missing_token)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "n": cad.n, "m": cad.m}))


def cmd_run(args) -> None:
    import neca
    from flow import WorkloadRun

    src = ROOT / "src"
    if Path(neca.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported neca from {neca.__file__}, not from {src}")
    work = Path(args.dir)
    facts = json.loads((work / "gen.json").read_text(encoding="utf-8"))
    w = spec.workload(args.workload, args.smoke)
    run = WorkloadRun(w, work / "data.csv", facts["n"], work)
    if args.trace:
        out = run.run_traced(args.seconds, work / "trace.json")
    else:
        out = run.run_untraced(args.seconds)
    out.update(attempted=run.ledger.attempted, failed=run.ledger.failed,
               failures=run.ledger.failures, environment=environment())
    (work / "result.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` in ``root`` itself, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="step", required=True)
    for step in ("gen", "run"):
        p = sub.add_parser(step)
        p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", required=True)
        p.add_argument("--smoke", action="store_true")
    run = sub.choices["run"]
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    sub.add_parser("setup").add_argument("--csv", required=True)
    args = parser.parse_args(argv)
    {"gen": cmd_gen, "setup": cmd_setup, "run": cmd_run}[args.step](args)


if __name__ == "__main__":
    main()
