"""The neca benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mu-tall --seed 0 --seconds 50 --trace 0

Run from the repository root (or any checkout of it).  The run

1. generates the workload's seeded latent-class CAD (``cad_gen.py``);
2. with ``--trace 0``, runs the user's flow with tracing off for
   ``--seconds`` and reports the end-to-end metrics; set-up (``import neca``,
   ``load_csv``, ``impute_modes``) is timed in several fresh processes, after
   an untimed warm-up one, half of them before the flow and half after;
3. with ``--trace 1``, alternates untraced and traced passes for
   ``--seconds`` and reports the per-layer metrics, the self time of every
   layer, the time no layer accounts for and the tracing overhead;
4. checks every output and prints one line per metric, the environment, and
   as the last line a JSON object with ``correct``, ``attempted``, ``failed``
   and ``metrics``.

Every step runs in its own process with the BLAS thread count pinned to
one, so ``peak_rss_mb`` is the workload process's own peak.  Scratch files
go to ``bench/.work/`` and the large ones are deleted at the end; the trace
spans and the full result, with its environment, stay there.  The exit code
is 0 when a result was printed, even when a check failed (the result then
says ``"correct": false``), and 1 when the workload could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170          # the whole run, including every step it starts
SETUP_REPEATS = 10          # set-up processes per run, half before the flow, half after
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class StepFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def step(args, deadline) -> str:
    """Run ``worker.py <args>`` to completion; return its standard output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepFailed(f"no time left for {args[0]}")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise StepFailed(f"{args[0]} still running after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise StepFailed(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="input seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and budgets, for the harness self-check")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    common += ["--smoke"] if args.smoke else []
    try:
        facts = json.loads(step(["gen", *common], deadline))
        setup = []
        setups = 0 if args.trace else 2 if args.smoke else SETUP_REPEATS

        def time_setup(count):
            for _ in range(count):
                setup.append(json.loads(step(["setup", "--csv", str(work / "data.csv")],
                                             deadline)))

        if setups:
            # untimed warm-up: compiles neca's bytecode in a fresh checkout and
            # loads the files set-up reads into the page cache
            step(["setup", "--csv", str(work / "data.csv")], deadline)
        time_setup(setups // 2)
        step(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
             deadline)
        time_setup(setups - setups // 2)
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for csv in work.glob("*.csv"):
            csv.unlink()

    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    metrics = dict(result["metrics"])
    if args.trace:
        declared = spec.PER_LAYER
        metrics.update({"dataset.records": facts["n"], "dataset.attributes": facts["m"]})
    else:
        declared = spec.END_TO_END
        # each set-up process is one more operation of the run
        attempted += len(setup)
        for s in setup:
            if (s["n"], s["m"]) != (facts["n"], facts["m"]):
                failed += 1
                failures.append(f"setup loaded {s['n']}x{s['m']}, generated "
                                f"{facts['n']}x{facts['m']}")
        # the median, as for embed_s and eval_s (see flow.run_untraced)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        metrics["ok_ratio"] = 1.0 - failed / attempted
    missing = [m.name for m in declared if m.name not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}; failures: {failures}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: " + ", ".join(
        f"{k}={v!r}" for k, v in {**facts, **result["sizes"]}.items()))
    for m in declared:
        print(f"{m.name} = {metrics[m.name]!r} {m.unit}")
    print(f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} operations)")
    for failure in failures:
        print(f"FAILED {failure}")
    print("scores (CH, S) against the planted classes: " + json.dumps(result["scores"]))
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print("samples: " + json.dumps(result["samples"]))
    result.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures,
                  setup=setup, facts=facts)
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
