"""wsvad benchmark: train at D=64 and D=2048, and score at D=2048.

Run from the root of a wsvad source tree (the directory holding ``src/``):

    python3 perfbench/run.py --workload train-d64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in one process with the BLAS pinned to one thread. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is 0
only when every operation and output check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the keys of workloads.WORKLOADS, repeated here because importing that
# module loads NumPy, which must wait until the BLAS threads are pinned
WORKLOAD_NAMES = ("train-d64", "train-d2048", "score-d2048")
WORK_DIR = ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "wsvad").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        blas_name = blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "src_sha256": source_sha256(root / "src"),
    }


def run_workload(root: Path, args) -> int:
    import workloads

    work_dir = root / WORK_DIR / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    print("env " + json.dumps(environment(root, args)), flush=True)

    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), work_dir)
    metrics: dict[str, dict] = {}
    try:
        run.execute()
    except Exception:  # a failed operation is reported in the result, not as a crash
        traceback.print_exc()
        run.failures.check(False, "run aborted by an exception (traceback on stderr)")
    else:
        for name, sha in run.fingerprint().items():
            print(f"determinism {name} sha256={sha}")
        if args.trace:
            for name, value in run.per_layer().items():
                unit = workloads.layer_unit(name)
                metrics[name] = {"value": value, "unit": unit}
                print(f"layer {name} = {value!r} {unit}")
            run.tracer.write_jsonl(work_dir / "spans.jsonl")
        else:
            for name, (value, samples, what) in run.end_to_end().items():
                unit = workloads.E2E_UNITS[name]
                metrics[name] = {"value": value, "unit": unit}
                print(f"metric {name} = {value!r} {unit} (n={samples} {what})")
            print(f"info score_ms_p99 = {run.request_ms_percentile(99)!r} ms "
                  f"(n={len(run.request_seconds)} requests; not a gated metric, see README)")
        print("info host " + json.dumps(run.host_info()))

    failures = run.failures
    for message in failures.messages:
        print(f"FAILED {message}", file=sys.stderr)
    error_rate = failures.failed / max(failures.attempted, 1)
    print(f"checks attempted={failures.attempted} failed={failures.failed} error_rate={error_rate!r}")
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if failures.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    worst = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        worst = max(worst, proc.returncode)
    print(json.dumps(summary, indent=1))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    # pinned before numpy loads the BLAS; children inherit it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    src = root / "src"
    if not (src / "wsvad" / "__init__.py").is_file():
        print(f"error: no wsvad sources under {src}; run from the root of a wsvad checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import wsvad

    if Path(wsvad.__file__).resolve().parent != (src / "wsvad").resolve():
        print(f"error: imported wsvad from {wsvad.__file__}, not from {src}", file=sys.stderr)
        return 2
    return run_workload(root, args)


if __name__ == "__main__":
    sys.exit(main())
