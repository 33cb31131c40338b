"""Repository benchmark: whole workloads timed end to end, traced per layer.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload attack-ml100k --seed 0 --seconds 45 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes over the same inputs and
prints the per-layer metrics.  Which metrics, with their units, is read from
``BENCHMARK.json`` at the repository root.  The workloads, their seeds and
the serving traffic are fixed in ``workloads.json`` beside this file.  The
last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, spans included, is written to
``benchmarks/e2e/out/``.

The program is imported from ``src/`` of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS_FILE = HERE / "workloads.json"
CONTRACT_FILE = ROOT / "BENCHMARK.json"


def pin_blas_threads() -> None:
    """One BLAS thread: on this workload mix a second one only spins.

    Takes effect only before numpy is first imported.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def blas_info() -> dict[str, Any]:
    """OpenBLAS version from numpy's build record and its live thread count."""
    import numpy

    info: dict[str, Any] = {"openblas": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(library, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                info["blas_threads"] = int(query())
                return info
    return info


def environment() -> dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas_info(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = json.loads(WORKLOADS_FILE.read_text())["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT_FILE.read_text())
    listed = contract["per_layer" if args.trace else "end_to_end"]
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    from e2e_layers import PER_LAYER
    from e2e_trace import check_metric_name

    unknown = [m["name"] for m in listed if args.trace and m["name"] not in PER_LAYER]
    if unknown:
        print(f"error: no rule in e2e_layers.PER_LAYER for {unknown}", file=sys.stderr)
        return 2

    from e2e_workloads import run_workload

    load_start = os.getloadavg()[0]
    outcome = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    load_end = os.getloadavg()[0]

    metrics = {
        check_metric_name(m["name"]): {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
        for m in listed
    }
    correct = outcome.failed == 0 and not outcome.problems
    env = environment()
    env.update(loadavg_1m_start=load_start, loadavg_1m_end=load_end)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": metrics,
        **outcome.record,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {out_file.relative_to(ROOT)}")
    print("# environment " + json.dumps(env))
    for label in outcome.record.get("absent_targets", []):
        print(f"# absent target (program no longer has it): {label}")
    for problem in outcome.problems:
        print(f"# FAILED CHECK: {problem}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
