"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload trie-serve --seed 1 --seconds 10 --trace 0

Run from the repository root.  The library is imported from ``src/`` next to
this directory and nowhere else, so a directory without the sources fails.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it
holds run information (machine, seed, result digest, sample counts).
Scratch files go to ``perfbench/out/`` and are removed at exit, except the
span file a traced run writes there.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_library():
    src = ROOT / "src"
    package = src / "lcpsearch"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no lcpsearch sources at {package}")
    sys.path.insert(0, str(src))
    import lcpsearch

    if Path(lcpsearch.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported lcpsearch from {lcpsearch.__file__}, not {package}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_library()
    import numpy as np

    import workloads
    from harness import Tracer

    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)}")

    tmp_dir = OUT / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    bench = workloads.Bench(args.workload, args.seed, args.seconds, tracer, tmp_dir)
    try:
        bench.run()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    metrics = bench.per_layer() if tracer else bench.end_to_end()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "client": "closed loop, 1 client",
        "digest": bench.digest,
        "digest_requests": bench.spec.digest_len,
        "window_requests": bench.served[False][0],
        "window_s": bench.served[False][1],
        "traced_requests": bench.served[True][0],
        "slices": len(bench.slices),
        "samples": {"setup_s": len(bench.build_s), "save_s": len(bench.save_s), "load_s": len(bench.load_s)},
        "error_rate": bench.failed / bench.attempted,
        "first_error": bench.first_error,
    }
    if tracer:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
