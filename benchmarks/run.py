"""femchp benchmark: mesh -> solve -> certify, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload grid-sweep --seed 1 --seconds 40 --trace 0

Workloads: grid-sweep, newton-medium, certify-large (see workloads.py).
``--trace 0`` reports the end-to-end metrics of untraced passes, as
times at a reference host speed (see probe.py; the wall times are in the
record); ``--trace 1`` also runs traced passes and reports the per-layer
metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  The full record of the run, with the spans
of a traced pass, is written to ``benchmarks/results/``.
"""

import os
import sys

# Pinned before numpy is imported, so that both commits of a comparison
# run dense factorisations with the same number of OpenBLAS threads.  One
# thread: with two, OpenBLAS worker threads that lose their core to another
# process stretched small Cholesky factorisations up to a hundredfold.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import femchp
    except ImportError as exc:
        print(f"cannot import femchp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(femchp.__file__).resolve().parent.parent != ROOT / "src":
        print(f"femchp resolves to {femchp.__file__}, not to {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from bench import measure
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in record["problems"]:
        print(f"problem: {msg}", file=sys.stderr)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": record["environment"],
                      "record": str(out.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
