"""Full-precision outputs of every benchmark op, for bit-for-bit comparisons.

    python3 tools/fingerprint.py --seed 1 --out fp_new

Runs each op of the four benchmark workloads (``bench/workloads.py``,
imported unchanged, with the same seeded inputs and BLAS thread count as
``bench/run.py``) once, in batch order, checks its output as the benchmark
does, and writes into ``--out``:

* ``analyze_<label>.json`` and ``regularity_<label>.json`` -- the reports,
  without ``provenance.wall_time``;
* ``mixing_<label>.txt`` -- ``repr`` of the mixing op's output dict;
* ``scan.jsonl`` -- the scan file as the 60 scan ops wrote it.

JSON and ``repr`` print every float in full, so two trees compute the same
numbers exactly when ``diff -r`` of their directories finds nothing.  Run
the two trees side by side, one right after the other on the same machine:
the ``reversible_unital_d16`` mixing op samples from the eigenprojectors of
a degenerate sigma, and its ``tau_mix`` has moved between two runs of the
same code taken 50 minutes apart.  Exits 1 when an op fails its check.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from run import WORKLOAD_NAMES, import_program  # noqa: E402


def write_outputs(name, wl, out: Path):
    from workloads import AnalyzeOp, MixingOp, ScanOp

    for op in wl.batch:
        if isinstance(op, AnalyzeOp):
            with open(op.out_path) as fh:
                report = json.load(fh)
            del report["provenance"]["wall_time"]
            (out / f"{name}_{op.label}.json").write_text(
                json.dumps(report, indent=1, sort_keys=True) + "\n")
        elif isinstance(op, MixingOp):
            (out / f"{name}_{op.label}.txt").write_text(repr(op.out) + "\n")
        elif isinstance(op, ScanOp):
            shutil.copyfile(op.out_path, out / "scan.jsonl")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the outputs")
    args = p.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for name in WORKLOAD_NAMES:
            wl = WORKLOADS[name](args.seed, work)
            wl.prepare()
            wl.start_batch()
            for op in wl.batch:
                op.run()
            for op in wl.batch:
                for msg in op.check():
                    sys.stderr.write(f"fingerprint: check failed: {name} {op.label}: {msg}\n")
                    failed += 1
            write_outputs(name, wl, out)
    print(f"fingerprint seed={args.seed}: outputs in {out}, {failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
