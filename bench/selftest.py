"""Self-test of the benchmark's output checks: a corrupted output must count
as a failed op.

    python3 bench/selftest.py

For each workload this runs the warm-up op on seed 0, requires its checks to
pass, then damages the output (``Op.corrupt``) and requires the check that
``run.py`` counts in ``failed_ops_frac`` to flag it.  An op that raised is
checked the same way.  Exits 0 when every corruption is caught.
"""

import sys
import tempfile

import run


def main():
    run.import_program()
    from workloads import WORKLOADS

    run.WORK_ROOT.mkdir(exist_ok=True)
    ok = True
    try:
        for name, cls in WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as workdir:
                wl = cls(0, workdir)
                wl.prepare()
                op = wl.warmup
                _, _, errors = run.run_ops([op])
                clean = run.check_ops([op], errors)[0]
                op.corrupt()
                corrupted = run.check_ops([op], [None])[0]
                raised = run.check_ops([op], [f"{op.label} raised RuntimeError"])[0]
            passed = not clean and bool(corrupted) and bool(raised)
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {name}: clean={clean} "
                  f"corrupted={corrupted}")
    finally:
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
