"""qmix benchmark: one seeded workload per run, end-to-end or traced.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``analyze``, ``regularity``, ``mixing`` and ``scan``.  A run makes its
inputs from ``--seed``, sets up, then runs the workload's fixed batch of ops
again and again until ``--seconds`` have passed (at least once; a batch
started before the deadline is finished), checking every op's output after
each batch.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- imports, input generation and one untimed warm-up op,
  timed from interpreter start; the median of ``SETUP_SAMPLES`` set-ups, this
  process's own and fresh processes run with ``--setup-only``;
* ``wall_s`` -- median time to finish the batch;
* ``op_p50_s`` -- median time of one op;
* ``peak_rss_mb`` -- peak resident memory of this process.

The line before the result also gives ``op_p90_s`` where a run has at least
100 ops, and ``failed_ops_frac``: ops that raised, returned an unexpected
exit code, or failed their output check, over ops attempted.

``--trace 1`` alternates untraced batches with batches traced by
``tracer.Tracer`` and reports the per-layer metrics, per traced batch, plus
the tracing overhead.  Spans go to ``.bench_out/`` at the end of the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files live in
``.bench_work/`` of the checkout and are removed at exit.  The BLAS thread
count is set to one per available core, the library default, so that an
inherited ``OPENBLAS_NUM_THREADS`` cannot shift the numbers.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("analyze", "regularity", "mixing", "scan")
SETUP_SAMPLES = 3
P90_MIN_OPS = 100  # a p90 needs at least ten samples beyond it
QMIX_MODULES = ("cli", "ls_estimator", "regularity", "mixing", "dirichlet_gap",
                "generators", "lp_space", "operator_core")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def n_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or None


def _openblas_threads():
    """Thread counts reported by the OpenBLAS builds bundled with numpy and
    scipy, read through ctypes; None where no bundled OpenBLAS is found."""
    import ctypes
    import glob

    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out or None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads):
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": n_cores(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_set": threads,
        "blas_threads_reported": _openblas_threads(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Running batches
# ---------------------------------------------------------------------------

def run_ops(ops, tracer=None, op_base=0):
    """Run ops back to back; return (wall seconds, per-op seconds, errors)."""
    times, errors = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op_base + i, op.label)
        t = time.perf_counter()
        try:
            op.run()
            err = None
        except Exception as exc:  # an op that raises is a failed op
            err = f"{op.label} raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.end_op()
        errors.append(err)
    return time.perf_counter() - start, times, errors


def check_ops(ops, errors):
    """Problems of each op (empty list: correct), checked after the batch."""
    out = []
    for op, err in zip(ops, errors):
        problems = [err] if err else op.check()
        for msg in problems:
            sys.stderr.write(f"bench: check failed: {op.label}: {msg}\n")
        out.append(problems)
    return out


def run_batch(wl, tracer=None, op_base=0):
    wl.start_batch()
    wall, times, errors = run_ops(wl.batch, tracer, op_base)
    failed = sum(1 for p in check_ops(wl.batch, errors) if p)
    return wall, times, failed


def setup_sample(args):
    """Set-up seconds of a fresh process (imports, inputs, warm-up op)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        raise RuntimeError(f"set-up sample failed ({res.returncode}): {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, wl, setup_s, warm_failed):
    samples = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(setup_sample(args))
    walls, op_times, failed = [], [], warm_failed
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        wall, times, n_failed = run_batch(wl)
        walls.append(wall)
        op_times.extend(times)
        failed += n_failed
    attempted = len(op_times) + 1  # + the warm-up op
    p90 = statistics.quantiles(op_times, n=10)[8] if len(op_times) >= P90_MIN_OPS else None
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }
    if len(wl.batch) <= 10:
        by_label = {}
        for i, t in enumerate(op_times):
            by_label.setdefault(wl.batch[i % len(wl.batch)].label, []).append(t)
        print("ops median_s " + json.dumps({k: round(statistics.median(v), 6)
                                            for k, v in by_label.items()}))
    summary = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    summary.append(f"op_p90_s={p90:.6g} s" if p90 is not None
                   else f"op_p90_s=n/a (needs {P90_MIN_OPS} ops)")
    summary.append(f"failed_ops_frac={failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"{args.workload} seed={args.seed}: ops={len(op_times)} "
          f"batch_walls={[round(w, 4) for w in walls]} "
          f"setup_samples={[round(s, 4) for s in samples]} " + ", ".join(summary))
    return metrics, attempted, failed


def measure_traced(args, wl, warm_failed):
    from tracer import LAYERS, Tracer

    modules = [sys.modules["qmix"]] + [sys.modules[f"qmix.{m}"] for m in QMIX_MODULES]
    tracer = Tracer()
    plain, traced = [], []
    failed, attempted = warm_failed, 1
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        wall, _, n_failed = run_batch(wl)
        plain.append(wall)
        failed += n_failed
        tracer.install(modules)
        try:
            wall, _, n_failed = run_batch(wl, tracer, op_base=len(traced) * len(wl.batch))
        finally:
            tracer.uninstall()
        traced.append(wall)
        failed += n_failed
        attempted += 2 * len(wl.batch)

    nb = len(traced)
    selfs = tracer.layer_self_times()

    def calls(*names):
        return sum(tracer.total(tracer.calls, n) for n in names) / nb

    def per_batch(table, key):
        return tracer.total(table, key) / nb

    m = {f"{layer}.self_s": (selfs.get(layer, 0.0) / nb, "s") for layer in LAYERS}
    prop = calls("generators.Generator.heisenberg_propagator",
                 "generators.Generator.schrodinger_propagator")
    expm = calls("linalg.expm")
    trace_wall = sum(traced) / nb
    attributed = sum(selfs.get(layer, 0.0) for layer in LAYERS + ("linalg",)) / nb
    m.update({
        "ls_estimator.estimates": (calls("ls_estimator.estimate_alpha"), "count"),
        "ls_estimator.ratio_evals": (per_batch(tracer.sums, "ls_estimator.ratio_evals"), "count"),
        "regularity.h_profile_calls": (calls("regularity.h_profile"), "count"),
        "regularity.direct_check_calls": (calls("regularity.direct_regularity_check"), "count"),
        "mixing.evolve_calls": (calls("mixing.evolve"), "count"),
        "mixing.distances_calls": (calls("mixing.distances"), "count"),
        "dirichlet_gap.dirichlet_calls": (calls("dirichlet_gap.dirichlet"), "count"),
        "dirichlet_gap.spectral_gap_s": (per_batch(tracer.group_time, "dirichlet_gap.spectral_gap"), "s"),
        "generators.build_s": (per_batch(tracer.group_time, "generators.build"), "s"),
        "generators.propagator_calls": (prop, "count"),
        "generators.propagator_hit_ratio": (1.0 - expm / prop if prop else 0.0, "ratio"),
        "lp_space.ent_calls": (per_batch(tracer.group_calls, "lp_space.ent"), "count"),
        "lp_space.sigma_power_calls": (calls("lp_space.WeightedSpace.sigma_power"), "count"),
        "operator_core.validate_calls": (calls("operator_core.as_matrix",
                                               "operator_core.require_hermitian"), "count"),
        "operator_core.matrix_function_calls": (calls("operator_core.matrix_function"), "count"),
        "linalg.busy_s": (selfs.get("linalg", 0.0) / nb, "s"),
        "linalg.eig_calls": (calls("linalg.eigh", "linalg.eigvalsh", "linalg.eigsh"), "count"),
        "linalg.expm_calls": (expm, "count"),
        "linalg.n3_sum": (per_batch(tracer.sums, "linalg.n3_sum"), "n3"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
        "trace.wall_s": (trace_wall, "s"),
        "trace.unattributed_s": (trace_wall - attributed, "s"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.jsonl"
    tracer.dump(dump)
    print(f"{args.workload} seed={args.seed}: traced batches={nb} untraced batches={len(plain)} "
          f"spans={len(tracer.spans)} written to {dump.relative_to(ROOT)}")
    print("layers " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in m.items()))
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, attempted, failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def import_program():
    """Pin the BLAS threads, then import qmix from this checkout's ``src/``.
    Returns the thread count; raises RuntimeError when the sources are
    missing or qmix would come from elsewhere."""
    threads = n_cores()
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(threads)
    if not (SRC / "qmix" / "__init__.py").is_file():
        raise RuntimeError(f"no qmix sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import scipy.optimize  # noqa: F401  imported lazily by qmix; part of set-up
    import scipy.sparse.linalg  # noqa: F401

    import qmix
    for m in QMIX_MODULES:
        __import__(f"qmix.{m}")
    if Path(qmix.__file__).resolve().parent != SRC / "qmix":
        raise RuntimeError(f"imported qmix from {qmix.__file__}, not from {SRC}")
    return threads


def main(argv=None):
    args = parse_args(argv)
    try:
        threads = import_program()
    except RuntimeError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    from workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        warm = [wl.warmup]
        _, _, errors = run_ops(warm)
        warm_failed = sum(1 for p in check_ops(warm, errors) if p)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:  # a failed warm-up is counted by the measuring process
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("env " + json.dumps(environment(threads)))
        if args.trace:
            metrics, attempted, failed = measure_traced(args, wl, warm_failed)
        else:
            metrics, attempted, failed = measure(args, wl, setup_s, warm_failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
