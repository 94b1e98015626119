"""Full-precision outputs of every benchmark op, for bit-for-bit comparisons.

    python3 tools/fingerprint.py --seed 1 --out fp_new

Runs each op of the four benchmark workloads (``bench/workloads.py``,
imported unchanged, with the same seeded inputs and BLAS thread count as
``bench/run.py``) once, in batch order, checks its output as the benchmark
does, and writes into ``--out``:

* ``analyze_<label>.json`` and ``regularity_<label>.json`` -- the reports,
  without ``provenance.wall_time``;
* ``mixing_<label>.txt`` -- ``repr`` of the mixing op's output dict;
* ``scan.jsonl`` -- the scan file as the 60 scan ops wrote it;
* ``library.txt`` -- ``repr`` of library calls that no bench op makes, on
  numpy-only inputs seeded by ``--seed``: the closed-form evolutions
  (depolarizing d = 3 and 64, projection d = 3), the hat evolution of both
  families at d = 4, ``entropy_decay_check``, ``pq_norm`` of the hat,
  ``two_two_norm_decay`` and ``h_profile`` at d = 3, and on the generic
  d = 3 generator the hat Dirichlet form ``dirichlet(hat_generator(g), p, f)``
  at p = 1, 1.5 and 2, ``estimate_alpha(g, 2, use_hat=True, budget=60,
  restarts=2)`` and ``entropy_production``;
* ``cli_errors.txt`` -- the exit code and stderr of ``qmix analyze`` and
  ``qmix mixing`` (``--seed 0``) on four failing specs: a pure-Hamiltonian
  generator, ``{not json``, an unknown family and a depolarizing spec
  without ``gamma`` (the spec directory reads ``<dir>``).

JSON and ``repr`` print every float in full, so two trees compute the same
numbers exactly when ``diff -r`` of their directories finds nothing.  To
compare a change with its parent, copy this file into a checkout of the
parent (it imports qmix from the checkout it sits in) and run both trees
side by side, one right after the other on the same machine: the
``reversible_unital_d16`` mixing op samples from the eigenprojectors of a
degenerate sigma, and its ``tau_mix`` has moved between two runs of the
same code taken 50 minutes apart.  Exits 1 when an op fails its check.
"""

import argparse
import contextlib
import io
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


def library_lines(seed: int) -> list:
    """``name: repr(value)`` of each library call listed in the docstring."""
    import numpy as np

    from qmix.dirichlet_gap import dirichlet
    from qmix.generators import build_depolarizing, build_lindblad, build_projection, hat_generator
    from qmix.ls_estimator import estimate_alpha
    from qmix.mixing import entropy_decay_check, entropy_production, pq_norm, two_two_norm_decay
    from qmix.regularity import h_profile

    rng = np.random.default_rng(seed)

    def matrix(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def positive(d):
        a = matrix(d)
        m = a @ a.conj().T + 0.1 * np.eye(d)
        return 0.5 * (m + m.conj().T)

    def state(d):
        m = positive(d)
        return m / np.trace(m).real

    def full(value):  # arrays as nested lists, whose repr keeps every bit
        return value.tolist() if isinstance(value, np.ndarray) else value

    lines = []

    def record(name, value):
        lines.append(f"{name}: {full(value)!r}")

    gens = {"depolarizing_d3": build_depolarizing(3, 1.3),
            "depolarizing_d64": build_depolarizing(64, 0.7),
            "projection_d3": build_projection(state(3), 0.9)}
    for name, g in gens.items():
        x = matrix(g.dim)
        for t in (0.25, 1.5):
            record(f"{name}.evolve_heisenberg(t={t})", g.evolve_heisenberg(x, t))
            record(f"{name}.evolve_schrodinger(t={t})", g.evolve_schrodinger(x, t))
    for name, g in (("depolarizing_d4", build_depolarizing(4, 1.1)),
                    ("projection_d4", build_projection(state(4), 0.8))):
        record(f"hat({name}).evolve_heisenberg", hat_generator(g).evolve_heisenberg(matrix(4), 0.6))
    generic = build_lindblad(0.5 * (positive(3) - positive(3)), [matrix(3) / 3, matrix(3) / 3])
    for name, g in (("projection_d3", gens["projection_d3"]), ("generic_d3", generic)):
        f0 = positive(3)
        record(f"{name}.entropy_decay_check",
               entropy_decay_check(g, 0.1, f0, [0.2, 0.7], lam=0.1))
        record(f"hat({name}).pq_norm",
               pq_norm(hat_generator(g), 2.0, 4.0, 0.5, restarts=2, budget=60, seed=seed))
        record(f"{name}.two_two_norm_decay", two_two_norm_decay(g, 0.5))
        record(f"{name}.h_profile", h_profile(g, positive(3), 0.5, np.linspace(0.0, 2.0, 9)))
    f = positive(3)
    for p in (1.0, 1.5, 2.0):
        record(f"hat(generic_d3).dirichlet(p={p})", dirichlet(hat_generator(generic), p, f))
    rep = estimate_alpha(generic, 2, use_hat=True, budget=60, restarts=2)
    record("generic_d3.estimate_alpha(p=2, use_hat=True)", rep.to_dict())
    record("generic_d3.estimate_alpha(p=2, use_hat=True).witness", rep.witness)
    record("generic_d3.entropy_production", entropy_production(generic, state(3)))
    return lines


def cli_error_lines(work: str) -> list:
    """Exit code and stderr of each CLI run listed in the docstring."""
    from qmix.cli import main as qmix_main

    specs = {"pure_hamiltonian.json": json.dumps(
                 {"family": "generic", "hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                  "lindblad_ops": []}),
             "not_json.json": "{not json",
             "unknown_family.json": json.dumps({"family": "unheard_of"}),
             "no_gamma.json": json.dumps({"family": "depolarizing", "dim": 3})}
    lines = []
    for name, text in specs.items():
        path = Path(work) / name
        path.write_text(text)
        for command in ("analyze", "mixing"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    result = f"exit {qmix_main([command, str(path), '--seed', '0'])}"
                except Exception as exc:  # noqa: BLE001 - a crash is an output to compare
                    result = f"raised {type(exc).__name__}: {exc}"
            lines.append(f"{command} {name}: {result}")
            lines += ["  " + line for line in err.getvalue().replace(work, "<dir>").splitlines()]
    return lines


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
        (out / "cli_errors.txt").write_text("\n".join(cli_error_lines(work)) + "\n")
    (out / "library.txt").write_text("\n".join(library_lines(args.seed)) + "\n")
    print(f"fingerprint seed={args.seed}: outputs in {out}, {failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
