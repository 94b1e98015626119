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
  at p = 1, 1.5 and 2, ``estimate_alpha(g, 2, budget=60, restarts=2)``
  and ``entropy_production``; the L_p functionals on
  ``WeightedSpace`` of a random d = 3 state and a positive f:
  ``lp_norm(3, f)``, ``power_operator(3, 1.5, f)``,
  ``op_relative_entropy(1.5, f)``, ``ent`` at p = 1.5 and 3 and
  ``norm_derivative_check(f, 1.5 + t, 0.3)``; on the generic d = 3
  generator ``dirichlet`` at p = 3, ``direct_regularity_check(g, probes=4,
  seed=--seed)`` and ``h_functional``; ``h_profile`` of depolarizing
  d = 4 on a 101-point grid; and ``direct_regularity_check(g, p_grid=(1.0,
  1.1, 2.0, 3.0), probes=5, seed=--seed)`` on the hat of the generic d = 3
  generator, on depolarizing d = 4 and on a random Davies d = 3 generator
  (the p = 1 branch, the hat and the closed-form stacks); the gap report
  of ``spectral_gap(hat_generator(g), n_witnesses=17, seed=--seed)`` on the
  generic d = 3 generator; and ``regularity_profile(g, probes=5, times=(0.1,
  0.7), grid_n=41, seed=--seed).to_dict()`` on the hat of the generic d = 3
  generator and on the projection d = 3 generator (a hat, a grid, times and
  a witness count that no bench op uses); ``super_L`` and ``super_Lstar``
  of the generic d = 3, a random Davies d = 3, depolarizing d = 4,
  projection d = 3, hat(generic d = 3), tensor-qubit N = 2 and
  random-unitary d = 4 generators; and ``lazy_channel_super`` and
  ``discrete_vs_continuous(lazy, 3, rho0)`` on a lazy channel drawn as in
  acceptance criterion 9 (the first primitive draw); and last, so that the
  draws above stay as they were, ``estimate_alpha(h, 1, budget=80,
  restarts=3, seed=--seed)`` on the hat h of a random Davies d = 3
  generator, once with two positive ``extra_starts`` and once with
  ``budget=5``, below d^2 + 1, so that every Nelder-Mead restart stops
  inside its first simplex; and after them the full ``bound_curves``
  columns and ``mixing_time`` of depolarizing d = 64 at gamma = 1, with the
  mixing op's grid, ``n_haar``, epsilon and ``--seed``, whose state chunks
  run on two threads (the mixing ops record only lambda, margin and tau);
  and after those ``regularity_profile(g, probes=3, times=(0.3,),
  seed=--seed).to_dict()`` on a generic d = 16 generator, on the default
  grid, where the probe stack runs one probe per chunk; and last
  ``estimate_alpha(build_depolarizing(6, 1.0), 1, budget=60, restarts=2,
  seed=--seed)``, whose Nelder-Mead starts take the log of line and spike
  points, the one place where the library symmetrizes a matrix it built
  before decomposing it;
* ``cli_errors.txt`` -- the exit code and stderr of ``qmix analyze`` and
  ``qmix mixing`` (``--seed 0``) on four failing specs: a pure-Hamiltonian
  generator, ``{not json``, an unknown family and a depolarizing spec
  without ``gamma`` (the spec directory reads ``<dir>``);
* ``blas.txt`` -- the thread count of each bundled OpenBLAS, read through
  ``qmix._blas`` after the ops ran, so that a change of the thread policy
  shows in the diff.

JSON and ``repr`` print every float in full, so two trees compute the same
numbers exactly when ``diff -r`` of their directories finds nothing.  To
compare a change with its parent, copy this file into a checkout of the
parent (it imports qmix from the checkout it sits in) and run both trees
on the same machine; ``tools/fingerprint_diff.py`` compares the two
directories as CI does, allowing report keys that only the change has.
Both must compute on the same number of BLAS threads: the
``reversible_unital_d16`` mixing op samples from the eigenprojectors of a
degenerate sigma, and that basis follows the bits of sigma's null-space
SVD, which change with the thread count.  qmix runs
kernels on superoperators of d <= 16 on one thread whatever the
environment says, and no op here is larger, so two runs of one build
agree.  Exits 1 when an op fails its check.
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

    from qmix.dirichlet_gap import dirichlet, spectral_gap
    from qmix.generators import (build_depolarizing, build_lindblad, build_projection,
                                 build_random_unitary, build_tensor_qubit_depolarizing,
                                 hat_generator, lift_channel, random_davies)
    from qmix.lp_space import WeightedSpace
    from qmix.ls_estimator import estimate_alpha
    from qmix.mixing import (bound_curves, discrete_vs_continuous, entropy_decay_check,
                             entropy_production, lazy_channel_super, mixing_time, pq_norm,
                             two_two_norm_decay)
    from qmix.operator_core import haar_unitary, random_density_matrix
    from qmix.regularity import (direct_regularity_check, h_functional, h_profile,
                                 regularity_profile)
    from workloads import MIXING_EPSILON, MIXING_N_HAAR, MIXING_T_GRID

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
    rep = estimate_alpha(generic, 2, budget=60, restarts=2)
    record("generic_d3.estimate_alpha(p=2)", rep.to_dict())
    record("generic_d3.estimate_alpha(p=2).witness", rep.witness)
    record("generic_d3.entropy_production", entropy_production(generic, state(3)))
    space, f = WeightedSpace(state(3)), positive(3)
    record("lp_d3.lp_norm(p=3.0)", space.lp_norm(3.0, f))
    record("lp_d3.power_operator(p=3.0, q=1.5)", space.power_operator(3.0, 1.5, f))
    record("lp_d3.op_relative_entropy(p=1.5)", space.op_relative_entropy(1.5, f))
    for p in (1.5, 3.0):
        record(f"lp_d3.ent(p={p})", space.ent(p, f))
    record("lp_d3.norm_derivative_check",
           space.norm_derivative_check(f, lambda t: 1.5 + t, 0.3))
    record("generic_d3.dirichlet(p=3.0)", dirichlet(generic, 3.0, f))
    record("generic_d3.direct_regularity_check",
           direct_regularity_check(generic, probes=4, seed=seed))
    record("generic_d3.h_functional(t=0.5, s=0.7)", h_functional(generic, f, 0.5, 0.7))
    record("depolarizing_d4.h_profile", h_profile(build_depolarizing(4, 1.0), positive(4), 0.5,
                                                  np.linspace(0.0, 2.0, 101)))
    for name, g in (("hat(generic_d3)", hat_generator(generic)),
                    ("depolarizing_d4", build_depolarizing(4, 1.0)),
                    ("davies_d3", random_davies(3, rng))):
        record(f"{name}.direct_regularity_check(p_grid=(1.0, 1.1, 2.0, 3.0), probes=5)",
               direct_regularity_check(g, p_grid=(1.0, 1.1, 2.0, 3.0), probes=5, seed=seed))
    record("hat(generic_d3).spectral_gap(n_witnesses=17)",
           spectral_gap(hat_generator(generic), n_witnesses=17, seed=seed).to_dict())
    for name, g in (("hat(generic_d3)", hat_generator(generic)),
                    ("projection_d3", gens["projection_d3"])):
        record(f"{name}.regularity_profile(probes=5, times=(0.1, 0.7), grid_n=41)",
               regularity_profile(g, probes=5, times=(0.1, 0.7), grid_n=41, seed=seed).to_dict())
    for name, g in (("generic_d3", generic), ("davies_d3", random_davies(3, rng)),
                    ("depolarizing_d4", build_depolarizing(4, 1.0)),
                    ("projection_d3", gens["projection_d3"]),
                    ("hat(generic_d3)", hat_generator(generic)),
                    ("tensor_qubit_n2", build_tensor_qubit_depolarizing(2)),
                    ("random_unitary_d4", build_random_unitary(4, 2, seed))):
        record(f"{name}.super_L", g.super_L)
        record(f"{name}.super_Lstar", g.super_Lstar)
    while True:  # a lazy channel as in acceptance criterion 9, redrawn until primitive
        u, v = haar_unitary(3, rng), haar_unitary(3, rng)
        s_kraus = [0.5 * u, 0.5 * u.conj().T, 0.5 * v, 0.5 * v.conj().T]
        lazy = [np.sqrt(0.5) * np.eye(3)] + [np.sqrt(0.5) * k for k in s_kraus]
        rho0 = random_density_matrix(3, rng)
        g = lift_channel(lazy)
        if g.primitive:
            break
    record("lazy_d3.lazy_channel_super", lazy_channel_super(g))
    record("lazy_d3.discrete_vs_continuous(n=3)", discrete_vs_continuous(lazy, 3, rho0))
    hat = hat_generator(random_davies(3, rng))
    for name, kwargs in (("extra_starts", {"extra_starts": [positive(3), positive(3)]}),
                         ("budget=5", {"budget": 5})):  # 5 < d^2 + 1: a cut first simplex
        rep = estimate_alpha(hat, 1, **{"budget": 80, "restarts": 3, "seed": seed, **kwargs})
        record(f"hat(davies_d3).estimate_alpha(p=1, {name})", rep.to_dict())
        record(f"hat(davies_d3).estimate_alpha(p=1, {name}).witness", rep.witness)
    g = build_depolarizing(64, 1.0)  # the mixing op's case, whose state chunks run on two threads
    record("depolarizing_d64.bound_curves",
           bound_curves(g, 1.0, None, MIXING_T_GRID, n_haar=MIXING_N_HAAR, seed=seed).to_json())
    record("depolarizing_d64.mixing_time",
           mixing_time(g, MIXING_EPSILON, n_haar=MIXING_N_HAAR, seed=seed))
    g = build_lindblad(0.5 * (positive(16) - positive(16)), [matrix(16) / 16, matrix(16) / 16])
    record("generic_d16.regularity_profile(probes=3, times=(0.3,))",
           regularity_profile(g, probes=3, times=(0.3,), seed=seed).to_dict())
    rep = estimate_alpha(build_depolarizing(6, 1.0), 1, budget=60, restarts=2, seed=seed)
    record("depolarizing_d6.estimate_alpha(p=1, budget=60, restarts=2)", rep.to_dict())
    record("depolarizing_d6.estimate_alpha(p=1, budget=60, restarts=2).witness", rep.witness)
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
    from qmix._blas import _LIBS
    (out / "blas.txt").write_text(f"{[get() for _, get, _ in _LIBS]!r}\n")
    print(f"fingerprint seed={args.seed}: outputs in {out}, {failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
