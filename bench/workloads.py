"""The four benchmark workloads: seeded inputs, the ops that run them through
qmix's public entry points, and the checks that every op's output must pass.

Inputs are made here with numpy alone, never with qmix's own random
generator functions, so that a change to the program cannot change what it
is fed.  Every op builds its generator afresh from a spec file or a scan
seed, so no program cache carries over from one op to the next.

A workload exposes:

* ``prepare()`` -- write the inputs into the work directory and return the
  batch, a fixed list of ``Op``;
* ``warmup`` -- the op run once, untimed, during set-up (the cheapest one);
* ``start_batch()`` -- clear the previous batch's outputs before the batch
  is timed.

An op's ``run()`` is the timed call.  Its ``check()`` runs after the batch,
outside the timed region, and returns a list of problems (empty when the
output is right).  ``corrupt()`` damages a finished op's output the way a
wrong program would, for the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# qmix modules are looked up through these module objects at call time, so
# that the tracer's wrappers (installed on the module attributes) are seen.
from qmix import cli, dirichlet_gap, mixing

ANALYZE_FLAGS = ["--budget", "100", "--probes", "3"]
MIXING_EPSILON = 0.01
MIXING_T_GRID = np.linspace(0.0, 10.0, 9)
MIXING_N_HAAR = 6
SCAN_BATCH = 60

# tolerances taken from the acceptance criteria and the mixing docstrings
ALPHA2_REL_TOL = 1e-3
DOMINATION_SLACK = 1e-7
EXACT_GAP_TOL = 1e-10


# ---------------------------------------------------------------------------
# Seeded inputs (numpy only)
# ---------------------------------------------------------------------------

def _mat(a) -> list:
    """Matrix in the spec schema: nested row-major [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(a)]


def _ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _hermitian(rng, d):
    a = _ginibre(rng, d)
    return 0.5 * (a + a.conj().T)


def _haar(rng, d):
    q, r = np.linalg.qr(_ginibre(rng, d) / np.sqrt(2.0))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def davies_spec(rng, d):
    """Thermal generator: random nondegenerate H, one Hermitian coupling."""
    energies = np.sort(rng.uniform(0.0, 2.0, size=d))
    u = _haar(rng, d)
    h = u @ np.diag(energies) @ u.conj().T
    return {"family": "davies", "hamiltonian": _mat(0.5 * (h + h.conj().T)),
            "couplings": [_mat(_hermitian(rng, d))],
            "beta": float(rng.uniform(0.2, 1.5))}


def reversible_unital_spec(rng, d):
    """Jump pair {A, A^dag}: reversible and unital."""
    a = _ginibre(rng, d) / np.sqrt(2 * d)
    return {"family": "generic", "hamiltonian": None,
            "lindblad_ops": [_mat(a), _mat(a.conj().T)]}


def generic_spec(rng, d):
    """Hamiltonian plus two random jumps: not reversible, so hat != L."""
    ops = [_ginibre(rng, d) / np.sqrt(2 * d) for _ in range(2)]
    return {"family": "generic", "hamiltonian": _mat(_hermitian(rng, d)),
            "lindblad_ops": [_mat(k) for k in ops]}


def projection_spec(rng, d):
    a = _ginibre(rng, d)
    s = a @ a.conj().T + 0.05 * d * np.eye(d)
    s = s / np.trace(s).real
    return {"family": "projection", "sigma": _mat(0.5 * (s + s.conj().T)), "gamma": 1.0}


def depolarizing_spec(d):
    return {"family": "depolarizing", "dim": d, "gamma": 1.0}


def depolarizing_alpha2_exact(d: int, gamma: float) -> float:
    """Closed-form LS_2 constant of the depolarizing generator, written out
    here so that the check does not rest on the code it checks."""
    if d == 2:
        return gamma
    return 2.0 * gamma * (1.0 - 2.0 / d) / math.log(d - 1.0)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class Op:
    """One timed call into qmix.  Subclasses set ``label``."""

    label = ""

    def reset(self):
        """Clear the outputs of a previous batch (untimed)."""

    def run(self):
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError

    def corrupt(self):
        raise NotImplementedError


class AnalyzeOp(Op):
    """``qmix analyze <spec> --seed s --out <report> <flags>``, in process."""

    def __init__(self, label, spec_path, out_path, seed, flags,
                 expect_ls, alpha2_exact=None):
        self.label = label
        self.out_path = out_path
        self.argv = ["analyze", spec_path, "--seed", str(seed),
                     "--out", out_path] + list(flags)
        self.expect_ls = expect_ls
        self.alpha2_exact = alpha2_exact
        self.rc = None

    def reset(self):
        self.rc = None
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def run(self):
        self.rc = cli.main(self.argv)

    def check(self):
        if self.rc != 0:
            return [f"exit code {self.rc}"]
        try:
            report = _read_json(self.out_path)
        except (OSError, ValueError) as exc:
            return [f"report unreadable: {exc}"]
        problems = []
        if report.get("gap", {}).get("method") != "eigen_symmetrization":
            problems.append(f"gap method {report.get('gap', {}).get('method')!r}")
        reg = report.get("regularity")
        if reg is None:
            problems.append("regularity section is null")
        if self.expect_ls:
            ls = report.get("ls")
            if ls is None:
                problems.append("ls section is null")
            elif self.alpha2_exact is not None:
                est = ls["alpha2"]["alpha_estimate"]
                rel = abs(est - self.alpha2_exact) / self.alpha2_exact
                if not rel <= ALPHA2_REL_TOL:
                    problems.append(f"alpha2 {est!r} vs exact {self.alpha2_exact!r}")
        else:
            if "ls" in report:
                problems.append("ls section present although skipped")
            if reg is not None:
                v = reg.get("verdicts", {})
                if not (v.get("convex") is True and v.get("symmetric") is True
                        and v.get("completely_monotone_to_order") == 6):
                    problems.append(f"regularity verdicts {v}")
                if reg.get("failures"):
                    problems.append(f"{len(reg['failures'])} h-profile failures")
        return problems

    def corrupt(self):
        report = _read_json(self.out_path)
        if self.expect_ls:
            report["ls"] = None
        else:
            report["regularity"]["verdicts"]["convex"] = False
        _write_json(self.out_path, report)


class MixingOp(Op):
    """The part of ``qmix mixing`` after the LS estimate: spec -> generator
    -> spectral gap -> chi^2 bound curve -> tau_mix(0.01)."""

    def __init__(self, label, spec_path, seed, exact_gap=None):
        self.label = label
        self.spec_path = spec_path
        self.seed = seed
        self.exact_gap = exact_gap
        self.out = None

    def reset(self):
        self.out = None

    def run(self):
        data = _read_json(self.spec_path)
        g = cli.load_generator_spec(data)
        gap = dirichlet_gap.spectral_gap(g, seed=self.seed)
        curve = mixing.bound_curves(g, gap.lam, None, MIXING_T_GRID,
                                    n_haar=MIXING_N_HAAR, seed=self.seed)
        tau = mixing.mixing_time(g, MIXING_EPSILON, n_haar=MIXING_N_HAAR,
                                 seed=self.seed)
        sigma_min = g.stationary.sigma_min
        self.out = {
            "lambda": gap.lam,
            "domination_margin": curve.domination_margin,
            "tau_mix": tau,
            "chi2_crossing": math.log(math.sqrt(1.0 / sigma_min) / MIXING_EPSILON) / gap.lam,
        }

    def check(self):
        out = self.out
        if out is None:
            return ["no output"]
        problems = []
        if not out["domination_margin"] >= -DOMINATION_SLACK:
            problems.append(f"chi2 domination margin {out['domination_margin']!r}")
        if not out["tau_mix"] <= out["chi2_crossing"]:
            problems.append(f"tau_mix {out['tau_mix']!r} after chi2 crossing "
                            f"{out['chi2_crossing']!r}")
        if self.exact_gap is not None and not abs(out["lambda"] - self.exact_gap) <= EXACT_GAP_TOL:
            problems.append(f"gap {out['lambda']!r} != exact {self.exact_gap!r}")
        return problems

    def corrupt(self):
        self.out["tau_mix"] = 2.0 * self.out["chi2_crossing"] + 1.0


class ScanOp(Op):
    """Scan instance ``index``: ``qmix scan --n index+1 --resume`` appends
    exactly that instance's record to the JSONL file."""

    def __init__(self, index, seed, out_path):
        self.index = index
        self.label = f"scan[{index}]"
        self.out_path = out_path
        self.argv = ["scan", "--dims", "2,3", "--jobs", "1", "--n", str(index + 1),
                     "--seed", str(seed), "--out", out_path, "--resume"]
        self.rc = None
        self.stdout = ""

    def reset(self):
        self.rc = None
        self.stdout = ""

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.rc = cli.main(self.argv)
        self.stdout = buf.getvalue()

    def check(self):
        if self.rc != 0:
            return [f"exit code {self.rc}"]
        problems = []
        try:
            summary = json.loads(self.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return [f"unreadable summary {self.stdout!r}"]
        if summary.get("instances") != 1 or summary.get("start_index") != self.index:
            problems.append(f"summary {summary}")
        try:
            with open(self.out_path) as fh:
                lines = fh.read().splitlines()
            rec = json.loads(lines[self.index])
        except (OSError, ValueError, IndexError) as exc:
            return problems + [f"record {self.index} unreadable: {exc}"]
        if rec.get("index") != self.index:
            problems.append(f"record index {rec.get('index')!r}")
        if "error" in rec:
            problems.append(f"error record: {rec['error']}")
        return problems

    def corrupt(self):
        with open(self.out_path) as fh:
            lines = fh.read().splitlines()
        rec = json.loads(lines[self.index])
        rec["error"] = "corrupted"
        lines[self.index] = json.dumps(rec)
        with open(self.out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.batch: list = []
        self.warmup: Op | None = None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def start_batch(self):
        """Reset per-batch state before the batch is timed."""
        for op in self.batch:
            op.reset()


class AnalyzeWorkload(Workload):
    """``qmix analyze`` on five d <= 6 specs.  The log-Sobolev search does
    most of the work: Nelder-Mead ratio evaluations through ``lp_space.ent``
    and ``dirichlet_gap.dirichlet``, bound by Python and validation overhead
    rather than kernels.  ``regularity`` takes about a tenth; ``mixing``
    never runs."""

    name = "analyze"

    def prepare(self):
        rng = self.rng
        specs = [  # cheapest first: it is also the warm-up op
            ("reversible_unital_d3", reversible_unital_spec(rng, 3), None),
            ("generic_d3", generic_spec(rng, 3), None),
            ("davies_d3", davies_spec(rng, 3), None),
            ("davies_d4", davies_spec(rng, 4), None),
            ("depolarizing_d6", depolarizing_spec(6), depolarizing_alpha2_exact(6, 1.0)),
        ]
        for label, spec, exact in specs:
            spec_path = self.path(f"analyze_{label}.json")
            _write_json(spec_path, spec)
            self.batch.append(AnalyzeOp(label, spec_path,
                                        self.path(f"analyze_{label}.report.json"),
                                        self.seed, ANALYZE_FLAGS, True, exact))
        self.warmup = self.batch[0]
        return self.batch


class RegularityWorkload(Workload):
    """``qmix analyze --skip ls`` on reversible d = 2..4 specs.  The h(s)
    path carries nearly all of it: ``regularity.h_profile`` with
    ``lp_space.sigma_power`` (201 exponents per profile against a 64-entry
    cache), ``operator_core.matrix_function`` and propagators.  No LS
    search runs, so this path is not a mere tenth of ``analyze``."""

    name = "regularity"

    def prepare(self):
        rng = self.rng
        specs = [
            ("davies_d2", davies_spec(rng, 2)),
            ("depolarizing_d4", depolarizing_spec(4)),
            ("projection_d3", projection_spec(rng, 3)),
            ("davies_d3", davies_spec(rng, 3)),
            ("davies_d4", davies_spec(rng, 4)),
        ]
        for label, spec in specs:
            spec_path = self.path(f"regularity_{label}.json")
            _write_json(spec_path, spec)
            self.batch.append(AnalyzeOp(label, spec_path,
                                        self.path(f"regularity_{label}.report.json"),
                                        self.seed, ["--skip", "ls"], False))
        self.warmup = self.batch[0]
        return self.batch


class MixingWorkload(Workload):
    """The ``qmix mixing`` path after its LS estimate, on dense d = 8, 8, 16
    and closed-form d = 64 generators.  Time goes to ``mixing.evolve`` and
    ``distances``, propagators (``expm``, bisection cache misses) and
    large-n kernels; ``ls_estimator`` and ``regularity`` are bypassed.  The
    CLI command itself is not driven because its LS_1 step would dominate."""

    name = "mixing"

    def prepare(self):
        rng = self.rng
        cases = [  # cheapest first: it is also the warm-up op
            ("generic_d8", generic_spec(rng, 8), None),
            ("davies_d8", davies_spec(rng, 8), None),
            ("reversible_unital_d16", reversible_unital_spec(rng, 16), None),
            ("depolarizing_d64", depolarizing_spec(64), 1.0),
        ]
        for label, spec, exact_gap in cases:
            spec_path = self.path(f"mixing_{label}.json")
            _write_json(spec_path, spec)
            self.batch.append(MixingOp(label, spec_path, self.seed, exact_gap))
        self.warmup = self.batch[0]
        return self.batch


class ScanWorkload(Workload):
    """``qmix scan --dims 2,3 --jobs 1``, one op per instance: a fresh random
    generator (null-space SVD, detailed-balance check) and
    ``direct_regularity_check`` at p outside {1, 2}, hundreds of short ops.
    Single-threaded; parallel scaling is left out."""

    name = "scan"

    def prepare(self):
        self.out_path = self.path("scan.jsonl")
        self.batch = [ScanOp(i, self.seed, self.out_path) for i in range(SCAN_BATCH)]
        self.warmup = ScanOp(0, self.seed, self.path("scan_warmup.jsonl"))
        return self.batch

    def start_batch(self):
        super().start_batch()
        if os.path.exists(self.out_path):
            os.remove(self.out_path)


WORKLOADS = {w.name: w for w in (AnalyzeWorkload, RegularityWorkload,
                                 MixingWorkload, ScanWorkload)}
