"""Command-line surface: qmix analyze | mixing | reproduce | scan.

Exit codes: 0 success, 1 malformed or unreadable input spec, or a usage
error (an unknown or malformed flag, checked by the parser before any
computation), 2 non-primitive generator, 3 theory-verdict violation (so CI
jobs can gate on consistency).  Errors go to stderr, one JSON line each.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .dirichlet_gap import spectral_gap
from .generators import (
    DaviesSpec,
    Generator,
    NotPrimitiveError,
    build_davies,
    build_depolarizing,
    build_lindblad,
    build_projection,
    build_random_unitary,
    build_tensor_qubit_depolarizing,
    lift_channel,
    stationary_state,
)
from .lp_space import PositivityError
from .ls_estimator import (
    depolarizing_alpha2,
    estimate_alpha,
    expander_alpha2_upper,
    partial_order_verdict,
    unital_alpha2_lower,
)
from .mixing import bound_curves, lazy_channel_super, mixing_time
from .operator_core import matrix_from_json
from .regularity import conjecture_scan, regularity_profile

EXIT_OK = 0
EXIT_BAD_SPEC = 1
EXIT_NOT_PRIMITIVE = 2
EXIT_VERDICT = 3

# what the numerics of an analyze section raise; any other error is a bug
SECTION_ERRORS = (PositivityError, NotPrimitiveError, ArithmeticError, np.linalg.LinAlgError)


def _err(message: str, **extra) -> None:
    sys.stderr.write(json.dumps({"error": message, **extra}) + "\n")


def load_generator_spec(data: dict) -> Generator:
    """Build a Generator from the JSON input schema (see README)."""
    if not isinstance(data, dict) or "family" not in data:
        raise ValueError("spec must be an object with a 'family' field")
    family = data["family"]
    try:
        if family == "generic":
            ham = data.get("hamiltonian")
            ham = matrix_from_json(ham) if ham is not None else None
            ops = [matrix_from_json(m) for m in data.get("lindblad_ops", [])]
            return build_lindblad(ham, ops)
        if family == "depolarizing":
            return build_depolarizing(int(data["dim"]), float(data["gamma"]))
        if family == "projection":
            return build_projection(matrix_from_json(data["sigma"]), float(data["gamma"]))
        if family == "davies":
            spec = DaviesSpec(
                hamiltonian=matrix_from_json(data["hamiltonian"]),
                coupling_ops=[matrix_from_json(m) for m in data["couplings"]],
                beta=float(data["beta"]),
                bohr_tol=float(data["bohr_tol"]) if "bohr_tol" in data else None)
            return build_davies(spec)
        if family == "channel":
            g = lift_channel([matrix_from_json(m) for m in data["kraus"]])
            if data.get("lazy"):
                lazy_channel_super(g)
            return g
        if family == "random_unitary":
            return build_random_unitary(int(data["dim"]), int(data["D"]),
                                        int(data["seed"]))
    except KeyError as exc:
        raise ValueError(f"missing field {exc} for family {family!r}") from exc
    raise ValueError(f"unknown family {family!r}")


def _load_spec_file(path: str) -> Generator:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
    return load_generator_spec(data)


def _load_primitive(path: str):
    """(g, EXIT_OK) for a spec of a primitive generator; otherwise the error
    goes to stderr and the result is (None, EXIT_BAD_SPEC) for a malformed
    spec or an unreadable file, (None, EXIT_NOT_PRIMITIVE) for a non-primitive
    generator."""
    try:
        g = _load_spec_file(path)
        stationary_state(g)
    except NotPrimitiveError as exc:
        _err(str(exc), kind="not_primitive")
        return None, EXIT_NOT_PRIMITIVE
    except (ValueError, OSError) as exc:  # GeneratorError included
        _err(str(exc), kind="bad_spec", path=path)
        return None, EXIT_BAD_SPEC
    return g, EXIT_OK


def _json_default(obj):
    """json.dumps hook: a numpy scalar as the Python number it holds; nothing
    else (an array, say) belongs in a report."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % (2 ** 31))
    sys.stderr.write(json.dumps({"info": "no --seed given", "seed": seed}) + "\n")
    return seed


def cmd_analyze(args) -> int:
    g, code = _load_primitive(args.spec)
    if g is None:
        return code
    t0 = time.time()
    seed = _resolve_seed(args)
    skip = set(args.skip.split(",")) if args.skip else set()
    report = {
        "generator": g.describe(),
        "sigma_min": g.stationary.sigma_min,
    }
    gap = spectral_gap(g, seed=seed)
    report["gap"] = gap.to_dict()
    if "ls" not in skip:
        # failed sub-computations yield an explicit null + reason, never a
        # fabricated number
        try:
            verdict = partial_order_verdict(g, budget=args.budget, seed=seed, gap=gap)
            report["ls"] = {
                "alpha1": verdict["report1"].to_dict(),
                "alpha2": verdict["report2"].to_dict(),
            }
            report["verdicts"] = {
                k: verdict[k] for k in
                ("alpha1", "alpha2", "lambda", "ok_alpha2_le_2alpha1",
                 "alpha1_le_lambda_applicable", "ok_alpha1_le_lambda")
            }
            bad = (verdict["ok_alpha2_le_2alpha1"] is False or
                   verdict["ok_alpha1_le_lambda"] is False)
            if bad:
                code = EXIT_VERDICT
        except SECTION_ERRORS as exc:
            report["ls"] = None
            report["verdicts"] = None
            report["ls_error"] = str(exc)
    if "regularity" not in skip:
        try:
            prof = regularity_profile(g, probes=args.probes, seed=seed)
            report["regularity"] = prof.to_dict()
        except SECTION_ERRORS as exc:
            report["regularity"] = None
            report["regularity_error"] = str(exc)
    report["provenance"] = {
        "seed": seed,
        "version": __version__,
        "wall_time": time.time() - t0,
    }
    payload = json.dumps(report, indent=1, sort_keys=True, default=_json_default)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return code


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def cmd_mixing(args) -> int:
    g, code = _load_primitive(args.spec)
    if g is None:
        return code
    seed = _resolve_seed(args)
    gap = spectral_gap(g, seed=seed)
    rep1 = estimate_alpha(g, 1, budget=args.budget, seed=seed, gap=gap)
    sp = g.stationary
    t_grid = np.linspace(0.0, args.t_max, args.grid_n)
    curve = bound_curves(g, gap.lam, rep1.alpha_estimate, t_grid,
                         n_haar=args.n_haar, seed=seed)
    if args.out_csv:
        curve.to_csv(args.out_csv)
    tau = mixing_time(g, args.epsilon, n_haar=args.n_haar, seed=seed, curve=curve)
    log_inv = np.log(1.0 / sp.sigma_min)
    t_chi = np.log(np.sqrt(1.0 / sp.sigma_min) / args.epsilon) / gap.lam
    t_ls = np.log(np.sqrt(2.0 * log_inv) / args.epsilon) / rep1.alpha_estimate
    print(json.dumps({
        "tau_mix": tau,
        "epsilon": args.epsilon,
        "lambda": gap.lam,
        "alpha1_estimate": rep1.alpha_estimate,
        "chi2_bound_crossing": t_chi,
        "ls_bound_crossing": t_ls,
        "domination_margin": curve.domination_margin,
        "n_states": curve.n_states,
    }, indent=1, sort_keys=True, default=_json_default))
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _repr_depolarizing_table(args):
    checks = []
    for d in range(2, 9):
        g = build_depolarizing(d, 1.0)
        rep = estimate_alpha(g, 2, budget=args.budget, restarts=4, seed=args.seed)
        exact = depolarizing_alpha2(d, 1.0)
        rel = abs(rep.alpha_estimate - exact) / exact
        checks.append((f"alpha2(depol d={d}): est={rep.alpha_estimate:.6f} "
                       f"exact={exact:.6f} rel_err={rel:.2e}", rel <= 1e-3))
    return checks


def _repr_tensor_qubit(args):
    sizes = (2, 3) if args.full else (2,)
    checks = []
    for n in sizes:
        g = build_tensor_qubit_depolarizing(n)
        rep = estimate_alpha(g, 2, budget=args.budget, restarts=3, seed=args.seed)
        tol = 2e-2 if n == 2 else 5e-2
        err = abs(rep.alpha_estimate - 1.0)
        checks.append((f"alpha2(tensor qubit N={n}): est={rep.alpha_estimate:.6f} "
                       f"target=1 err={err:.2e}", err <= tol))
    return checks


def _repr_expander(args):
    checks = []
    for d in (4, 8, 16):
        g = build_random_unitary(d, 2, seed=args.seed + d)
        gap = spectral_gap(g, seed=args.seed)
        rep = estimate_alpha(g, 2, budget=args.budget, restarts=4,
                             seed=args.seed, gap=gap)
        upper = expander_alpha2_upper(2, d)
        lower = unital_alpha2_lower(g, gap.lam)
        est = rep.alpha_estimate
        ok = est <= upper and est >= lower * (1.0 - 1e-3)
        checks.append((f"expander d={d}: {lower:.4f} <= alpha2_est={est:.4f} "
                       f"<= {upper:.4f} (lambda={gap.lam:.4f})", ok))
    return checks


def _repr_davies_qubit(args):
    import scipy.linalg
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    g = build_davies(DaviesSpec(hamiltonian=0.5 * z, coupling_ops=[x], beta=1.0))
    gap = spectral_gap(g, seed=args.seed)
    # independent oracle: dense eigenvalues of the (reversible, hence real
    # spectrum) superoperator itself
    ev = np.sort(scipy.linalg.eigvals(g.super_L).real)
    lam_brute = -ev[-2]
    checks = [(f"davies qubit gap: spectral={gap.lam:.8f} brute={lam_brute:.8f}",
               abs(gap.lam - lam_brute) <= 1e-9 * max(1.0, lam_brute))]
    prof = regularity_profile(g, probes=20, seed=args.seed)
    strong = (prof.verdicts["symmetric"]
              and prof.verdicts["completely_monotone_to_order"] >= 6
              and prof.verdicts["convex"])
    checks.append((f"davies qubit strong regularity evidence: {prof.verdicts}", strong))
    verdict = partial_order_verdict(g, budget=args.budget, seed=args.seed, gap=gap)
    checks.append((f"davies qubit alpha1={verdict['alpha1']:.5f} <= "
                   f"lambda={verdict['lambda']:.5f}",
                   bool(verdict["ok_alpha1_le_lambda"])))
    return checks


def cmd_reproduce(args) -> int:
    targets = {
        "depolarizing_table": _repr_depolarizing_table,
        "tensor_qubit": _repr_tensor_qubit,
        "expander": _repr_expander,
        "davies_qubit": _repr_davies_qubit,
    }
    if args.target not in targets:
        _err(f"unknown target {args.target!r}", known=sorted(targets))
        return EXIT_BAD_SPEC
    args.seed = _resolve_seed(args)
    checks = targets[args.target](args)
    all_ok = True
    for label, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VERDICT


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    import os
    seed = _resolve_seed(args)
    start = 0
    if args.resume and args.out and os.path.exists(args.out):
        # only newline-terminated records are finished; a partial last line
        # (an interrupted write) is cut off and its instance recomputed
        with open(args.out, "rb+") as fh:
            data = fh.read()
            start = data.count(b"\n")
            fh.truncate(data.rfind(b"\n") + 1)
    records = conjecture_scan(args.n, dims=args.dims, seed=seed,
                              out_path=args.out, probes=args.probes,
                              start_index=start, jobs=args.jobs)
    n_weak = sum(1 for r in records if r.get("weak_violation"))
    n_strong_rev = sum(1 for r in records
                       if r.get("strong_violation") and r.get("reversible"))
    print(json.dumps({"instances": len(records), "start_index": start,
                      "weak_violations": n_weak,
                      "strong_violations_reversible": n_strong_rev}))
    return EXIT_OK if n_weak == 0 and n_strong_rev == 0 else EXIT_VERDICT


class _UsageError(Exception):
    """An unknown, missing or malformed argument; `main` exits EXIT_BAD_SPEC."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors reach `main` as `_UsageError`
    (argparse itself would exit 2, the code of a non-primitive generator);
    its subparsers are of this class too."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _checked(kind, ok, rule: str):
    """An argparse type: kind(text), refused with `rule` unless ok(value).
    Text that kind() cannot parse gets argparse's own "invalid int value"
    message, which names the type by its __name__."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    convert.__name__ = kind.__name__
    return convert


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE_FLOAT = _checked(float, lambda v: 0.0 < v < np.inf, "positive and finite")
_NONNEGATIVE_FLOAT = _checked(float, lambda v: 0.0 <= v < np.inf, "finite and >= 0")


def _dims(text: str) -> tuple:
    parts = text.split(",")
    if not all(x.strip().isdecimal() and int(x) >= 1 for x in parts):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive integers, got {text!r}")
    return tuple(int(x) for x in parts)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The qmix argument parser, built once per process: parsing leaves no
    state in it, so every `main` call can share it."""
    parser = _Parser(
        prog="qmix",
        description="Spectral gaps, log-Sobolev constants, regularity evidence "
                    "and mixing bounds for quantum Markov semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for one generator spec")
    pa.add_argument("spec")
    pa.add_argument("--out", default=None)
    pa.add_argument("--seed", type=_NONNEGATIVE_INT, default=None,
                    help="omit for a logged random seed")
    pa.add_argument("--budget", type=_POSITIVE_INT, default=1000)
    pa.add_argument("--probes", type=_POSITIVE_INT, default=12)
    pa.add_argument("--skip", default="", help="comma-separated: ls,regularity")
    pa.set_defaults(func=cmd_analyze)

    pm = sub.add_parser("mixing", help="mixing curve, tau_mix and bound crossings")
    pm.add_argument("spec")
    pm.add_argument("--epsilon", type=_POSITIVE_FLOAT, default=0.01)
    pm.add_argument("--t-max", dest="t_max", type=_NONNEGATIVE_FLOAT, default=10.0)
    pm.add_argument("--grid-n", dest="grid_n", type=_POSITIVE_INT, default=41)
    pm.add_argument("--n-haar", dest="n_haar", type=_NONNEGATIVE_INT, default=50)
    pm.add_argument("--out-csv", dest="out_csv", default=None)
    pm.add_argument("--seed", type=_NONNEGATIVE_INT, default=None)
    pm.add_argument("--budget", type=_POSITIVE_INT, default=1000)
    pm.set_defaults(func=cmd_mixing)

    pr = sub.add_parser("reproduce", help="re-run a quantitative experiment")
    pr.add_argument("target", help="depolarizing_table|tensor_qubit|expander|davies_qubit")
    pr.add_argument("--seed", type=_NONNEGATIVE_INT, default=None)
    pr.add_argument("--budget", type=_POSITIVE_INT, default=1000)
    pr.add_argument("--full", action="store_true", help="include the larger variants")
    pr.set_defaults(func=cmd_reproduce)

    ps = sub.add_parser("scan", help="regularity falsification scan (JSONL stream)")
    ps.add_argument("--dims", type=_dims, default=(2, 3))
    ps.add_argument("--n", type=_NONNEGATIVE_INT, default=30)
    ps.add_argument("--seed", type=_NONNEGATIVE_INT, default=None)
    ps.add_argument("--probes", type=_POSITIVE_INT, default=6)
    ps.add_argument("--out", default=None)
    ps.add_argument("--jobs", type=_POSITIVE_INT, default=1,
                    help="parallel scan instances (worker processes)")
    ps.add_argument("--resume", action="store_true",
                    help="continue an existing --out file from its line count")
    ps.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        _err(str(exc), kind="bad_args")
        return EXIT_BAD_SPEC
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
