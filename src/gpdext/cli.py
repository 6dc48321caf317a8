"""Command-line front end: parse documents, run named verification suites,
emit human-readable tables or byte-stable machine reports.

Exit codes: 0 when every check passes, 1 when a check fails, 2 on input
errors.  Machine reports contain only strings, integers and booleans (floats
are rendered at fixed precision), and serialize canonically, so a run with a
fixed seed reproduces its report byte-for-byte.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from . import cyclic_oracle as oracle
from .cocycle import (
    CocycleError,
    IsotropyObstruction,
    TwoCocycle,
    normalize,
    solve_coboundary,
    trivialize_principal,
)
from .documents import (
    DocumentError,
    SpecDocument,
    canonical_json,
    cochain_to_doc,
    cocycle_to_doc,
    decomposition_report_to_doc,
    fmt_float,
    laurent_to_doc,
    norm_report_to_doc,
    parse_element,
    parse_spec,
)
from .extension import (
    INTERTWINE_TOL,
    NORM_TOL,
    ExtensionAlgebra,
    check_reduced_decomposition,
    cyclic_decompose,
    cyclic_extension,
    decompose,
    mode_projection,
    oracle_norm_deviation,
)
from .groupoid import (
    PROPER_NOTE,
    is_principal,
    is_proper,
    is_transitive,
    orbit_units,
    validate,
)
from .morita import MoritaError, fullness_check, positivity_check, saturation_report
from .randgen import random_laurents, random_values

FIXTURE_ENV = "GPDEXT_FIXTURE_DIR"

# Tolerances of the sampled checks, each far above the rounding of what it
# bounds and far below the error it catches:
UNIT_NORM_TOL = 1e-12  # the norm of the unit: one SVD of a unitary, 1 up to rounding
CSTAR_TOL = 1e-9  # ||f* f|| against ||f||^2, relative: SVDs of two different operators
PRODUCT_TOL = 1e-10  # one product of random elements taken two ways: other sums of the terms
MODE_STAR_TOL = 1e-12  # the graded star against each mode's own: the same values conjugated


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    skipped: bool = False  # not decided: it counts as passed


@dataclass
class Report:
    command: str
    source: str
    seed: int
    samples: int
    checks: list[CheckResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **details):
        self.checks.append(CheckResult(name, bool(passed), details))

    def skip(self, name: str, **details):
        """Record a check that could not run; the machine report marks it
        ``"skipped": true``, the text report ``skip``."""
        self.checks.append(CheckResult(name, True, details, skipped=True))

    def to_doc(self) -> dict:
        return {
            "command": self.command,
            "source": self.source,
            "provenance": {"seed": self.seed, "samples": self.samples, "version": __version__},
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                | ({"skipped": True} if c.skipped else {})
                for c in self.checks
            ],
            "extras": self.extras,
        }

    def to_machine(self) -> str:
        return canonical_json(self.to_doc())

    def to_human(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [
            f"{self.command} on {self.source} (seed={self.seed}, samples={self.samples})"
        ]
        for c in self.checks:
            info = ", ".join(f"{k}={v}" for k, v in c.details.items())
            mark = "skip" if c.skipped else "pass" if c.passed else "FAIL"
            lines.append(f"  {c.name.ljust(width)}  {mark}  {info}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared pieces

def _fixture_dir() -> Path:
    env = os.environ.get(FIXTURE_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "fixtures"


def load_spec(path: str | None, fixture: str | None) -> tuple[SpecDocument, str]:
    if (path is None) == (fixture is None):
        raise DocumentError("exactly one of a document path or --fixture is required")
    if fixture is not None:
        p = _fixture_dir() / f"{fixture}.json"
        if not p.exists():
            known = sorted(q.stem for q in _fixture_dir().glob("*.json"))
            raise DocumentError(f"unknown fixture {fixture!r}; bundled: {', '.join(known)}")
        return parse_spec(p.read_text()), f"fixture:{fixture}"
    p = Path(path)
    if not p.exists():
        raise DocumentError(f"no such file: {path}")
    return parse_spec(p.read_text()), path


class Session:
    """One spec as every suite on it reads it, each piece decided or built
    once: the base's validation, the given cocycle's identity report, the
    prepared cocycle, one ``ExtensionAlgebra`` (whose ``twisted(n)`` is the
    one algebra of mode n) and the extensions mu_k x_w G by k.  The cocycle,
    the algebra and each extension are built on first use.  A command builds
    a session and drops it, so nothing outlives the call."""

    def __init__(self, spec: SpecDocument, source: str):
        self.spec, self.source, self.groupoid = spec, source, spec.groupoid
        self.validation = validate(spec.groupoid)
        # the given cocycle and its identity report, on a groupoid only
        self.given = spec.cocycle_or_trivial() if self.validation.ok else None
        self.identity = self.given.check_identity() if self.validation.ok else None
        self.extensions: dict[int, oracle.CyclicExtension] = {}

    @cached_property
    def cocycle(self) -> TwoCocycle | None:
        """The given cocycle, normalized when it is not; None when the base
        or the identity fails."""
        w = self.given
        if self.identity is None or not self.identity.ok:
            return None
        return w if w.normalized else normalize(w)[0]

    @cached_property
    def checks(self) -> list[CheckResult]:
        """What each suite on the prepared cocycle reports first: a failing
        base, as groupoid-axioms; else the identity and, when it passes,
        the normalization."""
        rep, w = self.validation, self.cocycle
        if not rep.ok:
            details = dict(violations=len(rep.violations), first=rep.violations[0].message)
            return [CheckResult("groupoid-axioms", False, details)]
        details = dict(violations=len(self.identity.violations), exact=self.given.is_exact)
        checks = [CheckResult("cocycle-identity", self.identity.ok, details)]
        if w is not None:
            details = dict(auto_normalized=w is not self.given)
            checks.append(CheckResult("cocycle-normalized", w.normalized, details))
        return checks

    @cached_property
    def algebra(self) -> ExtensionAlgebra:
        return ExtensionAlgebra(self.groupoid, self.cocycle)

    def extension(self, k: int) -> oracle.CyclicExtension:
        """mu_k x_w G of the prepared cocycle."""
        if k not in self.extensions:
            self.extensions[k] = cyclic_extension(self.groupoid, self.cocycle, k)
        return self.extensions[k]

    def order(self, k_flag: int | None) -> int | None:
        """The cyclic order used for oracle runs: the --k flag, the document
        parameter, or the smallest k containing all exact values of the
        prepared cocycle: the conductor of its angle table."""
        if k_flag is not None:
            k, name = k_flag, "--k"
        elif "k" in self.spec.params:
            k, name = self.spec.params["k"], "params.k"
        else:
            w = self.cocycle
            return w.conductor if w.is_exact and w.conductor <= 12 else None
        if k < 1:
            raise oracle.OracleError(f"{name} must be at least 1, got {k}")
        return k


def _window(spec: SpecDocument, modes_flag) -> tuple[int, int]:
    if modes_flag:
        return modes_flag
    if "modes" in spec.params:
        lo, hi = spec.params["modes"]
        return lo, hi
    return (-2, 2)


# ---------------------------------------------------------------------------
# commands

def cmd_validate(session: Session, seed: int, samples: int) -> Report:
    report = Report("validate", session.source, seed, samples)
    g, rep = session.groupoid, session.validation
    report.add(
        "groupoid-axioms",
        rep.ok,
        units=g.n_units,
        arrows=g.n_arrows,
        violations=len(rep.violations),
        first="" if rep.ok else rep.violations[0].message,
    )
    if rep.ok:
        report.add(
            "structure",
            True,
            principal=is_principal(g),
            transitive=is_transitive(g),
            proper=is_proper(g),
            proper_note=PROPER_NOTE,
            orbits=len(orbit_units(g)),
        )
        if session.spec.cocycle is not None:
            w, idrep = session.given, session.identity
            report.add(
                "cocycle-identity",
                idrep.ok,
                violations=len(idrep.violations),
                exact=w.is_exact,
            )
            report.add("cocycle-normalized", True, normalized=w.normalized)
    return report


def cmd_normalize(session: Session, seed: int, samples: int) -> Report:
    report = Report("normalize", session.source, seed, samples)
    if not session.validation.ok:
        report.checks += session.checks  # the failing base
        return report
    rep = session.identity
    report.add("cocycle-identity", rep.ok, violations=len(rep.violations))
    if not rep.ok:
        return report
    # which raises unless w2 passes the identity and is normalized
    w2, b = normalize(session.given)
    report.add("normalized-output", w2.normalized, nontrivial_values=len(w2.values))
    report.extras["normalized_cocycle"] = cocycle_to_doc(w2)
    report.extras["normalizing_cochain"] = cochain_to_doc(b)
    return report


def cmd_trivialize(session: Session, seed: int, samples: int) -> Report:
    report = Report("trivialize", session.source, seed, samples, list(session.checks))
    w = session.cocycle
    if w is None:
        return report
    try:
        b = trivialize_principal(w)
    except IsotropyObstruction as e:
        report.add("trivialize", False, obstruction=str(e))
        return report
    report.add("trivialize", True, reproduces_cocycle=True, exact=w.is_exact)
    report.extras["trivializing_cochain"] = cochain_to_doc(b)
    if w.is_exact:
        sol = solve_coboundary(w)
        report.add("coboundary-solver-agrees", sol is not None)
    return report


def cmd_algebra(
    session: Session, seed: int, samples: int, power: int = 1, element_doc=None
) -> Report:
    report = Report("algebra", session.source, seed, samples, list(session.checks))
    if session.cocycle is None:
        return report
    g, alg = session.groupoid, session.algebra.twisted(power)
    cert = alg.full_norm_certificate()
    report.add(
        "faithful-regular-representation", cert.faithful, rank=cert.rank, dimension=cert.dimension
    )
    if g.n_arrows:
        e_norm = alg.reduced_norm(alg.identity()).reduced_norm
        report.add("identity-norm", abs(e_norm - 1.0) <= UNIT_NORM_TOL, norm=fmt_float(e_norm))
    # one stack of samples, drawn f, h, x per sample as one draw at a time would
    draws = random_values(random.Random(seed), (samples, 3, g.n_arrows))
    f, h, x = (alg.element(draws[:, i]) for i in range(3))
    n1 = alg.reduced_norm(f.star() * f).reduced_norm
    n2 = alg.reduced_norm(f).reduced_norm
    worst_cstar = float((np.abs(n1 - n2 * n2) / np.maximum(1.0, n2 * n2)).max(initial=0.0))
    fh = f * h
    worst_assoc = (fh * x - f * (h * x)).sup_difference(alg.zero())
    worst_star = fh.star().sup_difference(h.star() * f.star())
    report.add("cstar-identity", worst_cstar <= CSTAR_TOL, relative_error=fmt_float(worst_cstar))
    report.add("associativity", worst_assoc <= PRODUCT_TOL, residual=fmt_float(worst_assoc))
    report.add("star-antihomomorphism", worst_star <= PRODUCT_TOL, residual=fmt_float(worst_star))
    if element_doc is not None:
        f = parse_element(element_doc, alg)
        nr = alg.reduced_norm(f)
        report.add("element-norm", True, **norm_report_to_doc(nr, g))
        report.extras["element_regular_rep"] = {
            g.unit_labels[u]: [
                [[fmt_float(z.real), fmt_float(z.imag)] for z in row]
                for row in alg.regular_rep(f, u).matrix
            ]
            for u in g.units()
        }
    report.extras["power"] = power
    return report


def cmd_decompose(session: Session, seed: int, samples: int, modes=None) -> Report:
    report = Report("decompose", session.source, seed, samples, list(session.checks))
    if session.cocycle is None:
        return report
    g, ea = session.groupoid, session.algebra
    window = _window(session.spec, modes)

    if g.n_arrows:
        idrep = decompose(ea.identity())
        report.add(
            "identity-decomposition",
            abs(idrep.extension_norm - 1.0) <= UNIT_NORM_TOL,
            norm=fmt_float(idrep.extension_norm),
        )
    # one stack of samples, drawn F, G per sample as one draw at a time would
    draws = random_laurents(random.Random(seed), ea, window, (samples, 2))
    F, G = draws[:, 0], draws[:, 1]
    elements = [F[i] for i in range(samples)]
    # projection laws: each projection is idempotent, and they sum to F; a
    # failure names the first law that fails
    projections = {n: mode_projection(F, n) for n in range(window[0] - 1, window[1] + 2)}
    bad = [n for n, P in projections.items() if not mode_projection(P, n).equals(P)]
    law = {"law": "idempotence", "mode": bad[0]} if bad else None
    if law is None and not sum(projections.values(), ea.zero()).equals(F):
        law = {"law": "sum"}
    report.add("mode-projection-laws", law is None, **(law or {}))
    FG, F_star, modes = F * G, F.star(), range(window[0], window[1] + 1)
    homo = {n: FG.mode(n).sup_difference(F.mode(n) * G.mode(n)) for n in modes}
    star = {n: F_star.mode(n).sup_difference(F.mode(n).star()) for n in modes}
    # a failure names the first mode of the largest residual
    checks = (("mode-homomorphism", homo, PRODUCT_TOL), ("mode-star", star, MODE_STAR_TOL))
    for name, residual, tol in checks:
        worst = max(residual, key=residual.get)
        ok = residual[worst] <= tol
        report.add(name, ok, residual=fmt_float(residual[worst]), **({} if ok else {"mode": worst}))

    cert = check_reduced_decomposition(elements[: max(1, samples // 2)])
    first = cert.witness  # a failing check names the first failing fiber
    witness = first and {"witness": dict(
        sample=first.sample, unit=g.unit_labels[first.unit], modes=list(first.window),
        deviation=fmt_float(first.deviation), residual=fmt_float(first.residual),
    )}
    intertwined = cert.max_residual <= INTERTWINE_TOL
    report.add(
        "intertwining", intertwined, residual=fmt_float(cert.max_residual),
        **({} if intertwined else witness),
    )
    report.add(
        "reduced-decomposition",
        cert.ok,
        max_norm_deviation=fmt_float(cert.max_norm_deviation),
        max_unit_deviation=fmt_float(cert.max_unit_deviation),
        **({} if cert.ok else witness),
    )

    per_mode = {}
    for n in range(window[0], window[1] + 1):
        alg = ea.twisted(n)
        per_mode[str(n)] = {
            "dimension": alg.dimension,
            "center_dimension": alg.center_dimension(),
            "faithful": alg.full_norm_certificate().faithful,
        }
    report.extras["modes"] = per_mode
    report.extras["window"] = list(window)
    if elements and not elements[0].is_zero:
        sample_rep = decompose(elements[0])
        report.extras["sample_element"] = laurent_to_doc(elements[0])
        report.extras["sample_decomposition"] = decomposition_report_to_doc(sample_rep)
    return report


def cmd_cyclic_oracle(session: Session, seed: int, samples: int, k: int | None = None) -> Report:
    report = Report("cyclic-oracle", session.source, seed, samples, list(session.checks))
    if session.cocycle is None:
        return report
    g, kk = session.groupoid, session.order(k)
    if kk is None:
        report.skip(
            "oracle-order",
            applicable=False,
            reason="no small mu_k contains the cocycle values; oracle comparison skipped",
        )
        return report
    try:
        ext = session.extension(kk)
    except oracle.OracleError as e:
        report.add("extension-groupoid", False, error=str(e))
        return report
    report.add("extension-groupoid", ext.validation.ok, k=kk, arrows=ext.groupoid.n_arrows)
    cd = cyclic_decompose(ext, skip_centers=True)
    details = dict(
        exact=cd.exact,
        max_residual=fmt_float(cd.max_residual),
        products=cd.products_checked,
        stars=cd.stars_checked,
        projections=cd.projections_checked,
        summand_dimensions=[s.dimension for s in cd.summands],
        center_dimensions=[session.algebra.twisted(n).center_dimension() for n in range(kk)],
    )
    if cd.witness is not None:
        details["witness"] = {
            "kind": cd.witness.kind,
            "modes": list(cd.witness.modes),
            "arrows": [g.arrow_labels[a] for a in cd.witness.arrows],
            "residual": fmt_float(cd.witness.residual),
        }
    report.add("mode-decomposition", cd.ok, **details)
    rank, dim = oracle.faithfulness_rank(ext)
    report.add("oracle-faithfulness", rank == dim, rank=rank, dimension=dim)

    draws = random_laurents(random.Random(seed), session.algebra, (0, kk - 1), (samples,))
    worst = float(np.max(oracle_norm_deviation(draws, ext), initial=0.0))
    report.add("norm-agreement", worst <= NORM_TOL, deviation=fmt_float(worst))
    report.extras["oracle_agreement"] = worst <= NORM_TOL

    if is_principal(g):
        bad = oracle.quotient_matches_base(ext)
        report.add("isotropy-quotient", not bad, defects=bad)
    return report


def cmd_morita(session: Session, seed: int, samples: int) -> Report:
    report = Report("morita", session.source, seed, samples, list(session.checks))
    if session.cocycle is None:
        return report
    g = session.groupoid
    if not is_principal(g):
        report.add("principal", False, reason="proposition hypotheses not met")
        return report
    cert = fullness_check(g)
    report.add(
        "fullness",
        cert.full,
        ideal_dimension=cert.ideal_dimension,
        algebra_dimension=cert.algebra_dimension,
        orbit_count=cert.orbit_count,
    )
    rng = random.Random(seed)
    report.add("positivity", positivity_check(g, random_values(rng, (samples, g.n_units))))
    kk = session.order(None)
    if kk is not None:
        pairs = random_values(rng, (samples, 2, g.n_units))
        try:
            sat = saturation_report(session.extension(max(kk, 2)), pairs)
        except oracle.OracleError as e:
            report.add("extension-groupoid", False, error=str(e))
            return report
        worst = sat.witness  # a failing check names its largest leakage
        witness = worst and {"witness": dict(
            sample=worst.sample, circle=worst.circle, arrow=g.arrow_labels[worst.arrow],
            mode=worst.mode, leakage=fmt_float(worst.leakage),
        )}
        report.add(
            "mode-zero-inner-products", sat.mode_zero_ok,
            leakage=fmt_float(sat.nonzero_mode_leakage), **(witness or {}),
        )
        report.add(
            "not-saturated",
            sat.not_saturated,
            ideal_dimension=sat.ideal_dimension,
            mode_zero_summand=sat.mode_zero_summand_dimension,
            extension_dimension=sat.k * g.n_arrows,
        )
    return report


def cmd_verify_all(
    spec: SpecDocument, source: str, seed: int, samples: int, modes=None, k: int | None = None
) -> Report:
    report = Report("verify-all", source, seed, samples)
    session = Session(spec, source)
    g, rep = spec.groupoid, session.validation
    report.add(
        "groupoid-axioms", rep.ok, units=g.n_units, arrows=g.n_arrows, violations=len(rep.violations)
    )
    if not rep.ok:
        return report
    for prefix, sub in (
        ("validate", cmd_validate(session, seed, samples)),
        ("algebra[n=0]", cmd_algebra(session, seed, samples, power=0)),
        ("algebra[n=1]", cmd_algebra(session, seed, samples, power=1)),
        ("decompose", cmd_decompose(session, seed, samples, modes=modes)),
        ("cyclic-oracle", cmd_cyclic_oracle(session, seed, samples, k=k)),
    ):
        for c in sub.checks:
            report.checks.append(replace(c, name=f"{prefix}/{c.name}"))
        for key, val in sub.extras.items():
            report.extras[f"{prefix}.{key}"] = val
    w = session.cocycle
    if w is None:
        return report
    if is_principal(g):
        for sub in (cmd_trivialize(session, seed, samples), cmd_morita(session, seed, samples)):
            # after the session's checks, which each suite above reported
            for c in sub.checks[len(session.checks):]:
                report.checks.append(replace(c, name=f"{sub.command}/{c.name}"))
    elif w.is_exact:
        report.add("coboundary-class", True, trivial=solve_coboundary(w) is not None)
    return report


# ---------------------------------------------------------------------------
# argparse plumbing

def _parse_modes(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"wants the form a..b, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window is empty, got {text!r}")
    return lo, hi


COMMANDS = {
    "validate": cmd_validate,
    "normalize": cmd_normalize,
    "trivialize": cmd_trivialize,
    "algebra": cmd_algebra,
    "decompose": cmd_decompose,
    "cyclic-oracle": cmd_cyclic_oracle,
    "morita": cmd_morita,
    "verify-all": cmd_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gpdext",
        description="verification suites for finite groupoids, cocycles, and their twisted algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("path", nargs="?", help="spec document (JSON)")
        p.add_argument("--fixture", help="name of a bundled fixture")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--format", choices=("human", "machine"), default="human")
        if name in ("decompose", "verify-all"):
            p.add_argument(
                "--modes",
                type=_parse_modes,
                default=None,
                help="window a..b (write --modes=-2..2 for negative bounds)",
            )
        if name in ("cyclic-oracle", "verify-all"):
            p.add_argument("--k", type=int, default=None)
        if name == "algebra":
            p.add_argument("--power", type=int, default=1)
            p.add_argument("--element", help="path to an element document")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.samples is not None and args.samples < 0:
            raise DocumentError(f"--samples must be at least 0, got {args.samples}")
        spec, source = load_spec(args.path, args.fixture)
        seed = args.seed if args.seed is not None else spec.params.get("seed", 0)
        samples = args.samples if args.samples is not None else spec.params.get("samples", 25)
        # the command's own flags, by the keyword names of its cmd_* function
        options = {key: getattr(args, key) for key in ("modes", "k", "power") if key in args}
        if getattr(args, "element", None):
            options["element_doc"] = Path(args.element).read_text()
        if args.command == "verify-all":
            report = cmd_verify_all(spec, source, seed, samples, **options)
        else:
            report = COMMANDS[args.command](Session(spec, source), seed, samples, **options)
    except (DocumentError, OSError, CocycleError, MoritaError, oracle.OracleError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    print(report.to_machine() if args.format == "machine" else report.to_human(), end="")
    if args.format == "human":
        print()
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
