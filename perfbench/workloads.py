"""The four workloads: seeded batches of rqwork jobs with their output checks.

A job is one operation a researcher would run: an ``rq`` command line,
dispatched in-process through ``rqwork.cli.dispatch`` with its report
captured, or one library call where the command line has no equivalent.
Each job carries a check that compares its output against the reference
code in ``reference.py`` or against a property the method must have, never
against a stored copy of earlier output.

The seed shuffles the order of the jobs and picks the inputs that can vary
at equal cost (evaluation points, singular-modulus arguments, the mutated
exponent and the perturbed coefficient of the negative controls).  The
three ``numeric`` jobs that fail today have fixed inputs.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List

import reference as ref

PRODUCT_P_MAX = 7
PRODUCT_ORDER = 64
REGISTRY_STEPS = 120
MUTATED_ENTRY = "rr-product-1310"
NOME = Fraction(1, 10)  # where mined polynomials must vanish numerically


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class CliResult:
    status: int
    stdout: str
    stderr: str

    def reports(self):
        return [json.loads(line) for line in self.stdout.splitlines() if line]


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]

    def failed(self, output) -> bool:
        """A command that exits 1 (usage or input error) did not complete."""
        return isinstance(output, CliResult) and output.status == 1

    def render(self, output) -> str:
        """The output as text, for the change-signal checksum."""
        if isinstance(output, CliResult):
            return f"{output.status}\n{output.stdout}"
        if isinstance(output, tuple):  # a series prints every coefficient
            return "\n".join(str(x) for x in output)
        return repr(output)


def cli_job(argv: str, check) -> Job:
    args = argv.split()

    def run():
        from rqwork import cli  # looked up per call, so tracing sees it
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.dispatch(args)
        return CliResult(status, out.getvalue(), err.getvalue())

    return Job("rq " + argv, run, check)


def single_report(result: CliResult) -> dict:
    require(result.status == 0,
            f"exit {result.status}: {result.stderr.strip()}")
    reps = result.reports()
    require(len(reps) == 1, f"{len(reps)} reports, wanted 1")
    return reps[0]


def memo(fn):
    cache = {}

    def get(*key):
        if key not in cache:
            cache[key] = fn(*key)
        return cache[key]
    return get


# ---------------------------------------------------------------------------
# product-identity


def valid_specs(p_max):
    """Every (a, b, p) with p <= p_max that criterion 3 of the tests checks."""
    out = []
    for p in range(2, p_max + 1):
        for a in range(1, p):
            for b in range(a + 1, p):
                if 2 * a == p or 2 * b == p:
                    continue  # doubled factor; the character undercounts
                if {a, p - a} & {b, p - b}:
                    continue  # residues collide
                out.append((a, b, p))
    return out


def product_identity(rng):
    from rqwork import quantities
    from rqwork.characters import RQSpec

    reference = memo(lambda spec: ref.character_product(spec, PRODUCT_ORDER))
    jobs = []
    for spec in valid_specs(PRODUCT_P_MAX):
        def run(spec=spec):
            s = RQSpec(*spec)
            return (quantities.rq_star_series(s, PRODUCT_ORDER),
                    quantities.product_over_X(s, PRODUCT_ORDER))

        def check(out, spec=spec):
            want = reference(spec)
            routes = ("rq_star_series", "product_over_X")
            for route, series in zip(routes, out):
                require(series.trunc >= PRODUCT_ORDER,
                        f"{route} known only to {series.trunc}")
                got = [0] * (PRODUCT_ORDER + 1)
                for e, c in series.terms():
                    if e <= PRODUCT_ORDER:
                        require(e.denominator == 1, f"{route}: exponent {e}")
                        got[int(e)] = c
                require(got == want, f"{route} differs from the int product")

        jobs.append(Job(f"product-identity {spec} order {PRODUCT_ORDER}",
                        run, check))
    return jobs


# ---------------------------------------------------------------------------
# registry


def _identity_exponents():
    """Registry entries whose two sides are products of (1 - q^n)^e(n)."""
    x5 = lambda n: ref.chi((1, 2, 5), n)  # noqa: E731
    x10 = lambda n: ref.chi((1, 3, 10), n)  # noqa: E731

    def agile_110(n):
        return 1 if n % 10 in (1, 3, 7, 9) else 0

    def eta_110(n):  # f(-q) f(-q^10) / (f(-q^2) f(-q^5))
        return 1 + (n % 10 == 0) - (n % 2 == 0) - (n % 5 == 0)

    return {
        # R(q) R(q^2) = R(1,3,10; q); the q-prefactors agree (3/5 = 1/5 + 2/5)
        "rr-product-1310": (
            lambda n: x5(n) + (x5(n // 2) if n % 2 == 0 else 0), x10),
        "agile-product-110": (agile_110, eta_110),
    }


def registry(rng):
    from rqwork import quantities, series

    entries = quantities.identity_registry()
    products = _identity_exponents()
    referenced = set(products) | {"tau-prime-period"}

    @memo
    def reference_holds(entry_id):
        if entry_id == "tau-prime-period":
            table = ref.tau_sieve((1, 2, 5), 5 * REGISTRY_STEPS)
            return all(table[5 * n] == table[n]
                       for n in range(1, REGISTRY_STEPS + 1))
        lhs, rhs = products[entry_id]
        return (ref.eta_product(lhs, REGISTRY_STEPS)
                == ref.eta_product(rhs, REGISTRY_STEPS))

    jobs = []
    for rec in entries:
        def check(result, rec=rec):
            rep = single_report(result)
            require(rep["id"] == rec.id, f"report for {rep['id']}")
            if rec.id in referenced:
                require(reference_holds(rec.id),
                        "reference says the identity is false")
            if rec.status == "proved" or rec.id in referenced:
                require("first_failure_exponent" not in rep,
                        f"failed at {rep.get('first_failure_exponent')}")
            ok = rep.get("verified_steps", 0) >= REGISTRY_STEPS \
                or "first_failure_exponent" in rep
            require(ok, f"checked only {rep.get('verified_steps')} steps")

        jobs.append(cli_job(
            f"verify-identities --id {rec.id} --order {REGISTRY_STEPS}",
            check))

    # negative control: a proved identity with one monomial q^k added must
    # fail exactly at k
    base = next(rec for rec in entries if rec.id == MUTATED_ENTRY)
    k = Fraction(rng.randint(1, REGISTRY_STEPS), base.lattice_denom)

    def mutated(order):
        lhs, rhs = base.build(order)
        return lhs + series.make_series([(k, 1)], order), rhs

    def run_mutated():
        rec = quantities.IdentityRecord(base.id + "+q^k", "proved",
                                        base.lattice_denom, mutated)
        return rec.verify(steps=REGISTRY_STEPS)

    def check_mutated(rep):
        got = rep.get("first_failure_exponent")
        require(got is not None and Fraction(got) == k,
                f"mutated entry failed at {got}, wanted {k}")

    jobs.append(Job(f"verify {MUTATED_ENTRY} + q^({k})", run_mutated,
                    check_mutated))
    return jobs


# ---------------------------------------------------------------------------
# mine


# published modular equations: (u spec, u power, v spec, v power, box, P)
MINING_TARGETS = [
    ((1, 2, 4), 1, (1, 2, 4), 2, 4, {(4, 0): 1, (0, 2): -1, (4, 4): 4}),
    ((1, 2, 4), 1, (1, 2, 4), 3, 4,
     {(4, 0): 1, (1, 1): -1, (3, 3): 4, (0, 4): -1}),
    ((1, 2, 4), 1, (1, 2, 4), 5, 6,
     {(6, 0): 1, (1, 1): -1, (4, 2): 5, (2, 4): -5, (5, 5): 16, (0, 6): -1}),
    ((1, 2, 4), 1, (1, 2, 4), 7, 8,
     {(8, 0): 1, (1, 1): -1, (2, 2): 7, (3, 3): -28, (4, 4): 70,
      (5, 5): -112, (6, 6): 112, (7, 7): -64, (0, 8): 1}),
    ((1, 3, 6), 1, (1, 3, 6), 5, 6,
     {(6, 0): 1, (1, 1): -1, (4, 1): 5, (2, 2): 5, (5, 2): -10, (3, 3): -20,
      (1, 4): 5, (4, 4): 20, (2, 5): -10, (5, 5): -16, (0, 6): 1}),
    ((1, 3, 6), 1, (1, 3, 6), 7, 8,
     {(8, 0): 1, (1, 1): -1, (4, 1): 7, (6, 2): 28, (5, 3): -56, (1, 4): 7,
      (4, 4): 21, (7, 4): -56, (3, 5): -56, (2, 6): 28, (4, 7): -56,
      (7, 7): -64, (0, 8): 1}),
    ((11, 7, 12), 1, (11, 7, 12), 2, 2,
     {(2, 0): -1, (0, 1): 1, (1, 1): -2, (2, 1): 1, (0, 2): -1}),
    ((11, 7, 12), 1, (11, 7, 12), 3, 3,
     {(3, 0): 1, (0, 1): -1, (1, 1): 3, (3, 1): -1, (0, 2): 1, (2, 2): -3,
      (3, 2): 1, (0, 3): -1}),
    ((14, 10, 16), 1, (14, 10, 16), 2, 2,
     {(2, 0): 1, (0, 1): -1, (2, 1): 1, (0, 2): 1}),
    ((14, 10, 16), 1, (14, 10, 16), 3, 4,
     {(3, 0): 1, (0, 1): -1, (2, 1): 3, (1, 2): 3, (3, 2): -3, (2, 3): -3,
      (4, 3): 1, (1, 4): -1}),
    # the cross relation between the (1,3,10) and (1,2,5) quantities
    ((1, 3, 10), 1, (1, 2, 5), 1, 4,
     {(3, 0): 1, (1, 1): -1, (2, 3): 1, (0, 4): 1}),
    # Rogers-Ramanujan at q against q^2, mined in the wide box 8
    ((1, 2, 5), 1, (1, 2, 5), 2, 8,
     {(2, 0): 1, (0, 1): -1, (3, 2): 1, (1, 3): 1}),
]

PERTURBED_TARGET = 1  # (1,2,4) at q against q^3; the seed moves a coefficient
PERTURBED_STEPS = 60


def _vec(J, support):
    out = [0] * J
    for j, c in support.items():
        out[j - 1] = Fraction(c)
    return out


# published tau relation vectors: (spec, J, n_max, confirmed, refuted)
TAU_SCANS = [
    ((1, 4, 17), 17, 289,
     [_vec(17, {1: -4, 4: 3, 16: 1}), _vec(17, {1: -4, 2: 4, 4: -1, 8: 1})],
     []),
    ((1, 5, 26), 26, 289,
     [_vec(26, {1: -5, 5: 4, 25: 1})],
     [(_vec(26, {1: -1, 3: 1, 5: -1, 15: 1}), 7),
      (_vec(26, {1: Fraction(-26, 77), 3: Fraction(-17, 7),
                 7: Fraction(17, 7), 11: Fraction(-51, 77), 17: 1}), 27),
      (_vec(26, {1: Fraction(-134, 77), 3: Fraction(19, 7),
                 7: Fraction(-19, 7), 11: Fraction(57, 77), 19: 1}), 27),
      (_vec(26, {1: Fraction(-34, 11), 11: Fraction(23, 11), 23: 1}), 77)]),
]


def _spec_text(spec):
    return ",".join(str(x) for x in spec)


def mine(rng):
    from rqwork import modeq
    from rqwork.characters import RQSpec
    from rqwork.modeq import BivariatePolynomial, SeriesRecipe

    @memo
    def value(spec, power):
        q = ref.MP.mpf(NOME.numerator) / NOME.denominator
        return ref.rq_value(spec, q ** power)

    def vanishes(terms, u, v):
        residual, scale = ref.poly_residual(terms, u, v)
        return residual < ref.MP.mpf(10) ** -40 * max(scale, 1)

    jobs = []
    for uspec, alpha, vspec, beta, box, target in MINING_TARGETS:
        spec2 = "" if vspec == uspec else f" --spec2 {_spec_text(vspec)}"

        def check(result, uspec=uspec, alpha=alpha, vspec=vspec, beta=beta,
                  target=target):
            rep = single_report(result)
            require(not rep["dropped_candidates"],
                    f"{len(rep['dropped_candidates'])} candidates dropped")
            found = [{(i, j): c for i, j, c in p["terms"]}
                     for p in rep["polynomials"]]
            require(any(ref.proportional(target, p) for p in found),
                    "published equation not found")
            u, v = value(uspec, alpha), value(vspec, beta)
            for p in rep["polynomials"]:
                require(vanishes(p["terms"], u, v),
                        f"{p['text']} does not vanish at q = {NOME}")

        jobs.append(cli_job(
            f"mine --spec {_spec_text(uspec)}{spec2} --alpha {alpha} "
            f"--beta {beta} --box {box}", check))

    # negative control: one coefficient of a published equation moved
    uspec, alpha, vspec, beta, _, target = MINING_TARGETS[PERTURBED_TARGET]
    bumped = dict(target)
    key = rng.choice(sorted(bumped))
    bumped[key] += rng.choice((-3, -2, -1, 1, 2, 3))

    def run_perturbed():
        u_recipe = SeriesRecipe(RQSpec(*uspec), Fraction(alpha))
        v_recipe = SeriesRecipe(RQSpec(*vspec), Fraction(beta))
        order = Fraction(PERTURBED_STEPS, modeq.MiningJob(
            u_recipe, v_recipe).lattice_denom())
        poly = BivariatePolynomial.build(bumped)
        return modeq.verify_relation(poly, u_recipe.build(order),
                                     v_recipe.build(order), order)

    def check_perturbed(verdict):
        require(verdict["verdict"] == "fails_at",
                f"perturbed equation reported {verdict}")
        terms = [(i, j, c) for (i, j), c in bumped.items() if c]
        require(not vanishes(terms, value(uspec, alpha), value(vspec, beta)),
                "reference says the perturbed equation holds")

    jobs.append(Job(f"verify_relation perturbed at {key}", run_perturbed,
                    check_perturbed))

    for spec, J, n_max, confirmed, refuted in TAU_SCANS:
        def check(result, spec=spec, J=J, n_max=n_max, confirmed=confirmed,
                  refuted=refuted):
            rep = single_report(result)
            basis = [r["coeffs"] for r in rep["relations"]]
            require(basis, "no relations")
            table = tau_table(spec, J * 4 * n_max)
            for rel in rep["relations"]:
                require(rel["status"] == "re-verified",
                        f"{rel} not re-verified")
                require(all(ref.tau_residual(table, rel["coeffs"], n) == 0
                            for n in range(1, 4 * n_max + 1)),
                        f"{rel['coeffs']} is not a relation")
            for vec in confirmed:
                require(ref.in_span(basis, vec), f"missing {vec}")
            for vec, witness in refuted:
                require(ref.tau_residual(table, vec, witness) != 0,
                        f"published vector {vec} holds at n = {witness}")
                require(not ref.in_span(basis, vec), f"kept refuted {vec}")

        jobs.append(cli_job(
            f"tau-scan --spec {_spec_text(spec)} --J {J} --nmax {n_max}",
            check))
    return jobs


tau_table = memo(ref.tau_sieve)


# ---------------------------------------------------------------------------
# numeric

# singular_modulus does not converge on these; kept as failed operations
FAILING = [
    (58, 30, "eval --spec 1,2,5 --r 58 --digits 30"),
    (64, 50, "eval --spec 1,2,5 --r 64"),
    (100, 50, "eval --spec 1,2,5 --r 100"),
]
# singular_modulus converges for every r here at 50 digits
R_POOL = range(5, 31)
EVAL_SPECS = [(1, 2, 5), (1, 3, 8), (1, 3, 6), (1, 2, 4)]


def _close(got, want, digits):
    got = ref.MP.mpf(got)
    scale = max(abs(want), 1)
    return abs(got - want) <= scale * ref.MP.mpf(10) ** -(digits - 10)


def numeric(rng):
    from rqwork import numerics

    MP = ref.MP
    diff = memo(lambda spec, q: MP.diff(lambda t: ref.rq_value(spec, t), q))

    def eval_job(spec, point, digits, argv=None):
        def check(result):
            rep = single_report(result)
            with MP.workdps(max(MP.dps, digits + 20)):
                if point.startswith("--r"):
                    q = ref.nome(Fraction(point.split()[1]))
                    require(_close(rep["q"], q, digits), "nome differs")
                else:
                    q = MP.mpf(rep["q"])
                require(_close(rep["value"], ref.rq_value(spec, q), digits),
                        "value differs from mpmath.qp")
        return cli_job(argv or f"eval --spec {_spec_text(spec)} {point} "
                               f"--digits {digits}", check)

    def check_job(argv, extra=None):
        def check(result):
            rep = single_report(result)
            require(rep["verdict"] == "confirmed", f"verdict {rep['verdict']}")
            if extra:
                extra(rep)
        return cli_job("check " + argv, check)

    def derivative(spec, r):
        def extra(rep):
            require(_close(rep["lhs"], diff(spec, ref.nome(r)), rep["digits"]),
                    "series derivative differs from mpmath.diff")
        return extra

    def singular(r):
        def extra(rep):
            k = ref.singular_modulus(r)
            require(_close(rep["k_sq"], k * k, rep["digits"]),
                    "k_r differs from the reference modulus")
            refuted = MP.mpf(rep["printed_octic_abs_err"]) \
                > k * k * MP.mpf(10) ** -(rep["digits"] - 10)
            require(refuted, "printed octic form not refuted")
        return extra

    def octic(rep):
        require(rep["printed_verdict"] == "refuted",
                "printed radical confirmed")

    def gg(rep):
        require(rep["printed_radical_verdict"] == "refuted",
                "printed radical confirmed")
        require(_close(rep["lhs"], ref.gg_radical(), rep["digits"]),
                "value differs from the corrected radical")
        require(_close(rep["lhs"], ref.rq_value((1, 3, 8), ref.nome(1)),
                       rep["digits"]), "value differs from mpmath.qp")

    def quartic(rep):
        want = ref.rq_value((1, 2, 4), ref.nome(1) ** 4)
        require(_close(rep["lhs"], want, rep["digits"]), "lhs differs")

    def theta(spec, r):
        def extra(rep):
            want = ref.rq_value(spec, ref.nome(r))
            for side in ("lhs", "rhs"):
                require(_close(rep[side], want, rep["digits"]),
                        f"{side} differs")
        return extra

    def unity(spec, q):
        def extra(rep):
            want = ref.rq_value(spec, MP.mpf(q) ** spec[2])
            require(_close(rep["lhs"], want, rep["digits"]), "lhs differs")
        return extra

    def recognize_check(result):
        rep = single_report(result)
        found = rep["recognized"]
        require(found and found["degree"] <= 4, f"recognized {found}")
        x = ref.gg_radical()
        coeffs = found["coeffs"]
        residual = abs(MP.fsum(c * x ** i for i, c in enumerate(coeffs)))
        require(residual < MP.mpf(10) ** -40,
                f"{found['polynomial']} does not annihilate the radical")

    r1, r2 = rng.sample(list(R_POOL), 2)
    s1, s2 = rng.sample(EVAL_SPECS, 2)
    q1, q2 = (f"0.{rng.randint(800, 1200):04d}" for _ in range(2))
    gg_digits = ref.MP.nstr(ref.gg_radical(), 62)

    jobs = [
        eval_job((1, 2, 5), "--r 1", 50),
        eval_job((1, 3, 8), "--r 2", 60),
        eval_job(s1, f"--r {r1}", 50),
        eval_job(s2, f"--q {q1}", 50),
        eval_job((1, 2, 5), "--r 1", 200),
        check_job("--case derivative-rgg --r 1", derivative((1, 3, 8), 1)),
        check_job("--case derivative-cubic --r 2", derivative((1, 3, 6), 2)),
        check_job("--case derivative-n-quantity --r 1"),
        check_job("--case derivative-example-quartic",
                  derivative((1, 2, 4), 1)),
        check_job("--case derivative-example-octic", octic),
        check_job("--case singular-relations --r 1", singular(1)),
        check_job("--case singular-relations --r 2", singular(2)),
        check_job("--case singular-relations --r 3", singular(3)),
        check_job("--case singular-relations --r 4", singular(4)),
        check_job(f"--case singular-relations --r {r2}", singular(r2)),
        check_job("--case quartic-value --r 1", quartic),
        check_job("--case gg-value --digits 60", gg),
        check_job(f"--case theta-coherence --spec 1,2,5 --r {r1}",
                  theta((1, 2, 5), r1)),
        check_job(f"--case root-of-unity --spec 1,2,5 --q {q2}",
                  unity((1, 2, 5), q2)),
        cli_job("recognize --spec 1,3,8 --r 1 --degree 4 --digits 60",
                recognize_check),
        cli_job(f"recognize --value {gg_digits} --degree 4 --digits 60",
                recognize_check),
    ]

    for kind, spec in (("rr", (1, 2, 5)), ("cubic", (1, 3, 6)),
                       ("rgg", (1, 3, 8))):
        q = f"0.{rng.randint(500, 1500):04d}"

        def run(kind=kind, q=q):
            return numerics.eval_cf(kind, None, q, numerics.context(50))

        def check(value, spec=spec, q=q):
            require(_close(value, ref.rq_value(spec, q), 50),
                    "continued fraction differs from mpmath.qp")

        jobs.append(Job(f"eval_cf {kind} at q = {q}", run, check))

    for r, digits, argv in FAILING:
        jobs.append(eval_job((1, 2, 5), f"--r {r}", digits, argv))
    return jobs


WORKLOADS: Dict[str, Callable[[random.Random], List[Job]]] = {
    "product-identity": product_identity,
    "registry": registry,
    "mine": mine,
    "numeric": numeric,
}


def build(name: str, seed: int) -> List[Job]:
    """The workload's batch for ``seed``, in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    jobs = WORKLOADS[name](rng)
    rng.shuffle(jobs)
    return jobs
