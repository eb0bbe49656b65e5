"""The three benchmark workloads: inputs, one timed pass, and output checks.

Constructing a workload imports ``cab`` and generates every input from the
seed; that is the set-up the benchmark times.  ``run_pass`` runs the whole
workload once, closed-loop in the calling thread.  It returns the time of
each evaluation, the time of each step that decides on the results after
them (the verdict), and the outputs.  ``check`` compares outputs
with what they must be and returns ``(attempted, failed)``; ``digest``
condenses the outputs so two passes or two processes can be compared.

``bench`` arguments wrap the benchmark's own top-level calls; the tracer
passes one that turns them into outer spans, untraced passes call through.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

COLORS = ("a", "b")
_COLOR = re.compile("[ab]")
REFERENCE = Path(__file__).resolve().parent / "reference" / "verify-trees.json"
VERIFY_SUITES = ("axioms", "coalgebra", "nalgebra", "matching")
# the sweep size of verify-trees: small enough for several cold passes a run
VERIFY_MAX_DEGREE = {False: "4", True: "3"}


def _untraced(name, fn):
    return fn


@dataclass
class PassResult:
    eval_s: list
    verdict_s: list
    outputs: list

    @property
    def wall_s(self) -> float:
        return sum(self.eval_s) + sum(self.verdict_s)


def rows(x) -> list[str]:
    """Lines ``"<coeff> <key>"`` of a linear combination, sorted by key text."""
    return [f"{c} {k}" for k, c in sorted((str(k), str(c)) for k, c in x.items())]


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class VerifyTrees:
    """``cab verify --suite S --max-degree 4 --json`` through ``cab.cli.main``
    for four suites.

    An evaluation is one ``cli.main`` call, so there are four per pass.
    """

    name = "verify-trees"

    def __init__(self, seed: int, tiny: bool = False, reference: dict | None = None):
        from cab import cli

        self.cli = cli
        extra = ["--max-degree", VERIFY_MAX_DEGREE[tiny]]
        suites = ("coalgebra", "matching") if tiny else VERIFY_SUITES
        self.argvs = [
            (s, ["verify", "--suite", s, "--seed", str(seed), "--json", *extra]) for s in suites
        ]
        if reference is None:
            reference = json.loads(REFERENCE.read_text())["tiny" if tiny else "full"]
        self.reference = reference

    def run_pass(self, bench=_untraced) -> PassResult:
        main = bench("bench.cli_main", lambda argv: self.cli.main(argv))
        perf = time.perf_counter
        outputs, times = [], []
        for suite, argv in self.argvs:
            buf = io.StringIO()
            a = perf()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            times.append(perf() - a)
            outputs.append((suite, code, buf.getvalue()))
        return PassResult(times, [], outputs)

    @staticmethod
    def triples(stdout: str) -> list[list]:
        """``[name, ok, detail]`` of each check; other JSON fields are ignored."""
        try:
            records = json.loads(stdout)
        except json.JSONDecodeError:
            return []
        if not isinstance(records, list):
            return []
        return [
            [r.get("name"), r.get("ok"), r.get("detail")] if isinstance(r, dict) else [r]
            for r in records
        ]

    def check(self, outputs) -> tuple[int, int]:
        attempted = failed = 0
        for suite, code, stdout in outputs:
            got = self.triples(stdout)
            want = self.reference.get(suite, [])
            attempted += 1 + max(len(got), len(want))
            failed += code != 0
            failed += sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
        return attempted, failed

    def digest(self, outputs) -> str:
        return _sha256(
            json.dumps([suite, code, self.triples(out)]) for suite, code, out in outputs
        )


class PrimBasis:
    """The primitive projector on a seeded sample of irreducible trees.

    The sample is drawn from the 16 896 irreducible degree-7 trees over two
    colors: the same number of colorings of each of the 132 shapes, so the
    work barely depends on the seed.  The pass projects each tree (one
    evaluation per tree), then decides that every image is primitive and
    that the images are independent.
    """

    name = "prim-basis"

    def __init__(self, seed: int, tiny: bool = False):
        from cab import infinitesimal, linear, trees

        self.inf, self.linear, self.trees = infinitesimal, linear, trees
        degree, per_shape = (4, 2) if tiny else (7, 10)
        shapes: dict = {}
        for t in trees.enumerate_irreducible(degree, COLORS):
            shapes.setdefault(_COLOR.sub("c", str(t)), []).append(t)
        rng = random.Random(seed)
        self.sample = [t for group in shapes.values() for t in rng.sample(group, per_shape)]
        rng.shuffle(self.sample)
        self.elements = [linear.LinComb.term(t) for t in self.sample]

    def run_pass(self, bench=_untraced) -> PassResult:
        project = bench("bench.projector", lambda x: self.inf.primitive_projector(x))
        is_primitive = bench("bench.primitive_check", lambda x: not self.inf.coproduct(x))
        rank = bench("bench.rank", lambda xs: self.linear.rank(xs))
        perf = time.perf_counter
        images, primitive, times, verdict = [], [], [], []
        for x in self.elements:
            a = perf()
            images.append(project(x))
            times.append(perf() - a)
        for image in images:
            a = perf()
            primitive.append(is_primitive(image))
            verdict.append(perf() - a)
        a = perf()
        r = rank(images)
        verdict.append(perf() - a)
        return PassResult(times, verdict, [images, primitive, r])

    def check(self, outputs) -> tuple[int, int]:
        """e(t) is t minus dot products, has zero coproduct, and the images
        have full rank."""
        images, primitive, r = outputs
        failed = r != len(self.sample)
        for t, image, prim in zip(self.sample, images, primitive):
            terms = dict(image.items())
            leading = terms.pop(t, 0) == 1
            rest = not any(self.trees.is_irreducible(k) for k in terms)
            failed += not (prim and leading and rest)
        return len(self.sample) + 1, int(failed)

    def digest(self, outputs) -> str:
        images, primitive, r = outputs
        return _sha256([*(line for x in images for line in rows(x) + ["--"]), f"rank {r}"])


# terms per element -> evaluations of each product law
PRODUCT_SIZES = {1: 60, 2: 50, 3: 40, 4: 30, 6: 20, 8: 15, 12: 8, 16: 4, 20: 4}
# (terms per element, longest interior) -> evaluations of each coproduct law
COPRODUCT_SIZES = {(1, 6): 40, (2, 4): 20, (3, 3): 10}
TINY_PRODUCT_SIZES = {1: 2, 2: 1}
TINY_COPRODUCT_SIZES = {(1, 3): 2}
# law -> (outer, inner, outer_r, inner_r): (x inner y) outer z = x outer_r (y inner_r z)
PRODUCT_LAWS = {
    "mul-assoc": ("path_mul", "path_mul", "path_mul", "path_mul"),
    "circ-assoc": ("path_circ", "path_circ", "path_circ", "path_circ"),
    "matching-dot-circ": ("path_circ", "path_mul", "path_mul", "path_circ"),
    "matching-circ-dot": ("path_mul", "path_circ", "path_circ", "path_mul"),
}
COPRODUCT_LAWS = {
    "coassociativity": "path_coassociativity_residual",
    "coderivation": "path_coderivation_residual",
}
ORACLE_PRODUCTS = {"path_mul": oracle.mul, "path_circ": oracle.circ}
POINTS = ("a", "b", "x")
MAX_INTERIOR = 6


class PathDense:
    """Path-algebra law evaluations on seeded linear combinations.

    Each evaluation computes one law on one input tuple and decides that its
    residual is zero.  The work is fixed: the number of evaluations of each
    size, and in each element the endpoints and interior length of every
    term, which fix how many basis pairs match.  The seed draws the interior
    points, the coefficients and the order of evaluation.
    """

    name = "path-dense"

    def __init__(self, seed: int, tiny: bool = False):
        from cab import linear, paths

        self.pth = paths
        rng = random.Random(seed)
        product_sizes = TINY_PRODUCT_SIZES if tiny else PRODUCT_SIZES
        coproduct_sizes = TINY_COPRODUCT_SIZES if tiny else COPRODUCT_SIZES
        specs = [
            (law, 3, k, MAX_INTERIOR, j)
            for law in PRODUCT_LAWS
            for k, count in product_sizes.items()
            for j in range(count)
        ] + [
            (law, 1, k, interior, j)
            for law in COPRODUCT_LAWS
            for (k, interior), count in coproduct_sizes.items()
            for j in range(count)
        ]
        rng.shuffle(specs)
        self.cases = []  # (law, cab arguments, oracle arguments)
        for law, arity, k, interior, j in specs:
            raw = [self._terms(rng, k, interior, j + e) for e in range(arity)]
            args = [linear.LinComb([(paths.Path(p), c) for p, c in terms]) for terms in raw]
            self.cases.append((law, args, [oracle.element(terms) for terms in raw]))

    @staticmethod
    def _terms(rng, k, max_interior, shift):
        """k terms; term i runs between fixed endpoints over (i + shift) mod
        (max_interior + 1) random interior points."""
        terms = []
        for i in range(k):
            start, end = POINTS[i % 3], POINTS[(i + i // 3) % 3]
            interior = [rng.choice(POINTS) for _ in range((i + shift) % (max_interior + 1))]
            terms.append(((start, *interior, end), rng.choice((-3, -2, -1, 1, 2, 3))))
        return terms

    def _law(self, law):
        """The evaluation of one law; cab functions are looked up per call."""
        pth = self.pth
        if law in COPRODUCT_LAWS:
            residual = COPRODUCT_LAWS[law]
            return lambda x: (None, not getattr(pth, residual)(x))
        outer, inner, outer_r, inner_r = PRODUCT_LAWS[law]

        def evaluate(x, y, z):
            lhs = getattr(pth, outer)(getattr(pth, inner)(x, y), z)
            return lhs, not (lhs - getattr(pth, outer_r)(x, getattr(pth, inner_r)(y, z)))

        return evaluate

    def run_pass(self, bench=_untraced) -> PassResult:
        laws = {law: bench(f"bench.{law}", self._law(law)) for law in (*PRODUCT_LAWS, *COPRODUCT_LAWS)}
        perf = time.perf_counter
        outputs, times = [], []
        for law, args, _ in self.cases:
            a = perf()
            outputs.append(laws[law](*args))
            times.append(perf() - a)
        return PassResult(times, [], outputs)

    @staticmethod
    def _expected(law, ref):
        if law in COPRODUCT_LAWS:
            return oracle.coproduct(ref[0])
        outer, inner = (ORACLE_PRODUCTS[name] for name in PRODUCT_LAWS[law][:2])
        return outer(inner(ref[0], ref[1]), ref[2])

    def _rendered(self, law, args, product) -> list[str]:
        """The rendered product a law evaluation is about: its left-hand side,
        or for the coproduct laws the coproduct of the input."""
        if product is None:
            product = self.pth.path_coproduct(args[0])
        return rows(product)

    def check(self, outputs) -> tuple[int, int]:
        failed = 0
        for (law, args, ref), (product, zero) in zip(self.cases, outputs):
            expected = oracle.render(self._expected(law, ref))
            failed += not (zero and self._rendered(law, args, product) == expected)
        return len(self.cases), failed + abs(len(outputs) - len(self.cases))

    def digest(self, outputs) -> str:
        return _sha256(
            line
            for (law, args, _), (product, zero) in zip(self.cases, outputs)
            for line in [law, str(zero), *self._rendered(law, args, product)]
        )


WORKLOADS = {w.name: w for w in (VerifyTrees, PrimBasis, PathDense)}
