"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs, runs one timed
repetition through public ``tnt`` calls only (names in ``tnt.__all__`` and
``tnt.cli.main``), and checks the repetition's results outside the timed
region.  Every repetition builds a fresh complex from facets, so the
per-complex caches start cold, as they do for a CLI user on every run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import tnt
import tnt.cli
from hostspeed import now
from spans import anneal_steps

# Reduced sizes keep the self-test short; "full" is what the benchmark measures.
SIZES = {
    "full": {"kuehnel_d": 5, "orderings": 20, "anneal_steps": 20},
    "small": {"kuehnel_d": 3, "orderings": 3, "anneal_steps": 3},
}
M6_16_BETTI = (1, 0, 1, 0, 1, 0, 1)


class CheckFailed(Exception):
    """A repetition's output did not pass its correctness check."""


@dataclass
class Inputs:
    """Everything set-up builds: the three complexes and the M6_16 file."""

    m6_16: tnt.SimplicialComplex
    kuehnel: tnt.SimplicialComplex
    product: tnt.SimplicialComplex
    m6_16_path: str


def build_inputs(size: str, m6_16_path: str) -> Inputs:
    """Load the dataset, build the series manifold (it validates itself) and
    the sphere product, and write M6_16 to ``m6_16_path`` for the CLI.

    The CLI gets the path relative to the working directory, because its
    JSON report names the input file and must not depend on where the
    checkout lives."""
    m6 = tnt.dataset("M6_16")
    kuehnel = tnt.kuehnel_series(SIZES[size]["kuehnel_d"])
    product = tnt.simplicial_product(tnt.boundary_simplex(3), tnt.boundary_simplex(5))
    tnt.save_complex(m6, m6_16_path)
    return Inputs(m6, kuehnel, product, os.path.relpath(m6_16_path))


def _rng(seed: int, rep: int, salt: int) -> random.Random:
    return random.Random(hashlib.sha256(f"{seed}:{rep}:{salt}".encode()).digest())


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Rep:
    """What one timed repetition hands to its check."""

    items: int
    call_s: list[float]
    output: object


@dataclass
class Workload:
    """One workload; ``item_unit`` names the work counted by ``items_per_s``."""

    item_unit = ""
    inputs: Inputs
    seed: int
    size: str
    results: dict = field(default_factory=dict)
    control: object = None

    def __post_init__(self):
        pass

    def prepare(self, rep: int):
        """Untimed per-repetition inputs."""
        return None

    def run(self, rep: int, prepared) -> Rep:
        raise NotImplementedError

    def check(self, rep: int, prepared, out: Rep) -> None:
        raise NotImplementedError

    def final_check(self) -> None:
        """Untimed checks made once per run (negative controls)."""

    def record(self, rep: int, result) -> None:
        """Keep repetition ``rep``'s result; a repeat run of it must agree."""
        first = self.results.setdefault(rep, result)
        if first != result:
            raise CheckFailed(f"repetition {rep} gave {result}, earlier {first}")

    def fingerprint(self) -> str:
        """Digest of the first repetition's result and the run-level control,
        which every run makes whatever its speed."""
        return _digest([self.results.get(0), self.control])


class TightSweep(Workload):
    """Exhaustive simplex-ambient tightness sweep of a relabelled series manifold."""

    item_unit = "subsets"

    def prepare(self, rep):
        K = self.inputs.kuehnel
        verts = list(K.vertices)
        image = verts[:]
        _rng(self.seed, rep, 1).shuffle(image)
        relabel = dict(zip(verts, image))
        return [[relabel[v] for v in f] for f in K.facets]

    def run(self, rep, facets):
        K = tnt.from_facets(facets)
        t1 = now()
        report = tnt.tightness_verify(K, tnt.AmbientPolytope.simplex(len(K.vertices)))
        t2 = now()
        return Rep(report.subsets_checked, [t2 - t1], report)

    def check(self, rep, facets, out):
        r = out.output
        n = len(self.inputs.kuehnel.vertices)
        if not (r.tight and r.exhaustive and r.witness is None and r.subsets_checked == 2**n):
            raise CheckFailed(f"tight sweep: {r!r}, exhaustive={r.exhaustive}, checked={r.subsets_checked}")
        self.record(rep, [r.tight, r.exhaustive, r.subsets_checked])

    def final_check(self):
        C = tnt.cyclic_polytope_boundary(4, 6)
        r = tnt.tightness_verify(C, tnt.AmbientPolytope.simplex(6))
        if r.tight or r.witness is None or r.witness[1] != 1:
            raise CheckFailed(f"negative control: cyclic_polytope_boundary(4, 6) gave {r!r}")
        self.control = [list(r.witness[0]), r.witness[1], r.witness[2]]


class MorseOrderings(Workload):
    """mu-vectors of M6_16 over seeded random orderings, on one fresh complex."""

    item_unit = "orderings"

    DUALITY_SAMPLES = 2

    def prepare(self, rep):
        verts = list(self.inputs.m6_16.vertices)
        rng = _rng(self.seed, rep, 2)
        orders = []
        for _ in range(SIZES[self.size]["orderings"]):
            order = verts[:]
            rng.shuffle(order)
            orders.append(order)
        return orders

    def run(self, rep, orders):
        M = tnt.from_facets(self.inputs.m6_16.facets)
        calls, mus = [], []
        for order in orders:
            t0 = now()
            mus.append(tnt.mu_vector(M, order).mu)
            calls.append(now() - t0)
        return Rep(len(orders), calls, (M, mus))

    def check(self, rep, orders, out):
        M, mus = out.output
        chi = M.euler_characteristic()
        d = M.dim
        for order, mu in zip(orders, mus):
            alt = sum((-1) ** i * m for i, m in enumerate(mu))
            if chi != 4 or alt != chi or any(m < b for m, b in zip(mu, M6_16_BETTI)):
                raise CheckFailed(f"Morse relations fail for ordering {order}: mu={mu}, chi={chi}")
        for order, mu in list(zip(orders, mus))[: self.DUALITY_SAMPLES]:
            back = tnt.mu_vector(M, order[::-1]).mu
            if any(back[i] != mu[d - i] for i in range(d + 1)):
                raise CheckFailed(f"duality fails for ordering {order}: {mu} reversed gives {back}")
        hist: dict[str, int] = {}
        for mu in mus:
            key = " ".join(map(str, mu))
            hist[key] = hist.get(key, 0) + 1
        self.record(rep, sorted(hist.items()))


class AnnealProduct(Workload):
    """Annealed vertex reduction of the 24-vertex product of two sphere boundaries."""

    item_unit = "anneal steps run"

    def __post_init__(self):
        self._betti: dict[str, tuple] = {}

    def prepare(self, rep):
        return _rng(self.seed, rep, 3).randrange(1 << 30)

    def run(self, rep, anneal_seed):
        steps = SIZES[self.size]["anneal_steps"]
        P = tnt.from_facets(self.inputs.product.facets)
        t0 = now()
        best, cert = tnt.vertex_reduce(P, target_f0=16, schedule=tnt.AnnealSchedule(steps=steps), seed=anneal_seed)
        t1 = now()
        return Rep(anneal_steps(steps, 16, best, cert), [t1 - t0], (best, cert))

    def check(self, rep, anneal_seed, out):
        best, cert = out.output
        h = best.canonical_hash()
        if h not in self._betti:
            self._betti[h] = tnt.betti_numbers(best).betti
        if self._betti[h] != M6_16_BETTI:
            raise CheckFailed(f"anneal seed {anneal_seed}: best has Betti {self._betti[h]}")
        if cert.replay(self.inputs.product) != best:
            raise CheckFailed(f"anneal seed {anneal_seed}: certificate replay does not give best")
        self.record(rep, [anneal_seed, h, len(cert.moves), best.f_vector()[0]])


class VerifyM6_16(Workload):
    """``tnt verify --suite m6_16 --json`` in process, cycling over suite seeds.

    Repetition k uses suite seed k mod SUITE_SEEDS, so every seed after the
    first cycle repeats and its JSON must match the earlier bytes.
    """

    item_unit = "link certificates"

    SUITE_SEEDS = 6

    def __post_init__(self):
        self._outputs: dict[int, str] = {}

    def prepare(self, rep):
        return 1 + _rng(self.seed, rep % self.SUITE_SEEDS, 4).randrange(1 << 20)

    def run(self, rep, suite_seed):
        argv = ["verify", self.inputs.m6_16_path, "--suite", "m6_16", "--seed", str(suite_seed), "--json"]
        buf = io.StringIO()
        t0 = now()
        with contextlib.redirect_stdout(buf):
            code = tnt.cli.main(argv)
        links = len(self.inputs.m6_16.vertices)
        return Rep(links, [now() - t0], (code, buf.getvalue()))

    def check(self, rep, suite_seed, out):
        code, text = out.output
        if code != 0 or json.loads(text).get("pass") is not True:
            raise CheckFailed(f"verify --seed {suite_seed}: exit {code}")
        first = self._outputs.setdefault(suite_seed, text)
        if first != text:
            raise CheckFailed(f"verify --seed {suite_seed}: JSON differs between repetitions")
        self.record(rep, [suite_seed, hashlib.sha256(text.encode()).hexdigest()[:16]])


WORKLOADS = {
    "tight_sweep": TightSweep,
    "morse_orderings": MorseOrderings,
    "anneal_product": AnnealProduct,
    "verify_m6_16": VerifyM6_16,
}
