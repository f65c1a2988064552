"""Results of the seeded bistellar searches, pinned.

Every value here was recorded with the immutable-complex implementation
that rebuilt a ``SimplicialComplex`` for every probe and rescanned all
faces for every move list.  The incremental move state must reproduce
them exactly: same certificates, same anneal end states, same bytes from
``tnt verify --json``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random

import pytest

from conftest import random_sphere
from tnt import (
    AnnealSchedule,
    boundary_simplex,
    dataset,
    save_complex,
    simplicial_product,
    stacked_sphere,
    stackedness_certificate,
    vertex_reduce,
)
from tnt.cli import main

# sha256(cert.dumps())[:16] per vertex v of M6_16; k = 2, seed s * 65537 + v
M6_16_LINK_CERTS = {
    1: "a19b78a4e7124449 81044ab7d9b827d5 4f8cc3914a2e7b9f f819c3e0d0190196 "
    "3cce743a89eefc2c 632eedd5b8016ed7 d7288fb936576877 4c1912a73cb8bd9c "
    "0dfb860914546ae9 767fe4500e4da16f b85cd829cdab82b8 4e00b9c8ccf1ccc1 "
    "a9b89d2620254aa0 a7994b6ecb497621 9d574e58d219b187 c08edcb283697b37",
    7: "5163cf77f7fe242e 9657ba2e18bc863a d4a0ddd8399e6d03 1723f29a991685d4 "
    "6b7ec960afc1bd49 5be3dde77c387b8e eb66306a7425ebc9 16e169d7cc8f6588 "
    "2ea09038a278161c ab8583c884db552f 872111eb1485c7a1 7c1fc1a24fde50c0 "
    "7fd4f380034905e3 1ed79a9ac43abe8e 40c6e9500bb4de04 3f9920c89949b86a",
}

PRODUCT_HASH = "99147e66a06729f7342e2fae8ba1b6f3"  # the input: 20 steps never beat it

# (end hash, certificate length) of full-schedule anneals that do move
ANNEALS = {
    ("torus", 0): ("e708154c715f5f1c361c1d730283104e", 76),
    ("torus", 1): ("d6c46651353c4262c97b3bcbbf6b4cc0", 59),
    ("torus", 2): ("8975d79fd6ead08c8826f6697a993a56", 52),
    ("s1xs2", 0): ("6ff0dab2e0d88a43c49b194ce82f85ac", 86),
    ("s1xs2", 1): ("7718352c3803063649b848e6cad92741", 99),
    ("s1xs2", 2): ("3dfefeeaa9248b0172044ea98840951d", 44),
}

# (sphere hash[:16], certificate digest, moves) for random walked spheres, k = 2
RANDOM_SPHERE_CERTS = [
    ("1cea9391f5756053", "5e83ae12d4ba06cb", 7),
    ("1ae2f2d65a6c878b", "b86dd64d787a653c", 0),
    ("d906e83d0fd25e81", "3e9ae35b656662a1", 7),
    ("7afa83de61397a01", "12a67771e71be318", 2),
    ("b5e246c24f4244fa", "d3064b1f86e69221", 0),
    ("1404b87eee4daf8a", "b8701a1f45e2b9fb", 2),
    ("25d7345724fee15a", "219e904947b867f8", 1),
    ("80a59b93aeffd438", "dd631116e781a6e7", 4),
]

STACKED_CERTS = {
    (3, 12, 1, 0): ("d15342ca9d6d413d", 7),
    (3, 12, 1, 1): ("a9341b3f398369dc", 7),
    (3, 12, 2, 0): ("791725601fa5466f", 7),
    (3, 12, 2, 1): ("c67dc9b514779338", 7),
    (4, 11, 1, 0): ("dbbd64df4e72d0be", 5),
    (4, 11, 1, 1): ("dfbc4f66ad42d98b", 5),
    (4, 11, 2, 0): ("b005d3b4bf8d1316", 5),
    (4, 11, 2, 1): ("fe7f89d1f992b6db", 5),
}

VERIFY_JSON_SHA256 = {
    "m6_16": "f81b031da1eb927caeea4bd171a90951c6a51fc2e687305e2395883ec446f63f",
    "walkup_m3": "6e15acffdc015414fb6b46064adadc59113b1b3680c28938d339d0e83664fecf",
    "lemma34": "406edd14fa5772ac5d77629c3286c67e0014e5e0f6889dc3fa53f5c3619d37d5",
}


def _digest(cert) -> str:
    return hashlib.sha256(cert.dumps().encode()).hexdigest()[:16]


@pytest.mark.parametrize("s", sorted(M6_16_LINK_CERTS))
def test_m6_16_link_certificates_pinned(s):
    M = dataset("M6_16")
    got = [_digest(stackedness_certificate(M.link((v,)), 2, budget=100_000, seed=s * 65537 + v)) for v in M.vertices]
    assert got == M6_16_LINK_CERTS[s].split()


def test_product_anneal_pinned():
    P = simplicial_product(boundary_simplex(3), boundary_simplex(5))
    assert P.canonical_hash() == PRODUCT_HASH
    for seed in (0, 5, 99):
        best, cert = vertex_reduce(P, target_f0=16, schedule=AnnealSchedule(steps=20), seed=seed)
        assert (best.canonical_hash(), len(cert.moves)) == (PRODUCT_HASH, 0)


@pytest.mark.parametrize("name,seed", sorted(ANNEALS))
def test_anneal_end_states_pinned(name, seed):
    K = simplicial_product(boundary_simplex(2), boundary_simplex(2 if name == "torus" else 3))
    steps = 400 if name == "torus" else 600
    best, cert = vertex_reduce(K, schedule=AnnealSchedule(steps=steps), seed=seed)
    assert (best.canonical_hash(), len(cert.moves)) == ANNEALS[(name, seed)]


def test_stackedness_certificates_pinned():
    rng = random.Random(31)
    for j, pin in enumerate(RANDOM_SPHERE_CERTS):
        S = random_sphere(rng, d=rng.choice([3, 4]), walk=8)
        cert = stackedness_certificate(S, 2, budget=3000, seed=j)
        assert (S.canonical_hash()[:16], _digest(cert), len(cert.moves)) == pin
    for (d, n, k, seed), pin in STACKED_CERTS.items():
        cert = stackedness_certificate(stacked_sphere(d, n, seed=d * 10 + k), k, budget=20000, seed=seed)
        assert (_digest(cert), len(cert.moves)) == pin


def test_verify_json_bytes_pinned(tmp_path, monkeypatch):
    # the report names its input path, so the files sit in the working directory
    monkeypatch.chdir(tmp_path)
    save_complex(dataset("M6_16"), "M6_16.facets")
    save_complex(dataset("walkup_M3"), "walkup.facets")
    save_complex(stacked_sphere(4, 10, seed=5), "stacked.facets")
    runs = {
        "m6_16": ["verify", "M6_16.facets", "--suite", "m6_16", "--seed", "1", "--json"],
        "walkup_m3": ["verify", "walkup.facets", "--suite", "walkup_m3", "--json"],
        "lemma34": ["verify", "stacked.facets", "--suite", "lemma34", "--seed", "3", "--json"],
    }
    for suite, argv in runs.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == VERIFY_JSON_SHA256[suite], suite
