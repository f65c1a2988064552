"""Results of the seeded searches and the CLI reports, pinned.

The search values were recorded with the immutable-complex implementation
that rebuilt a ``SimplicialComplex`` for every probe and rescanned all
faces for every move list.  The incremental move state must reproduce
them exactly: same certificates, same bytes from ``tnt verify --json``.
The draw order, the anneal end states and the ``tnt reduce`` reports were
re-recorded when the move state built for every index began recounting
the faces of A u B on each move, which orders its valid-move lists
differently.  The CLI and ``to_json`` digests were recorded with the
hand-written report classes and the per-command report code, before they
became dataclasses and one report path; they pin the public API, the exit
codes and the report bytes of every command.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from conftest import random_sphere
import tnt
from tnt import (
    AmbientPolytope,
    AnnealSchedule,
    BistellarMove,
    ExactStackedness,
    HomologyReport,
    MembershipReport,
    MoveCertificate,
    MuVector,
    PseudomanifoldReport,
    TightNeighborlyReport,
    TightnessReport,
    betti_numbers,
    boundary_simplex,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    from_facets,
    kuehnel_series,
    mu_vector,
    relative_mu_contribution,
    save_complex,
    simplicial_product,
    stacked_sphere,
    stackedness_certificate,
    tight_neighborly_check,
    tightness_verify,
    vertex_reduce,
    walkup_class_membership,
)
from tnt.bistellar import _MoveState
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

# sha256 of the JSON move lists, [:16]: the first 300 draw + apply moves of
# a full-index walk on the product (seed 7), which pins the order of the
# valid-move lists, recorded when the full-index state began recounting the
# faces of A u B; and every moves() list of a k = 2 search on the link of
# vertex 1 of M6_16 (seed 3), with the number of lists, recorded with the
# move state that kept a cofacet set per face
PRODUCT_DRAWS = "43dfaddb86467b2e"
LINK_MOVE_LISTS = ("69283f240e3ac861", 49)

# (end hash, certificate length) of full-schedule anneals that do move,
# recorded when the full-index state began recounting the faces of A u B
ANNEALS = {
    ("torus", 0): ("3802699094b71d2a31e9f009df61d739", 37),
    ("torus", 1): ("f350069d5c92975386d04bed827c047b", 46),
    ("torus", 2): ("aef32fed31155f55ae99ca9a77ca643f", 34),
    ("s1xs2", 0): ("e939bc2adfbd11f798432dadf3487de0", 86),
    ("s1xs2", 1): ("7e83603a4493e1ecc0cb4ac3e33af49a", 126),
    ("s1xs2", 2): ("46c889132ee640e83b928c0df53f7a91", 24),
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

# (hash[:16], [(certificate digest, moves) or None per budget in SMALL_BUDGETS],
# smallest budget that yields a certificate); k = 2, seed 7.  Recorded while
# every probe still applied and undid its move, so they show that a probe
# costs exactly one unit of budget.  The smallest budgets are one below the
# first recording since the search checks for the simplex boundary before
# the budget: the move that reaches it needs no unit to spare.
SMALL_BUDGETS = (1, 5, 17, 40, 200)
SMALL_BUDGET_CERTS = {
    "M6_16 link 1": ("fd12ca18448b22b2", [None, None, None, None, ("fae8eb7dde038a84", 28)], 133),
    "M6_16 link 12": ("8de1c4c2225c04c5", [None, None, None, None, ("51f102d03e889916", 28)], 116),
    "sphere 0": ("77fa1b528f58728b", [None, None, None, ("e9f8513fa53e3245", 7), ("e9f8513fa53e3245", 7)], 19),
    "sphere 8": ("32dbb8f344e17cf2", [None, None, ("cfa73b06a4486b10", 3), ("cfa73b06a4486b10", 3), ("cfa73b06a4486b10", 3)], 6),
}

# sha256 of json.dumps of the per-vertex contributions of 20 orderings, the
# s-th the sorted vertices shuffled by random.Random(1000 + s).  mu_vector
# refuses the non-pure complex, so its contributions come straight from
# relative_mu_contribution over the same predecessor sets.  Recorded while
# every contribution was read from the vertex link's own chain engine.
MU_NONPURE = [(1, 2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 7), (6, 7), (2, 8), (9,)]
MU_PER_VERTEX_SHA256 = {
    "M6_16": "8155a2e1b93bd183cc40ef481825a2f45251461d7b2120e2f15536b97c28c6bc",
    "kuehnel4": "fe132bfc62aff56942f635dc782d2028ac6352356460f6a057114a47aa3d2cfe",
    "nonpure": "b2b30138ef53753518ba93e1a2fd54b8ffdbd0174b9e710010a0f17e7876cd7f",
}

VERIFY_JSON_SHA256 = {
    "m6_16": "f81b031da1eb927caeea4bd171a90951c6a51fc2e687305e2395883ec446f63f",
    "walkup_m3": "6e15acffdc015414fb6b46064adadc59113b1b3680c28938d339d0e83664fecf",
    "lemma34": "406edd14fa5772ac5d77629c3286c67e0014e5e0f6889dc3fa53f5c3619d37d5",
}

# command -> (argv without --json, exit code, sha256 of --json stdout, sha256 of text stdout)
CLI_SHA256 = {
    "info": (
        ["info", "M6_16.facets"], 0,
        "39cd59859681b87df692bf756b092b7031688cfcbfc676154bf9a98c4087d629",
        "e34e14e0f5650046a9ab2bb9aaa9b7f751e733715897bc64e10ab0aeb820b5df",
    ),
    "tight_walkup": (
        ["tight", "walkup.facets"], 0,
        "0095d6d5f7c9120da298be8188882cb2d04b776f5b6b68b2679410bf4467b469",
        "83d5a3a29b7f768dbf1b8b61aadbfd7577bfa985febc4d77b46d962952c3ae3c",
    ),
    "tight_cyclic": (
        ["tight", "cyclic.facets"], 1,
        "d2fb7f61485fad7cf994b91d8354aaa78e129e4ebd135fbaf3e55e9775c31bf1",
        "ed663c9ad8cdf096eb988c426d4e25131083fb8d510ba9f257265050f9e0537b",
    ),
    "tight_octa_cross": (
        ["tight", "octa.facets", "--ambient", "cross"], 0,
        "5d17eb4754feaf318569fe0a03ba41d01aa6048c143584b73b3de3c7cdb3f4de",
        "128c97e65687d418f6a67d8446080a9f32baa9195682ba71bda177173474536e",
    ),
    "tight_sampled": (
        ["tight", "M6_16.facets", "--ambient", "cross", "--ceiling", "10", "--samples", "40", "--seed", "5"], 0,
        "1ae7290cf61cfea8a5a7ecbc0e13fefe060aba39f68744eba1405b5f8c7b0e44",
        "1a8ecc425a89ce2a92670ca97b7500cc62aff74944483082d51f4c39b2f771f2",
    ),
    "morse": (
        ["morse", "M6_16.facets", "--orderings", "5", "--seed", "2"], 0,
        "84baad69efb39b9166aa39a57da112b2da89b7734fc02c9e84e3c6278dc5257a",
        "a1586fd31733756a0ce56dc0c973cc51468f9e2258c7bb4a28c5c59295cb95ad",
    ),
    "stacked": (
        ["stacked", "stacked.facets", "--k", "1", "--seed", "3"], 0,
        "e8eac868af11a339787a9534da2d0cac36962e1b23113c1cafee3219b3cc6afb",
        "88b5ffa71899116b3a92334ed97686dc203431fbe4ae55095b5fb0647a5bd3e2",
    ),
    "stacked_unknown": (
        ["stacked", "octa.facets", "--k", "1", "--budget", "0", "--seed", "3"], 3,
        "49b2c166d29a292d19a6d0664196033b3758dba4bcfa53c401842c3e7a27256b",
        "5995ed8ff7efe76846baec65e55322d796edf258ebecea15d95236310439bb18",
    ),
    "reduce": (
        ["reduce", "torus.facets", "--steps", "400", "--seed", "0"], 0,
        "aaf5f9ab2f317882d48968cc2ddc4f1ab39fb5734a3d09017cfeda2fc73a5e6e",
        "d7878a3a29302a7b50bdfad98d2fc1120375ab24d9b8cbb4104d41236076f9bf",
    ),
    "reduce_unreached": (
        ["reduce", "torus.facets", "--steps", "50", "--target-f0", "6", "--seed", "1"], 3,
        "5f946bd3aa684e403ae35d5e732bee1a6733b620f26608f5a5887fddca468b5e",
        "cc3a566fe27ae4e60956e587d1ac65fbe8c0272e0362bba7ccf9aa067a43f032",
    ),
    "bounds_tight_neighborly": (
        ["bounds", "tight-neighborly", "--dim", "3", "--beta1", "1", "--f0", "9"], 0,
        "0f45e164b15d3b8ab913cea0ab853a1686da8c7b599ee91ed921936cb4bcd4ce",
        "b5a416ad539f9b7fde72f83fe32721234d9346ed636fe01be2f164b4b75f05ef",
    ),
    "bounds_heawood": (
        ["bounds", "heawood", "--chi", "0", "--f0", "7"], 0,
        "7143664a5ee146a2b019ef85044a781c6f7b880c2b5a347661b0f7be91e2570b",
        "c30f7192a678e2b32aeede20f3db338081b1e3def877488c495d6a2dfdd9623d",
    ),
    "bounds_glbc": (
        ["bounds", "glbc", "--dim", "5", "--k", "2", "--j", "5", "--f", "1,7,21", "--actual", "7"], 0,
        "92e58cf33951ee93d3dee21fc1c7dbd4fd2ac904b24ab3d4a7d0bd9b38a0426e",
        "e3b02dc36c27502d24494a408b7ca5f1c1442e9353c9249dece4958d0a6f1dc0",
    ),
    "bounds_six": (
        ["bounds", "six", "--chi", "4", "--f0", "16", "--f1", "112", "--actual", "448"], 0,
        "ca5f05cc44b90cbd5ee00af45992f271f96965ceda6183d8e1363e55d1d5301d",
        "bd8b85087c25becaa77df8c6d231295208444ca9b6683ce3a22170f2c5a8b3a0",
    ),
    "bounds_binomial": (
        ["bounds", "binomial", "--f0", "15", "--dim", "4", "--beta1", "3"], 0,
        "c5488ac12763d8a9b7b2eab6857b1edfe67ae97535b3e6955e8a1810361657a2",
        "f39017b2c41e7177181df33c81afe735f24ffdde9613817391ded0c553907eb6",
    ),
    "bounds_ds6": (
        ["bounds", "ds6", "--f", "16,112,448,980,1232,840,240", "--chi", "4"], 0,
        "3e21a186704b1442392e8b367827e7813a6960b31f8680442272a90c8aace661",
        "8a5fdb58bb2b803a6ef60a4ca354f0c5a6b930984e3d1e52d00f3bc2a6587a92",
    ),
}

# sha256 of json.dumps(report.to_json()), key order included
TO_JSON_SHA256 = {
    "homology": "c4fd4cbba7b9d9005fb937c527d319627c0840c53bfd4fc11a6ca9ee88707bed",
    "pseudomanifold": "c4c3fdfce7b41e640e05912cd2bfbbd7c2777439ad609eaac760b08fb733bdd2",
    "tightness": "4ed42dfc6770d10dd9e0dca55f5c595b03a3a33d54fc61c32551053f4768449b",
    "membership": "ce72b602587ea6bf85709d742c56f073b3e643b353f8164c50f200e39f0f40fc",
    "membership_exact": "bd06105b67f8dc1e9a2759bb533b86c8e1f6ced2fba1cb9edaf1db69471271a4",
    "tight_neighborly": "866fc2c1812d157e900a188551dcb5adfd687669ccd5feb4ad6a5943f73c37ec",
    "certificate": "d057291f8f11e2dbc1e22f3157c2960afa97bb3a055f793d6f3e0bdd0a813b81",
}

PUBLIC_API = [
    "__version__", "AmbientPolytope", "AnnealSchedule", "BinomialCheck", "BistellarMove",
    "BoundsReport", "ExactStackedness", "HomologyReport", "InvalidMoveError", "MembershipReport",
    "MoveCertificate", "MuVector", "PseudomanifoldReport", "SearchLimitError", "SimplicialComplex",
    "TightNeighborlyReport", "TightnessReport", "TntError", "apply_move", "automorphism_group_order",
    "automorphisms", "betti_numbers", "binomial_form_check", "boundary_complex", "boundary_matrix",
    "boundary_simplex", "central_symmetry", "find_central_involution", "connected_sum",
    "cross_polytope_boundary", "cyclic_polytope_boundary", "dataset", "dataset_names",
    "dehn_sommerville6_residual", "from_facets", "from_json", "from_text", "glbc_bound",
    "hamiltonian_check", "handle_addition", "heawood_bound", "induced_kernel_dim", "is_automorphism",
    "is_boundary_simplex", "is_polar", "k_stacked_exact", "kuehnel_series", "lacunary_tight_pattern",
    "load_complex", "move_fvector_delta", "mu_vector", "reduced_betti", "relative_mu_contribution",
    "save_complex", "simplex", "simplicial_product", "six_manifold_bound", "stacked_sphere",
    "stackedness_certificate", "stellar_subdivide", "tight_neighborly_bound", "tight_neighborly_check",
    "tightness_verify", "to_json", "to_text", "valid_moves", "vertex_reduce", "walkup_class_membership",
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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


def _json_digest(obj) -> str:
    return _sha256(json.dumps(obj, separators=(",", ":")))[:16]


def test_product_draw_order_pinned():
    state = _MoveState(simplicial_product(boundary_simplex(3), boundary_simplex(5)), range(1, 7))
    rng = random.Random(7)
    walk = []
    for _ in range(300):
        mv = state.draw(rng)
        state.apply(mv)
        walk.append(mv.to_json())
    assert _json_digest(walk) == PRODUCT_DRAWS


def test_link_search_move_lists_pinned(monkeypatch):
    lists = []
    moves = _MoveState.moves

    def recording(self, indices=None):
        out = moves(self, indices)
        lists.append([mv.to_json() for mv in out])
        return out

    monkeypatch.setattr(_MoveState, "moves", recording)
    assert stackedness_certificate(dataset("M6_16").link((1,)), 2, seed=3) is not None
    assert (_json_digest(lists), len(lists)) == LINK_MOVE_LISTS


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


def test_small_budget_certificates_pinned():
    M = dataset("M6_16")
    rng = random.Random(53)
    walked = [random_sphere(rng, d=4, walk=10) for _ in range(9)]
    spheres = {"M6_16 link 1": M.link((1,)), "M6_16 link 12": M.link((12,)),
               "sphere 0": walked[0], "sphere 8": walked[8]}

    def run(S, budget):
        cert = stackedness_certificate(S, 2, budget=budget, seed=7)
        return None if cert is None else (_digest(cert), len(cert.moves))

    for name, (hash16, pins, first) in SMALL_BUDGET_CERTS.items():
        S = spheres[name]
        assert S.canonical_hash()[:16] == hash16, name
        assert [run(S, b) for b in SMALL_BUDGETS] == pins, name
        assert run(S, first - 1) is None and run(S, first) is not None, name


def _per_vertex(K, order):
    if K.is_pure:
        return mu_vector(K, order).per_vertex
    out, seen = [], []
    for v in order:
        out.append((v, relative_mu_contribution(K, v, seen)))
        seen.append(v)
    return tuple(out)


@pytest.mark.parametrize("name", sorted(MU_PER_VERTEX_SHA256))
def test_mu_per_vertex_pinned(name):
    K = {"M6_16": dataset("M6_16"), "kuehnel4": kuehnel_series(4), "nonpure": from_facets(MU_NONPURE)}[name]
    rows = []
    for s in range(20):
        order = list(K.vertices)
        random.Random(1000 + s).shuffle(order)
        rows.append(_per_vertex(K, order))
    assert _sha256(json.dumps(rows)) == MU_PER_VERTEX_SHA256[name]


def test_mu_contribution_of_a_non_vertex_raises_key_error():
    K = from_facets(MU_NONPURE)
    for v in (10, 42):
        with pytest.raises(KeyError):
            relative_mu_contribution(K, v, [1, 2, 3])
    with pytest.raises(KeyError):
        relative_mu_contribution(dataset("M6_16"), 17, [])
    with pytest.raises(ValueError):
        relative_mu_contribution(K, 0, [1, 2, 3])


def test_mu_contribution_ignores_labels_outside_the_complex():
    K = from_facets(MU_NONPURE)
    odd = [1, 3, 5, 7, 9, 100]
    want = {1: (0, 0, 0, 0), 2: (0, 0, 0, 0), 3: (0, 1, 0, 0), 4: (0, 0, 0, 0), 5: (0, 1, 0, 0),
            6: (0, 1, 0, 0), 7: (0, 0, 0, 0), 8: (1, 0, 0, 0), 9: (1, 0, 0, 0)}
    assert {v: relative_mu_contribution(K, v, odd) for v in K.vertices} == want
    for v in K.vertices:
        rest = [u for u in K.vertices if u != v]
        assert relative_mu_contribution(K, v, rest + [0, 10, 42]) == relative_mu_contribution(K, v, rest)


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


def test_public_api_pinned():
    assert tnt.__all__ == PUBLIC_API
    assert all(hasattr(tnt, name) for name in PUBLIC_API)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    inputs = {
        "M6_16.facets": dataset("M6_16"),
        "walkup.facets": dataset("walkup_M3"),
        "stacked.facets": stacked_sphere(4, 10, seed=5),
        "cyclic.facets": cyclic_polytope_boundary(4, 6),
        "octa.facets": cross_polytope_boundary(3),
        "torus.facets": simplicial_product(boundary_simplex(2), boundary_simplex(2)),
    }
    for name, K in inputs.items():
        save_complex(K, str(root / name))
    return root


@pytest.mark.parametrize("command", sorted(CLI_SHA256))
def test_cli_report_bytes_pinned(command, cli_inputs, monkeypatch):
    # the report names its input path, so the files sit in the working directory
    monkeypatch.chdir(cli_inputs)
    argv, code, json_sha, text_sha = CLI_SHA256[command]
    for extra, want in (["--json"], json_sha), ([], text_sha):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv + extra) == code
        assert _sha256(buf.getvalue()) == want, (command, extra)


def test_to_json_pinned():
    M = dataset("M6_16")
    reports = {
        "homology": betti_numbers(M),
        "pseudomanifold": M.pseudomanifold_check(),
        "tightness": tightness_verify(cyclic_polytope_boundary(4, 6), AmbientPolytope.simplex(6)),
        "membership": walkup_class_membership(dataset("walkup_M3"), 1, seed=2),
        "membership_exact": walkup_class_membership(stacked_sphere(3, 8, seed=1), 2),
        "tight_neighborly": tight_neighborly_check(dataset("walkup_M3")),
        "certificate": stackedness_certificate(stacked_sphere(4, 10, seed=5), 1, seed=3),
    }
    for name, rep in reports.items():
        assert _sha256(json.dumps(rep.to_json())) == TO_JSON_SHA256[name], name


def test_report_constructors_and_equality():
    mv = MuVector((1, 0, 1), ((1, (1, 0, 0)),))
    assert mv == (1, 0, 1) and mv == [1, 0, 1] and mv == MuVector((1, 0, 1), ())
    assert mv != (1, 1, 1) and list(mv) == [1, 0, 1] and mv[2] == 1 and len(mv) == 3
    assert HomologyReport((1, 0), (0, 0, 0)) == HomologyReport((1, 0), (0, 0, 0), "other field")
    assert HomologyReport((1, 0), (0, 0, 0)).field == "GF2"
    moves = [BistellarMove((1,), (2, 3))]
    cert = MoveCertificate("a" * 32, moves, "b" * 32)
    assert cert.moves == tuple(moves) and cert == MoveCertificate("a" * 32, tuple(moves), "b" * 32)
    tn = TightNeighborlyReport(3, 9, 1, 9, True, True, "a note")
    assert (tn.field, tn.note) == ("GF2", "a note")
    with pytest.raises(TypeError):
        TightNeighborlyReport(3, 9, 1, 9, True, True, "a note", "GF2")
    assert TightnessReport(True, None, 1, True, 2, "simplex").ambient_kind == "simplex"
    assert MembershipReport(True, 1, "exact", {}).per_vertex == {}
    assert PseudomanifoldReport(2, True, False, 1).is_closed_pseudomanifold is False
    assert ExactStackedness("no").ball is None
    # the large fields stay out of the reprs
    assert "per_vertex" not in repr(mv) and "moves" not in repr(cert)
