"""Input checks of the library: each bad argument raises its error with its message."""
import pytest

from tnt import (
    AmbientPolytope,
    SimplicialComplex,
    binomial_form_check,
    boundary_matrix,
    boundary_simplex,
    connected_sum,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    from_json,
    from_text,
    hamiltonian_check,
    handle_addition,
    induced_kernel_dim,
    k_stacked_exact,
    kuehnel_series,
    move_fvector_delta,
    simplicial_product,
    stacked_sphere,
    stellar_subdivide,
    tight_neighborly_check,
    walkup_class_membership,
)

POINTS = from_text("1\n2\n")
C5 = from_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
TETRA = boundary_simplex(3)  # facets 123 124 134 234
OCTA = cross_polytope_boundary(3)  # 135 and 246 are disjoint facets

CHECKS = {
    "move_index": (lambda: move_fvector_delta(3, 4), "index must be in [0, 3], got 4"),
    "exact_stackedness_points": (lambda: k_stacked_exact(POINTS, 0), "complex must have dimension at least 1"),
    "binomial_few_vertices": (lambda: binomial_form_check(2, 3, 1), "f0 must be at least d+1"),
    "missing_faces_negative": (lambda: TETRA.missing_faces(-1), "j must be nonnegative"),
    "pseudomanifold_empty": (lambda: SimplicialComplex().pseudomanifold_check(), "empty complex"),
    "json_invalid": (lambda: from_json("{"), "line 1: invalid JSON: Expecting property name enclosed in double quotes"),
    "json_without_facets": (lambda: from_json('{"faces": [[1, 2]]}'), "JSON object must have a 'facets' key"),
    "boundary_matrix_above_dim": (lambda: boundary_matrix(TETRA, 3), "j must be in [0, 2], got 3"),
    "induced_kernel_negative": (lambda: induced_kernel_dim(TETRA, TETRA, -1), "i must be nonnegative"),
    "cross_without_diagonals": (lambda: AmbientPolytope("cross").validate_for(C5), "cross ambient needs diagonals"),
    "unknown_ambient": (lambda: AmbientPolytope("cube").validate_for(C5), "unknown ambient kind 'cube'"),
    "walkup_points": (lambda: walkup_class_membership(POINTS, 1), "complex must have dimension at least 1"),
    "hamiltonian_negative": (lambda: hamiltonian_check(C5, -1, AmbientPolytope.simplex(5)), "k must be nonnegative"),
    "tight_neighborly_disconnected": (
        lambda: tight_neighborly_check(from_text("1 2 3\n1 2 4\n1 3 4\n2 3 4\n5 6 7\n5 6 8\n5 7 8\n6 7 8\n")),
        "check requires a connected complex",
    ),
    "tight_neighborly_curve": (lambda: tight_neighborly_check(C5), "check requires dimension at least 2"),
    "cross_polytope_0": (lambda: cross_polytope_boundary(0), "d must be at least 1"),
    "stacked_sphere_0": (lambda: stacked_sphere(0, 3), "d must be at least 1"),
    "cyclic_polytope_1": (lambda: cyclic_polytope_boundary(1, 3), "d must be at least 2"),
    "kuehnel_1": (lambda: kuehnel_series(1), "d must be at least 2"),
    "subdivide_non_facet": (lambda: stellar_subdivide(TETRA, (1, 2), 9), "(1, 2) is not a facet"),
    "subdivide_used_label": (lambda: stellar_subdivide(TETRA, (1, 2, 3), 4), "label 4 already in use"),
    "pairing_off_the_facets": (
        lambda: handle_addition(OCTA, (1, 3, 5), (2, 4, 6), [(1, 7)]),
        "pair (1, 7) does not join the two facets",
    ),
    "pairing_repeats": (
        lambda: handle_addition(OCTA, (1, 3, 5), (2, 4, 6), [(1, 2), (1, 4)]),
        "pair (1, 4) repeats a vertex",
    ),
    "pairing_short": (
        lambda: handle_addition(OCTA, (1, 3, 5), (2, 4, 6), [(1, 2)]),
        "pairing must match every vertex of the facets",
    ),
    "handle_non_facet": (lambda: handle_addition(OCTA, (1, 2, 3), (2, 4, 6), []), "both arguments must be facets"),
    "handle_overlap": (lambda: handle_addition(OCTA, (1, 3, 5), (1, 3, 6), []), "facets must be disjoint"),
    "sum_dimensions": (lambda: connected_sum(TETRA, boundary_simplex(4)), "dimension mismatch: 2 vs 3"),
    "sum_first_facet": (
        lambda: connected_sum(TETRA, TETRA, facet1=(1, 2, 5)),
        "(1, 2, 5) is not a facet of the first summand",
    ),
    "sum_second_facet": (
        lambda: connected_sum(TETRA, TETRA, facet2=(1, 2, 5)),
        "(1, 2, 5) is not a facet of the second summand",
    ),
    "product_non_pure": (lambda: simplicial_product(from_text("1 2 3\n3 4\n"), TETRA), "both factors must be pure"),
    "product_empty": (lambda: simplicial_product(SimplicialComplex(), TETRA), "factors must be nonempty"),
}


@pytest.mark.parametrize("case", CHECKS)
def test_input_check_raises_its_message(case):
    call, message = CHECKS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
