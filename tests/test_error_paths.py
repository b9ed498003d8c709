"""The typed errors of malformed representations and of failed intertwining.

``InvalidRepresentation`` is raised for inconsistent shapes, for a
representation that fails verification where a kernel is read off it, and
where the block multiplicities of a representation are missing, not whole
numbers or do not fill its space.  ``intertwiner`` raises ``NotEquivalent``
for representations over different algebras, of different dimensions, with
different source functionals, or with no unitary between them; the empty
representation is equivalent to itself.
"""

import numpy as np
import pytest

from starrep import (
    GNSRepresentation,
    build_matrix_algebra,
    commutant,
    gns_construct,
    intertwiner,
    is_irreducible,
    representations_equivalent,
    rep_to_kernel,
)
from starrep.errors import InvalidRepresentation, NotEquivalent

from conftest import z2_algebra, z3_algebra


def rep_on_z2(e_image: float, g_image: float) -> GNSRepresentation:
    """The one-dimensional linear map e -> e_image, g -> g_image on Z_2, cyclic vector 1."""
    return GNSRepresentation(
        algebra=z2_algebra(),
        matrices=np.array([[[e_image]], [[g_image]]]),
        cyclic_vector=np.ones(1),
        source_functional=np.array([e_image, g_image]),
        embedding=np.array([[e_image, g_image]]),
    )


def test_inconsistent_shapes_are_an_invalid_representation():
    with pytest.raises(InvalidRepresentation, match="^inconsistent shapes: matrices"):
        GNSRepresentation(
            algebra=z2_algebra(),
            matrices=np.zeros((2, 1, 1)),
            cyclic_vector=np.ones(2),
            source_functional=np.ones(2),
            embedding=np.ones((2, 2)),
        )


def test_a_kernel_is_not_read_off_a_representation_that_fails_verification():
    # g -> 2 breaks multiplicativity: pi(g)^2 = 4 is not pi(e) = 1
    with pytest.raises(InvalidRepresentation, match="^representation fails verification"):
        rep_to_kernel(rep_on_z2(1.0, 2.0))


def test_the_empty_representation_has_no_multiplicities():
    empty = gns_construct(z2_algebra(), [0.0, 0.0])
    assert empty.rep_dim == 0
    for call in (commutant, is_irreducible):
        with pytest.raises(InvalidRepresentation,
                           match="^the empty representation has no multiplicities$"):
            call(empty)


def test_multiplicities_must_be_whole_numbers():
    # the character (1, 1/2) holds the sign character 1/4 times and the
    # trivial one 3/4 times
    with pytest.raises(InvalidRepresentation,
                       match=r"^block multiplicities \[0\.25, 0\.75\] are 2\.500e-01 from integers$"):
        commutant(rep_on_z2(1.0, 0.5))


def test_multiplicities_must_fill_the_space():
    # pi(e) = 2 on C^1: each character once, two dimensions on a space of one
    with pytest.raises(InvalidRepresentation,
                       match=r"^block multiplicities \[1\.0, 1\.0\] do not fill d = 1$"):
        is_irreducible(rep_on_z2(2.0, 0.0))


def test_intertwiner_needs_one_algebra():
    rep2 = gns_construct(z2_algebra(), [1.0, 0.0])
    rep3 = gns_construct(z3_algebra(), [1.0, 0.0, 0.0])
    with pytest.raises(NotEquivalent, match="^representations live over different algebras$"):
        intertwiner(rep2, rep3)


def test_intertwiner_needs_one_dimension():
    # the GNS representation of delta_e, and its sum with a copy of the
    # trivial character that the cyclic vector does not reach
    rep = gns_construct(z2_algebra(), [1.0, 0.0])
    matrices = np.zeros((2, 3, 3), dtype=complex)
    matrices[:, :2, :2] = rep.matrices
    matrices[:, 2, 2] = 1.0  # e -> 1, g -> 1
    padded = GNSRepresentation(
        algebra=rep.algebra,
        matrices=matrices,
        cyclic_vector=np.append(rep.cyclic_vector, 0.0),
        source_functional=rep.source_functional,
        embedding=np.vstack([rep.embedding, np.zeros((1, 2))]),
    )
    with pytest.raises(NotEquivalent, match="^representation dimensions differ: 2 vs 3$"):
        intertwiner(rep, padded)


def test_intertwiner_needs_a_unitary():
    # the representation conjugated by a non-unitary S, its cyclic vector moved
    # by S: the orbit map T2 T1^+ is S, which is not unitary
    rep = gns_construct(build_matrix_algebra(2), [1.0, 0.0, 0.0, 1.0])
    s = np.diag([1.0, 2.0, 1.0, 1.0])
    skewed = GNSRepresentation(
        algebra=rep.algebra,
        matrices=s @ rep.matrices @ np.linalg.inv(s),
        cyclic_vector=s @ rep.cyclic_vector,
        source_functional=rep.source_functional,
        embedding=s @ rep.embedding,
    )
    with pytest.raises(NotEquivalent, match="^intertwining residual"):
        intertwiner(rep, skewed)


def test_the_empty_representation_is_equivalent_to_itself():
    empty = gns_construct(z2_algebra(), [0.0, 0.0])
    assert intertwiner(empty, empty).shape == (0, 0)
    assert representations_equivalent(empty, empty)
