"""Clifford algebra core: blade signs, products, grades.

The blade sign rule is pinned down by a slow symbolic oracle that
multiplies generator strings by explicit bubble reordering; the fast
bit-twiddling implementation must agree with it everywhere.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube import algebra
from combcube.algebra import (
    MAX_DIM,
    Multivector,
    blade_product,
    geometric_product,
    grade_projection,
    inner_product,
    outer_product,
)
from combcube.coding import comb_bits


def reference_blade_product(m1, m2):
    """Symbolic oracle: multiply generator strings by bubble reordering.

    A blade word becomes its sorted generator list; the product is the
    concatenation, sorted with adjacent swaps (each swap of distinct
    generators flips the sign) and with equal neighbors cancelled
    (unit squares).
    """
    factors = [k for k in range(MAX_DIM) if (m1 >> k) & 1]
    factors += [k for k in range(MAX_DIM) if (m2 >> k) & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if factors[i] > factors[i + 1]:
                factors[i], factors[i + 1] = factors[i + 1], factors[i]
                sign = -sign
                changed = True
                break
            if factors[i] == factors[i + 1]:
                del factors[i : i + 2]
                changed = True
                break
    word = 0
    for k in factors:
        word |= 1 << k
    return word, sign


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_blade_product_matches_symbolic_oracle(dim):
    for m1 in range(1 << dim):
        for m2 in range(1 << dim):
            assert blade_product(m1, m2, dim) == reference_blade_product(m1, m2)


def test_blade_product_known_cases():
    assert blade_product(0b001, 0b001, 3) == (0b000, 1)   # b1 b1 = 1
    assert blade_product(0b010, 0b001, 3) == (0b011, -1)  # b2 b1 = -b1b2
    assert blade_product(0b001, 0b010, 3) == (0b011, 1)
    # b1b2 * b2b3 = b1b3, frozen from the symbolic oracle
    assert reference_blade_product(0b011, 0b110) == (0b101, 1)
    assert blade_product(0b011, 0b110, 3) == (0b101, 1)


def test_blade_product_every_blade_squares_to_plus_or_minus_one():
    for m in range(16):
        word, sign = blade_product(m, m, 4)
        assert word == 0
        assert sign == reference_blade_product(m, m)[1]


def test_blade_product_rejects_bad_input():
    with pytest.raises(ValueError):
        blade_product(8, 0, 3)
    with pytest.raises(ValueError):
        blade_product(0, -1, 3)
    with pytest.raises(ValueError):
        blade_product(0, 0, 0)
    with pytest.raises(ValueError):
        blade_product(0, 0, 17)


@pytest.mark.parametrize("call, name, value", [
    (lambda: Multivector.blade(True, 3), "blade word", True),
    (lambda: Multivector.blade(1.5, 3), "blade word", 1.5),
    (lambda: Multivector.basis_vector(1.5, 3), "generator index", 1.5),
    (lambda: Multivector.basis_vector(True, 3), "generator index", True),
    (lambda: comb_bits(1.5, 3), "blade word", 1.5),
    (lambda: blade_product(1.5, 2, 3), "blade word", 1.5),
    (lambda: blade_product(1, False, 3), "blade word", False),
])
def test_blade_words_and_generator_indices_follow_the_integer_rule(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call()


def test_multivector_construction():
    mv = Multivector([1.0, 2.0], 1)
    assert mv.dim == 1
    inferred = Multivector(np.zeros(8))
    assert inferred.dim == 3
    with pytest.raises(ValueError):
        Multivector([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Multivector([1.0, np.nan], 1)
    with pytest.raises(ValueError):
        Multivector([np.inf, 0.0], 1)
    with pytest.raises(ValueError):
        Multivector(np.zeros(4), 3)
    with pytest.raises(ValueError):
        Multivector(np.zeros(1 << 17))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multivector_rejects_a_non_finite_value_at_every_position(bad):
    for pos in range(8):
        coeffs = np.zeros(8)
        coeffs[pos] = bad
        for given in (coeffs, coeffs.tolist(), coeffs.reshape(2, 4)):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                Multivector(given, 3)


def test_multivector_accepts_nested_and_2d_input():
    want = np.arange(8.0)
    for given in ([[0, 1, 2, 3], [4, 5, 6, 7]], want.reshape(2, 4), want.reshape(2, 2, 2)):
        mv = Multivector(given)
        assert mv.dim == 3 and mv.coeffs.shape == (8,)
        assert mv.coeffs.tobytes() == want.tobytes()
        assert not mv.coeffs.flags.writeable
    src = want.reshape(2, 4).copy()
    mv = Multivector(src, 3)
    src[0, 0] = 9.0  # the coefficients are a copy
    assert mv.coeffs[0] == 0.0


def test_multivector_owns_its_coefficients():
    # no writeable base is left under the read-only coefficients, so
    # nothing can write a nan past the finiteness check
    want = np.arange(8.0)
    for given in (want, want.tolist(), [[0, 1, 2, 3], [4, 5, 6, 7]], want.reshape(2, 4)):
        coeffs = Multivector(given, 3).coeffs
        assert coeffs.base is None and coeffs.flags.owndata
        assert not coeffs.flags.writeable
        assert coeffs.tobytes() == want.tobytes()


def test_empty_coefficients_name_the_count():
    with pytest.raises(ValueError, match="power of two, got 0"):
        Multivector([])


def test_integer_rule_for_dimensions_and_grades():
    # numpy integers count as integers; bools and floats do not
    assert Multivector.zero(np.int64(3)).dim == 3
    assert grade_projection(Multivector.zero(3), np.int64(1)) == Multivector.zero(3)
    # and what they give back is a plain int, as the signatures promise
    product = blade_product(np.int64(3), 1, 3)
    assert product == (2, -1) and all(type(v) is int for v in product)
    bits = comb_bits(np.int8(5), 3)
    assert bits == (1, 0, 1) and all(type(b) is int for b in bits)
    for bad in (True, 3.0):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            Multivector.zero(bad)
        with pytest.raises(ValueError, match="grade must be an integer"):
            grade_projection(Multivector.zero(3), bad)


def test_multivector_is_immutable():
    mv = Multivector.scalar(2.0, 3)
    with pytest.raises(ValueError):
        mv.coeffs[0] = 5.0
    src = np.ones(8)
    held = Multivector(src, 3)
    src[0] = 99.0
    assert held.coeffs[0] == 1.0


def test_dimension_cap_is_sixteen():
    Multivector.zero(16)
    with pytest.raises(ValueError):
        Multivector.zero(17)


def test_geometric_product_bilinear_expansion():
    # (alpha + beta b1)(1 + b2b3)/sqrt(2): supports are disjoint and
    # ordered, so no reordering signs appear
    alpha, beta = 0.3, -1.2
    rt = 1.0 / np.sqrt(2.0)
    left = Multivector([alpha, beta, 0, 0, 0, 0, 0, 0], 3)
    right = Multivector([rt, 0, 0, 0, 0, 0, rt, 0], 3)
    out = geometric_product(left, right)
    expected = np.array([alpha, beta, 0, 0, 0, 0, alpha, beta]) * rt
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-15)


def test_geometric_product_scalar_identity():
    one = Multivector.scalar(1.0, 3)
    mv = Multivector(np.arange(8, dtype=float), 3)
    assert geometric_product(one, mv) == mv
    assert geometric_product(mv, one) == mv


def test_geometric_product_dimension_mismatch():
    with pytest.raises(ValueError):
        geometric_product(Multivector.zero(2), Multivector.zero(3))


@pytest.mark.parametrize("op", [operator.add, operator.sub])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_add_and_sub_check_dimensions_first(op, dims):
    a, b = (Multivector.zero(d) for d in dims)
    with pytest.raises(ValueError, match=f"^dimension mismatch: {dims[0]} vs {dims[1]}$"):
        op(a, b)


def test_generator_relations_exact():
    one = Multivector.scalar(1.0, 3)
    for k in range(1, 4):
        bk = Multivector.basis_vector(k, 3)
        assert geometric_product(bk, bk) == one
        for l in range(1, 4):
            if k == l:
                continue
            bl = Multivector.basis_vector(l, 3)
            lhs = geometric_product(bk, bl)
            rhs = geometric_product(bl, bk)
            assert np.array_equal(lhs.coeffs, -rhs.coeffs)


def test_associativity_seeded_drive():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        a, b, c = (Multivector(rng.uniform(-10, 10, 8), 3) for _ in range(3))
        left = geometric_product(geometric_product(a, b), c)
        right = geometric_product(a, geometric_product(b, c))
        worst = max(worst, float(np.max(np.abs(left.coeffs - right.coeffs))))
    assert worst <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_associativity_property(xs, ys, zs):
    a, b, c = Multivector(xs, 2), Multivector(ys, 2), Multivector(zs, 2)
    left = geometric_product(geometric_product(a, b), c)
    right = geometric_product(a, geometric_product(b, c))
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-10


def test_higher_dimension_pair_loop_agrees_with_table_path():
    # dim 9 exercises the nonzero-pair fallback; embed a dim-3 product
    rng = np.random.default_rng(7)
    small_a = rng.uniform(-1, 1, 8)
    small_b = rng.uniform(-1, 1, 8)
    big_a, big_b = np.zeros(512), np.zeros(512)
    big_a[:8], big_b[:8] = small_a, small_b
    small = geometric_product(Multivector(small_a, 3), Multivector(small_b, 3))
    big = geometric_product(Multivector(big_a, 9), Multivector(big_b, 9))
    np.testing.assert_allclose(big.coeffs[:8], small.coeffs, atol=1e-14)
    assert np.all(big.coeffs[8:] == 0.0)


def test_inner_product_grade_one():
    b1 = Multivector.basis_vector(1, 3)
    b2 = Multivector.basis_vector(2, 3)
    assert inner_product(b1, b2) == Multivector.zero(3)
    assert inner_product(b1, b1) == Multivector.scalar(1.0, 3)
    assert inner_product(b1 + b2, b1) == Multivector.scalar(1.0, 3)


def test_inner_outer_on_commuting_mixed_grades():
    # b1 and b2b3 commute, so the symmetrized product carries the whole
    # geometric product and the antisymmetrized one vanishes
    b1 = Multivector.basis_vector(1, 3)
    b23 = Multivector.blade(0b110, 3)
    assert inner_product(b1, b23) == Multivector.blade(0b111, 3)
    assert outer_product(b1, b23) == Multivector.zero(3)


def test_outer_product_grade_one():
    b1 = Multivector.basis_vector(1, 3)
    b2 = Multivector.basis_vector(2, 3)
    assert outer_product(b1, b2) == Multivector.blade(0b011, 3)
    assert outer_product(b1, b1) == Multivector.zero(3)
    assert outer_product(b2, b1) == Multivector.blade(0b011, 3, -1.0)


def _random_vector(rng):
    coeffs = np.zeros(8)
    for word in (0b001, 0b010, 0b100):
        coeffs[word] = rng.uniform(-3, 3)
    return Multivector(coeffs, 3)


def test_inner_plus_outer_recovers_product_on_vectors():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = _random_vector(rng), _random_vector(rng)
        whole = geometric_product(a, b)
        split = inner_product(a, b) + outer_product(a, b)
        assert np.max(np.abs(whole.coeffs - split.coeffs)) <= 1e-12


def test_grade_projection_cases():
    mv = Multivector(np.arange(1.0, 9.0), 3)
    g0 = grade_projection(mv, 0)
    assert g0.coeffs[0] == 1.0 and np.all(g0.coeffs[1:] == 0.0)
    g1 = grade_projection(mv, 1)
    assert list(np.nonzero(g1.coeffs)[0]) == [0b001, 0b010, 0b100]
    g2 = grade_projection(mv, 2)
    assert list(np.nonzero(g2.coeffs)[0]) == [0b011, 0b101, 0b110]
    g3 = grade_projection(mv, 3)
    assert list(np.nonzero(g3.coeffs)[0]) == [0b111]
    with pytest.raises(ValueError):
        grade_projection(mv, 4)
    with pytest.raises(ValueError):
        grade_projection(mv, -1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=8, max_size=8))
def test_grade_reconstruction(xs):
    mv = Multivector(xs, 3)
    total = Multivector.zero(3)
    for g in range(4):
        total = total + grade_projection(mv, g)
    assert total == mv


def test_operator_sugar():
    b1 = Multivector.basis_vector(1, 3)
    b2 = Multivector.basis_vector(2, 3)
    assert (b1 * b2).coeffs[0b011] == 1.0
    assert (2.0 * b1).coeffs[0b001] == 2.0
    assert (b1 / 2.0).coeffs[0b001] == 0.5
    assert (-b1).coeffs[0b001] == -1.0
    assert (b1 - b1) == Multivector.zero(3)


def test_repr_names_blades():
    mv = Multivector([0.6, 0, 0, 0, 0.8, 0, 0, 0], 3)
    assert "b3" in repr(mv)
    assert repr(Multivector.zero(3)).endswith("0)")


def _oracle_product(a, b):
    """Sum the symbolic blade products pair by pair, i-major then j-minor."""
    out = np.zeros_like(a)
    for i in np.flatnonzero(a):
        for j in np.flatnonzero(b):
            word, sign = reference_blade_product(int(i), int(j))
            out[word] += sign * (a[i] * b[j])
    return out


# (dim, nnz(a), nnz(b)): every dimension from 1 to 12, a sparse Cl(16),
# and a product with more pairs than one chunk of the fast path holds
ORACLE_CASES = [(dim, min(1 << dim, 24), min(1 << dim, 20)) for dim in range(1, 13)]
ORACLE_CASES += [(16, 40, 30), (9, 300, 120)]


@pytest.mark.parametrize("dim, nnz_a, nnz_b", ORACLE_CASES)
def test_geometric_product_matches_symbolic_oracle_exactly(dim, nnz_a, nnz_b):
    rng = np.random.default_rng(100 + dim)
    a, b = np.zeros(1 << dim), np.zeros(1 << dim)
    for coeffs, nnz in ((a, nnz_a), (b, nnz_b)):
        coeffs[rng.choice(coeffs.size, nnz, replace=False)] = rng.normal(size=nnz)
    got = geometric_product(Multivector(a, dim), Multivector(b, dim))
    assert np.array_equal(got.coeffs, _oracle_product(a, b))


def test_oracle_cases_reach_every_path_of_the_product():
    dims = {dim for dim, _, _ in ORACLE_CASES}
    assert min(dims) <= algebra._ALL_PAIRS_MAX_DIM < max(dims)
    assert any(
        dim > algebra._ALL_PAIRS_MAX_DIM and nnz_a * nnz_b > algebra._CHUNK_PAIRS
        for dim, nnz_a, nnz_b in ORACLE_CASES
    )


@pytest.mark.parametrize("chunk_pairs", [1, 1 << 10, 1 << 15, 1 << 20])
def test_product_bits_do_not_depend_on_the_chunk_size(monkeypatch, chunk_pairs):
    # np.add.at adds every chunk's terms in i-major order, so how the
    # pairs are cut into steps changes no bit of the sum
    rng = np.random.default_rng(7)
    a = rng.normal(size=1 << 9) * 10.0 ** rng.integers(-300, 300, 1 << 9)
    b = rng.normal(size=1 << 9)
    a[rng.choice(a.size, 200, replace=False)] = 0.0
    want = geometric_product(Multivector(a), Multivector(b)).coeffs.tobytes()
    monkeypatch.setattr(algebra, "_CHUNK_PAIRS", chunk_pairs)
    assert geometric_product(Multivector(a), Multivector(b)).coeffs.tobytes() == want


def test_product_with_a_row_longer_than_a_chunk():
    # one blade against more nonzero columns than a chunk holds: each
    # output word gets exactly one term, so sampled words check it exactly
    dim, word = 16, 0b1010011100101101
    rng = np.random.default_rng(16)
    nnz = algebra._CHUNK_PAIRS + 1000
    b = np.zeros(1 << dim)
    b[rng.choice(b.size, nnz, replace=False)] = rng.normal(size=nnz)
    got = geometric_product(Multivector.blade(word, dim, 1.5), Multivector(b, dim)).coeffs
    assert np.count_nonzero(got) == nnz
    for j in rng.choice(np.flatnonzero(b), 300, replace=False):
        target, sign = reference_blade_product(word, int(j))
        assert got[target] == sign * (1.5 * b[j])
