import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hppcheck.catalog import (CATALOG_NAMES, catalog, entry, find_labeling,
                              uniform)
from hppcheck.matroid import (BasisExchangeError, DegenerateMinorError,
                              Matroid, MatroidParseError, matroid_from_text,
                              matroid_to_text)
from hppcheck.polynomial import parse_polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine

from conftest import compress_out


class TestConstruction:
    def test_uniform_from_empty_nonbases(self):
        M = Matroid.from_nonbases(4, 2, [])
        assert M.num_bases() == 6
        assert M == uniform(2, 4)

    def test_vamos_from_nonbases(self):
        planes = [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8),
                  (3, 4, 5, 6), (3, 4, 7, 8)]
        M = Matroid.from_nonbases(8, 4, planes)
        assert M.num_bases() == 70 - 5

    def test_single_basis_with_loop(self):
        M = Matroid(3, 2, [(1, 2)])
        assert M.loops() == (3,)
        assert M.coloops() == (1, 2)

    def test_exchange_violation_with_witness(self):
        with pytest.raises(BasisExchangeError) as info:
            Matroid(4, 2, [(1, 2), (3, 4)])
        assert info.value.witness is not None

    def test_empty_family_rejected(self):
        with pytest.raises(BasisExchangeError):
            Matroid(3, 2, [])

    def test_wrong_rank_subset_rejected(self):
        with pytest.raises(ValueError):
            Matroid(3, 2, [(1, 2, 3)])

    def test_out_of_range_element(self):
        with pytest.raises(ValueError):
            Matroid(3, 2, [(1, 5)])


class TestMinorsAndDual:
    def test_delete_uniform(self):
        assert uniform(2, 4).delete(4) == uniform(2, 3)

    def test_contract_uniform(self):
        assert uniform(2, 4).contract(4) == uniform(1, 3)

    def test_dual_uniform_selfdual(self):
        assert uniform(2, 4).dual() == uniform(2, 4)

    def test_vamos_selfdual_up_to_iso(self):
        V8 = catalog()["V8"].matroid
        assert V8.dual().is_isomorphic(V8) is not None

    def test_dual_involution_on_catalog(self):
        for ent in catalog().values():
            M = ent.matroid
            assert M.dual().dual() == M

    def test_delete_coloop_rejected(self):
        M = Matroid(3, 2, [(1, 2), (1, 3)])
        with pytest.raises(DegenerateMinorError):
            M.delete(1)

    def test_contract_loop_rejected(self):
        M = Matroid(3, 2, [(1, 2)])
        with pytest.raises(DegenerateMinorError):
            M.contract(3)

    def test_strip_absent(self):
        M = Matroid(4, 2, [(1, 3), (3, 4), (1, 4)])
        stripped, mapping = M.strip_absent()
        assert stripped == uniform(2, 3)
        assert mapping == {1: 1, 3: 2, 4: 3}


class TestIsomorphism:
    def test_identity_on_u23(self):
        M = uniform(2, 3)
        assert M.is_isomorphic(M) == (1, 2, 3)

    def test_rank_mismatch(self):
        assert uniform(2, 4).is_isomorphic(uniform(3, 4)) is None

    def test_relabeled_matroids_isomorphic(self):
        rng = random.Random(5)
        F7m4 = catalog()["F7m4"].matroid
        for _ in range(5):
            perm = list(range(1, 8))
            rng.shuffle(perm)
            other = F7m4.relabeled(perm)
            got = F7m4.is_isomorphic(other)
            assert got is not None
            assert F7m4.relabeled(got) == other

    def test_reflexive_symmetric_on_catalog(self):
        for ent in catalog().values():
            M = ent.matroid
            assert M.is_isomorphic(M) is not None
        a = catalog()["F7m4"].matroid
        b = a.relabeled((2, 3, 4, 5, 6, 7, 1))
        assert (a.is_isomorphic(b) is not None) == (b.is_isomorphic(a) is not None)

    def test_returned_permutation_maps_bases(self):
        a = catalog()["W3pe"].matroid
        b = a.relabeled((7, 6, 5, 4, 3, 2, 1))
        perm = a.is_isomorphic(b)
        assert perm is not None and a.relabeled(perm) == b

    def test_lexicographically_least(self):
        M = uniform(2, 4)
        assert M.is_isomorphic(M) == (1, 2, 3, 4)


class TestCanonicalKey:
    def test_invariant_under_relabeling(self):
        rng = random.Random(17)
        for name in ("F7m4", "P7p", "V8"):
            M = catalog()[name].matroid
            perm = list(range(1, M.m + 1))
            rng.shuffle(perm)
            assert M.canonical_key() == M.relabeled(perm).canonical_key()

    def test_distinguishes_classes(self):
        ents = catalog()
        keys = {name: ents[name].matroid.canonical_key()
                for name in ("F7m4", "F7m5", "W3p", "W3pe", "P7p", "P7pp")}
        assert len(set(keys.values())) == 6


def ref_degree_tables(M):
    """The degree tables by definition: per element, and per pair, the
    number of basis masks that contain it."""
    masks = M.basis_masks()
    degs = tuple(sum(1 for mask in masks if mask >> (e - 1) & 1)
                 for e in range(1, M.m + 1))
    pairs = {}
    for e, f in combinations(range(1, M.m + 1), 2):
        both = (1 << (e - 1)) | (1 << (f - 1))
        pairs[(e, f)] = sum(1 for mask in masks if mask & both == both)
    return degs, pairs


def assert_degree_tables(M):
    degs, pairs = ref_degree_tables(M)
    # a fresh copy per entry point: each one fills the tables itself
    fresh = [Matroid(M.m, M.rank, M.bases(), validate=False) for _ in range(3)]
    assert fresh[0].canonical_key() == (M.m, M.rank, M.num_bases(),
                                        tuple(sorted(degs)),
                                        tuple(sorted(pairs.values())))
    assert tuple(fresh[1].element_degree(e) for e in range(1, M.m + 1)) == degs
    for (e, f), d in pairs.items():
        assert fresh[2]._pair_degree(e, f) == fresh[2]._pair_degree(f, e) == d
    for N in fresh:
        assert N.canonical_key() == fresh[0].canonical_key()


class TestDegreeTables:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_minors_and_dual(self, name):
        M = entry(name).matroid
        assert_degree_tables(M)
        assert_degree_tables(M.dual())
        for e in range(1, M.m + 1):
            if M.m > 1 and e not in M.coloops():
                assert_degree_tables(M.delete(e))
            if M.m > 1 and e not in M.loops():
                assert_degree_tables(M.contract(e))

    @given(st.sampled_from(CATALOG_NAMES), st.randoms(use_true_random=False))
    def test_random_relabelings(self, name, rng):
        M = entry(name).matroid
        perm = list(range(1, M.m + 1))
        rng.shuffle(perm)
        N = M.relabeled(perm)
        assert_degree_tables(N)
        for e, f in combinations(range(1, M.m + 1), 2):
            assert N.element_degree(perm[e - 1]) == M.element_degree(e)
            assert N._pair_degree(perm[e - 1], perm[f - 1]) == M._pair_degree(e, f)


class TestLabelMaps:
    """`relabeled`, `strip_absent` and the leaf of `is_isomorphic` against
    their definitions on the bases as element tuples."""

    @given(st.sampled_from(CATALOG_NAMES), st.randoms(use_true_random=False))
    def test_relabeled_and_isomorphic(self, name, rng):
        M = entry(name).matroid
        perm = list(range(1, M.m + 1))
        rng.shuffle(perm)
        N = M.relabeled(perm)
        assert N == Matroid(M.m, M.rank,
                            [[perm[e - 1] for e in B] for B in M.bases()],
                            validate=False)
        got = M.is_isomorphic(N)
        assert got is not None and M.relabeled(got) == N

    @given(st.sampled_from(CATALOG_NAMES), st.randoms(use_true_random=False))
    def test_strip_absent(self, name, rng):
        # nP_d1 has a loop; relabeling moves it, and one more loop is made
        # by dropping every basis through a random non-coloop element
        M = entry(name).matroid
        perm = list(range(1, M.m + 1))
        rng.shuffle(perm)
        M = M.relabeled(perm)
        M = M.remove_as_loop(rng.choice([e for e in range(1, M.m + 1)
                                         if e not in M.coloops()]))
        M.name = "named"
        stripped, mapping = M.strip_absent()
        survivors = [e for e in range(1, M.m + 1) if e not in M.loops()]
        assert mapping == {e: i for i, e in enumerate(survivors, start=1)}
        assert stripped == Matroid(len(survivors), M.rank,
                                   [[mapping[e] for e in B] for B in M.bases()],
                                   validate=False)
        assert stripped.name == "named"


class TestBasisPolynomial:
    def test_u12(self):
        assert uniform(1, 2).basis_polynomial() == parse_polynomial("y1 + y2", 2)

    def test_u24(self):
        want = parse_polynomial(
            "y1*y2 + y1*y3 + y1*y4 + y2*y3 + y2*y4 + y3*y4", 4)
        assert uniform(2, 4).basis_polynomial() == want

    def test_v8_shape(self):
        Z = catalog()["V8"].matroid.basis_polynomial()
        assert Z.num_terms() == 65
        assert Z.total_degree() == 4
        assert Z.is_homogeneous() and Z.is_multiaffine()
        assert all(c > 0 for c in Z.terms.values())

    def test_commutes_with_minors_on_catalog(self):
        # deletion/contraction on the matroid matches the polynomial side
        for ent in catalog().values():
            M = ent.matroid
            Z = M.basis_polynomial()
            loops = set(M.loops())
            coloops = set(M.coloops())
            for e in range(1, M.m + 1):
                if e not in coloops:
                    assert (M.delete(e).basis_polynomial()
                            == compress_out(Z.delete(e), e))
                if e not in loops:
                    assert (M.contract(e).basis_polynomial()
                            == compress_out(Z.contract(e), e))


class TestFindLabeling:
    def test_u24_identity(self):
        target = parse_polynomial("y3*y3 + y3*y4 + y4*y4", 4)
        assert find_labeling(uniform(2, 4), (1, 2), target) == (1, 2, 3, 4)

    def test_u34_no_labeling(self):
        target = parse_polynomial("y3*y3 + y3*y4 + y4*y4", 4)
        assert find_labeling(uniform(3, 4), (1, 2), target) is None

    def test_scrambled_catalog_matroid_found(self):
        ent = catalog()["F7m4"]
        M = ent.matroid
        target = rayleigh_diff_multiaffine(M.basis_polynomial(), 1, 2)
        scrambled = M.relabeled((4, 7, 1, 3, 6, 2, 5))
        perm = find_labeling(scrambled, (1, 2), target)
        assert perm is not None
        relabeled = scrambled.relabeled(perm)
        assert rayleigh_diff_multiaffine(
            relabeled.basis_polynomial(), 1, 2) == target


class TestFileFormat:
    def test_roundtrip_bases(self):
        M = uniform(2, 4)
        text = matroid_to_text(M)
        back = matroid_from_text(text)
        assert back == M
        assert matroid_to_text(back) == text

    def test_roundtrip_nonbases_form(self):
        M = catalog()["V8"].matroid
        text = matroid_to_text(M)
        assert "nonbases" in text            # 5 nonbases beat 65 bases
        back = matroid_from_text(text)
        assert back == M
        assert matroid_to_text(back) == text

    def test_parse_errors(self):
        with pytest.raises(MatroidParseError):
            matroid_from_text("not json")
        with pytest.raises(MatroidParseError):
            matroid_from_text('{"m": 3, "rank": 2}')
        with pytest.raises(MatroidParseError):
            matroid_from_text('[1, 2]')

    def test_bases_and_nonbases_together_rejected(self):
        # once read with exit 0, using `bases` and ignoring `nonbases`
        text = ('{"m": 4, "rank": 2, "bases": [[1, 2], [1, 3]], '
                '"nonbases": [[1, 2]]}')
        with pytest.raises(MatroidParseError, match="exactly one of"):
            matroid_from_text(text)
