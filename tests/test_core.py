import copy
import pickle
import threading
from dataclasses import dataclass

import numpy as np
import pytest

from opticomb import (
    Backend,
    Budget,
    Compose,
    Decision,
    Generator,
    Identity,
    MatrixBackend,
    ObjectWord,
    PointedFreeBackend,
    ProbeWitness,
    Symmetry,
    Tensor,
    TypeMismatch,
    UnknownGenerator,
    Verdict,
    block_permutation,
    comb,
    equiv_sigma,
    eval_term,
    permutation_term,
    typecheck,
)
from opticomb.core import _join


class TestObjectWord:
    def test_parse_and_pretty(self):
        w = ObjectWord.parse("x*y*x")
        assert w.factors == ("x", "y", "x")
        assert w.pretty() == "x*y*x"
        assert ObjectWord.parse("I") == ObjectWord.unit()
        assert ObjectWord.parse("").pretty() == "I"

    def test_concat_and_len(self):
        u = ObjectWord.of("x") @ ObjectWord.of("y")
        assert len(u) == 2
        assert list(u) == ["x", "y"]
        assert not ObjectWord.unit()
        assert u

    def test_reversed(self):
        assert ObjectWord.of("x", "y").reversed() == ObjectWord.of("y", "x")

    def test_one_object_per_word(self):
        w = ObjectWord.parse("x*y")
        assert ObjectWord.of("x", "y") is w
        assert ObjectWord.of("x") @ ObjectWord.of("y") is w
        assert _join([ObjectWord.of("x"), ObjectWord.of("y")]) is w
        assert ObjectWord.of("y", "x").reversed() is w
        assert ObjectWord.parse("I") is ObjectWord.unit()
        assert ObjectWord.parse("") is ObjectWord.unit()

    def test_copies_are_the_interned_word(self):
        w = ObjectWord.parse("x*y*x")
        assert copy.copy(w) is w
        assert copy.deepcopy(w) is w
        assert copy.deepcopy({"w": [w]})["w"][0] is w
        assert pickle.loads(pickle.dumps(w)) is w
        assert pickle.loads(pickle.dumps(ObjectWord.unit())) is ObjectWord.unit()

    def test_frozen(self):
        w = ObjectWord.of("x")
        with pytest.raises(AttributeError):
            w.factors = ("y",)
        with pytest.raises(AttributeError):
            del w.factors
        with pytest.raises(AttributeError):
            w.extra = 1
        assert w.factors == ("x",) and ObjectWord.of("x") is w

    def test_never_equal_to_its_tuple(self):
        for w in (ObjectWord.unit(), ObjectWord.of("x"), ObjectWord.of("x", "y")):
            assert w != w.factors and w.factors != w
            assert w.factors not in {w} and w not in {w.factors}

    def test_threads_building_the_same_words_get_one_object(self):
        # names no other test uses, so every word is new to the table
        texts = [f"thread_word_{i}*thread_word_{i % 7}" for i in range(50)]
        start = threading.Barrier(8)
        built: list[list[ObjectWord]] = []

        def build():
            start.wait()
            built.append([ObjectWord.parse(t) for t in texts])

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 8
        for i, text in enumerate(texts):
            assert len({id(words[i]) for words in built}) == 1
            assert built[0][i] is ObjectWord.parse(text)


class TestTerms:
    def test_typecheck_generator(self, cbe):
        cbe.add_generator("h", "x", "y", np.ones((3, 2)))
        dom, cod = typecheck(Generator("h"), cbe)
        assert dom == ObjectWord.of("x")
        assert cod == ObjectWord.of("y")

    def test_typecheck_unknown_generator(self, cbe):
        with pytest.raises(UnknownGenerator):
            typecheck(Generator("nope"), cbe)

    def test_typecheck_bad_compose_names_offender(self, cbe):
        cbe.add_generator("h", "x", "y", np.ones((3, 2)))
        bad = Compose(Generator("h"), Generator("h"))
        with pytest.raises(TypeMismatch) as err:
            typecheck(bad, cbe)
        assert err.value.offender is bad

    def test_eval_identity_symmetry(self, cbe):
        x, y = ObjectWord.of("x"), ObjectWord.of("y")
        v = eval_term(Tensor(Identity(x), Identity(y)), cbe)
        assert np.array_equal(v.array, np.eye(6))
        s = eval_term(Symmetry(x, y), cbe)
        assert s.array.shape == (6, 6)
        # swapping twice is the identity
        assert np.array_equal(
            cbe.compose(s, cbe.symmetry(y, x)).array, np.eye(6)
        )


@dataclass(frozen=True)
class Cost:
    dom: ObjectWord
    cod: ObjectWord
    weight: int


class CostBackend(Backend):
    """Morphisms weighed by how many generators they use: only the six
    required methods and the generator table."""

    def __init__(self):
        x = ObjectWord.of("x")
        self._gens = {"f": Cost(x, x, 1), "g": Cost(x, x @ x, 2)}

    def object_names(self):
        return ("x",)

    def identity(self, word):
        return Cost(word, word, 0)

    def symmetry(self, left, right):
        return Cost(left @ right, right @ left, 0)

    def compose(self, first, then):
        self._require_composable(first, then)
        return Cost(first.dom, then.cod, first.weight + then.weight)

    def tensor(self, left, right):
        return Cost(left.dom @ right.dom, left.cod @ right.cod, left.weight + right.weight)

    def equal(self, m1, m2):
        return m1.weight == m2.weight


class TestBackendContract:
    def test_six_required_methods(self):
        assert Backend.__abstractmethods__ == {
            "object_names", "identity", "symmetry", "compose", "tensor", "equal",
        }

    def test_minimal_backend_evaluates_terms(self):
        be = CostBackend()
        x = ObjectWord.of("x")
        assert be.generator_names() == ("f", "g")
        v = eval_term(Compose(Generator("f"), Generator("g")), be)
        assert (v.dom, v.cod, v.weight) == (x, x @ x, 3)
        assert typecheck(Tensor(Generator("g"), Identity(x)), be) == (x @ x, x @ x @ x)
        with pytest.raises(UnknownGenerator, match="unknown morphism 'h'"):
            eval_term(Generator("h"), be)
        bad = Compose(Generator("g"), Generator("f"))
        with pytest.raises(TypeMismatch) as err:
            eval_term(bad, be)
        assert err.value.offender is bad

    def test_minimal_backend_plugs_through_the_default_kernel(self):
        be = CostBackend()
        x = ObjectWord.of("x")
        f, g = be.generator("f"), be.generator("g")
        lower = be.plug_lower(g, be.identity(x), [f, be.identity(x)])
        out = be.plug_upper(lower, be.tensor(f, f))
        assert [(v.dom, v.cod, v.weight) for v in out] == [(x, x @ x, 5), (x, x @ x, 4)]

    def test_minimal_backend_answers_sigma(self):
        be = CostBackend()
        f, unit = be.generator("f"), ObjectWord.unit()
        ff = be.compose(f, f)
        once = comb(be, f, f, unit)
        assert equiv_sigma(be, once, comb(be, be.identity(f.dom), ff, unit)).is_equivalent()
        assert equiv_sigma(be, once, comb(be, f, ff, unit)).is_distinct()

    @pytest.mark.parametrize("states,effects", [(("x",), ("x",)), (("x", "x"), ("e",))])
    def test_state_and_effect_names_must_differ(self, states, effects):
        with pytest.raises(ValueError, match="names must be distinct"):
            PointedFreeBackend(states=states, effects=effects)


class TestPermutationTerm:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permutation_term([ObjectWord.of("x")], [1])

    def test_output_slot_holds_chosen_block(self, cbe):
        # three blocks of different dimension so mistakes change shapes
        words = [ObjectWord.of("x"), ObjectWord.of("y"), ObjectWord.of("x", "x")]
        perm = [2, 0, 1]
        val = block_permutation(cbe, words, perm)
        dims = [cbe.dim(w) for w in words]
        vecs = [np.arange(d, dtype=float) + 1 for d in dims]
        inp = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
        out = val.array @ inp
        expect = np.kron(np.kron(vecs[2], vecs[0]), vecs[1])
        assert np.allclose(out, expect)

    def test_identity_permutation(self, cbe):
        words = [ObjectWord.of("x"), ObjectWord.of("y")]
        val = block_permutation(cbe, words, [0, 1])
        assert np.array_equal(val.array, np.eye(6))


class TestBudget:
    def test_of_scales_with_bound(self):
        assert Budget.of(1) == Budget(1, 4)
        assert Budget.of(2) == Budget(2, 16)
        assert Budget.of(0).max_hom == 4
        assert Budget.of(9).max_hom == 65536


class TestDecision:
    def test_distinct_requires_witness(self):
        with pytest.raises(ValueError):
            Decision(Verdict.DISTINCT, "m", certified=True, witness=None)

    def test_equivalent_certified_flag(self):
        with pytest.raises(ValueError):
            Decision(Verdict.EQUIVALENT, "m", certified=False)

    def test_helpers(self):
        w = ProbeWitness(
            ObjectWord.unit(), ObjectWord.unit(), probe=None, left=1, right=2
        )
        d = Decision.distinct("m", w)
        assert d.verdict is Verdict.DISTINCT and d.certified
        u = Decision.unknown("m", coverage={"probes_tried": 3})
        assert u.verdict is Verdict.UNKNOWN and not u.certified
        e = Decision.equivalent("m")
        assert e.verdict is Verdict.EQUIVALENT and e.certified

    @pytest.mark.parametrize("holes", [1, 2])
    def test_probe_witness_layout_round_trips(self, holes):
        """``ProbeWitness.of`` writes one hole's entries bare and n holes' as
        tuples; ``probes`` reads either back as the one-probe block it holds."""
        a, b = ObjectWord.of("a"), ObjectWord.of("b")
        fillers, contexts = ("f", "g")[:holes], ((a, b), (b, a))[:holes]
        w = ProbeWitness.of(fillers, contexts, 1, 2, (Symmetry(a, b),) * holes, "n")
        assert isinstance(w.c_word, ObjectWord) == (holes == 1)
        assert w.probes() == [([fillers], contexts)]
        assert (w.left, w.right, w.note) == (1, 2, "n")
