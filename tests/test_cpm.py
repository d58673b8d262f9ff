import numpy as np
import pytest

from opticomb import (
    CategoryError,
    MatrixBackend,
    NotDaggerBackend,
    ObjectWord,
    Verdict,
    choi_matrix,
    comb,
    comb_compose,
    cpinf_equiv,
    cpm_equiv,
    dagger_comb,
    is_completely_positive,
    is_dagger_comb,
    kraus_slices,
    positive_probe_frame,
    to_cpm,
)
from opticomb.backends.matrix import close, residual_tolerance

from conftest import TOL, word


S = 1 / np.sqrt(2)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def qb():
    return MatrixBackend({"q": 2}, semiring="complex", tolerance=TOL)


@pytest.fixture
def q():
    return word("q")


def copy_comb(qb, q):
    """Dephasing as measure-and-forget: the copy isometry with itself."""
    v = qb.mat(q, q @ q, [[1, 0], [0, 0], [0, 0], [0, 1]])
    return dagger_comb(qb, v, env=q)


def mix_comb(qb, q):
    """Dephasing again, through the alternate pieces I and Z over sqrt 2."""
    rows = np.vstack([np.eye(2) * S, Z * S])
    v = qb.mat(q, q @ q, rows)
    return dagger_comb(qb, v, env=q)


class TestDaggerCombs:
    def test_constructor_round_trip(self, qb, q):
        c = copy_comb(qb, q)
        assert is_dagger_comb(qb, c)
        assert c.source == (q, q) and c.target == (q, q)

    def test_rejects_backends_without_adjoints(self, idem):
        f = idem.generator("f")
        with pytest.raises(NotDaggerBackend):
            dagger_comb(idem, f, env=ObjectWord.unit())

    def test_detects_non_dagger_top(self, qb, q):
        x = qb.mat(q, q, [[0, 1], [1, 0]])
        c = comb(qb, x, qb.identity(q), env=ObjectWord.unit())
        assert not is_dagger_comb(qb, c)


class TestKrausAndTransfer:
    def test_identity_channel_transfer(self, qb, q):
        c = dagger_comb(qb, qb.identity(q), env=ObjectWord.unit())
        m = to_cpm(qb, c)
        assert np.allclose(m.transfer, np.eye(4))
        assert m.is_completely_positive() and m.is_trace_preserving()

    def test_dephasing_transfer_frozen(self, qb, q):
        m = to_cpm(qb, copy_comb(qb, q))
        assert np.allclose(m.transfer, np.diag([1, 0, 0, 1]))

    def test_alternate_pieces_same_transfer(self, qb, q):
        m = to_cpm(qb, mix_comb(qb, q))
        assert np.allclose(m.transfer, np.diag([1, 0, 0, 1]))

    def test_unitary_conjugation_transfer(self, qb, q):
        u = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
        c = dagger_comb(qb, qb.mat(q, q, u), env=ObjectWord.unit())
        m = to_cpm(qb, c)
        assert np.allclose(m.transfer, np.kron(u, u.conj()))

    def test_kraus_slices_shape_guard(self):
        with pytest.raises(CategoryError):
            kraus_slices(np.eye(3), 2, 2)

    def test_slices_are_row_blocks(self, qb, q):
        c = mix_comb(qb, q)
        k0, k1 = kraus_slices(c.f.array, 2, 2)
        assert np.allclose(k0, np.eye(2) * S)
        assert np.allclose(k1, Z * S)

    def test_to_cpm_rejects_plain_combs(self, qb, q):
        x = qb.mat(q, q, [[0, 1], [1, 0]])
        c = comb(qb, x, qb.identity(q), env=ObjectWord.unit())
        with pytest.raises(CategoryError):
            to_cpm(qb, c)

    def test_to_cpm_rejects_non_complex_backend(self, bbe):
        c = comb(
            bbe, bbe.identity(word("b")), bbe.identity(word("b")),
            env=ObjectWord.unit(),
        )
        with pytest.raises(CategoryError):
            to_cpm(bbe, c)


class TestPositivity:
    def test_transpose_transfer_is_not_cp(self):
        # the transpose map permutes vec entries: its transfer is the swap
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1
        assert not is_completely_positive(swap, 2, 2, tolerance=TOL)
        ch = choi_matrix(swap, 2, 2)
        assert np.allclose(ch, swap)
        assert np.isclose(np.linalg.eigvalsh(ch).min(), -1.0)

    def test_dephasing_is_cp_and_tp(self, qb, q):
        m = to_cpm(qb, copy_comb(qb, q))
        assert m.is_completely_positive() and m.is_trace_preserving()

    def test_projector_kraus_not_tp(self, qb, q):
        p = qb.mat(q, q, [[1, 0], [0, 0]])
        m = to_cpm(qb, dagger_comb(qb, p, env=ObjectWord.unit()))
        assert m.is_completely_positive()
        assert not m.is_trace_preserving()


class TestEquivalenceRoutes:
    def test_two_presentations_agree_on_both_routes(self, qb, q):
        c1, c2 = copy_comb(qb, q), mix_comb(qb, q)
        d_transfer = cpm_equiv(qb, c1, c2)
        d_probe = cpinf_equiv(qb, c1, c2)
        assert d_transfer.verdict is Verdict.EQUIVALENT and d_transfer.certified
        assert d_probe.verdict is Verdict.EQUIVALENT and d_probe.certified
        assert d_probe.coverage["frame_spans_hermitian"] is True
        assert d_probe.coverage["probes_tried"] == 4

    def test_routes_agree_on_distinct_channels(self, qb, q):
        c1 = copy_comb(qb, q)
        c2 = dagger_comb(qb, qb.identity(q), env=ObjectWord.unit())
        d_transfer = cpm_equiv(qb, c1, c2)
        d_probe = cpinf_equiv(qb, c1, c2)
        assert d_transfer.verdict is Verdict.DISTINCT
        assert d_probe.verdict is Verdict.DISTINCT
        assert d_transfer.witness.pieces["max_abs_difference"] == pytest.approx(1.0)
        # the separating probe really is a positive rank-one input
        rho = d_probe.witness.probe
        assert np.allclose(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() >= -TOL

    def test_routes_refute_channels_on_different_boundaries(self, q):
        """A q channel against an r channel: both routes answer DISTINCT
        with the boundary witness, before any transfer matrix is compared."""
        be = MatrixBackend({"q": 2, "r": 3}, semiring="complex", tolerance=TOL)
        r = word("r")
        c1 = copy_comb(be, q)
        c2 = dagger_comb(be, be.identity(r), env=ObjectWord.unit())
        for decide, method in ((cpm_equiv, "transfer-compare"), (cpinf_equiv, "positive-probes")):
            d = decide(be, c1, c2)
            assert d.verdict is Verdict.DISTINCT and d.certified and d.method == method
            assert d.witness.note == "channel boundaries differ"
            assert d.witness.pieces == {"left": (q, q), "right": (r, r)}

    def test_probe_route_never_builds_transfers(self, qb, q):
        """The probe route sees outputs only; its witness carries states."""
        c1 = copy_comb(qb, q)
        c2 = dagger_comb(qb, qb.identity(q), env=ObjectWord.unit())
        d = cpinf_equiv(qb, c1, c2)
        out_left, out_right = d.witness.left, d.witness.right
        assert out_left.shape == (2, 2) and out_right.shape == (2, 2)
        m1, m2 = to_cpm(qb, c1), to_cpm(qb, c2)
        assert np.allclose(m1.apply(d.witness.probe), out_left)
        assert np.allclose(m2.apply(d.witness.probe), out_right)


def random_dagger_comb(be, rng, a, e):
    """The dagger comb of a random isometry ``a -> e (x) a``."""
    d, de = be.dim(a), be.dim(e)
    z = rng.normal(size=(d * de, d)) + 1j * rng.normal(size=(d * de, d))
    return dagger_comb(be, be.mat(a, e @ a, np.linalg.qr(z)[0]), env=e)


def frame_pairs():
    """Dagger-comb pairs on q (dimension 2) and r (dimension 3): random ones,
    which differ on the first probe, the two dephasings, which agree, and
    dephasing against the identity, which agree on the basis projectors and
    differ first on the third probe."""
    be = MatrixBackend({"q": 2, "r": 3}, semiring="complex", tolerance=TOL)
    q, r = word("q"), word("r")
    rng = np.random.default_rng(20261027)
    pairs = [(random_dagger_comb(be, rng, a, e), random_dagger_comb(be, rng, a, e))
             for a in (q, r) for e in (q, r)]
    ident = dagger_comb(be, be.identity(q), env=ObjectWord.unit())
    pairs += [(copy_comb(be, q), mix_comb(be, q)), (copy_comb(be, q), ident),
              (ident, mix_comb(be, q))]
    return be, pairs


class TestStackedFrame:
    """The probe route pushes the whole frame through each channel as one
    stack; the outputs, the verdict and the witness are those of the frame
    pushed one input at a time."""

    def test_stacked_outputs_equal_per_input_outputs(self):
        be, pairs = frame_pairs()
        for c in {id(c): c for pair in pairs for c in pair}.values():
            m = to_cpm(be, c)
            frame = list(positive_probe_frame(m.in_dim))
            stack = m.apply(np.array(frame))
            assert stack.shape == (len(frame), m.out_dim, m.out_dim)
            for rho, out in zip(frame, stack, strict=True):
                assert np.array_equal(m.apply(rho), out)

    def test_witness_is_the_first_failing_input(self):
        be, pairs = frame_pairs()
        bound = residual_tolerance(TOL)
        firsts = []
        for c1, c2 in pairs:
            m1, m2 = to_cpm(be, c1), to_cpm(be, c2)
            frame = list(positive_probe_frame(m1.in_dim))
            fails = [i for i, rho in enumerate(frame)
                     if not close(m1.apply(rho), m2.apply(rho), bound)]
            d = cpinf_equiv(be, c1, c2)
            if not fails:
                assert d.verdict is Verdict.EQUIVALENT
                assert d.coverage["probes_tried"] == len(frame)
                continue
            i = fails[0]
            firsts.append(i)
            assert d.verdict is Verdict.DISTINCT and d.coverage["probes_tried"] == i + 1
            assert np.array_equal(d.witness.probe, frame[i])
            assert np.array_equal(d.witness.left, m1.apply(frame[i]))
            assert np.array_equal(d.witness.right, m2.apply(frame[i]))
        assert 0 in firsts and any(i > 0 for i in firsts)

    def test_transfer_is_built_from_the_kraus_pieces(self, qb, q):
        m = to_cpm(qb, mix_comb(qb, q))
        want = sum(np.kron(k, k.conj()) for k in m.kraus)
        assert np.array_equal(m.transfer, want)


class TestFunctoriality:
    def test_nesting_composes_transfers(self, qb, q):
        c1 = copy_comb(qb, q)
        u = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
        c2 = dagger_comb(qb, qb.mat(q, q, u), env=ObjectWord.unit())
        both = comb_compose(qb, c1, c2)
        assert is_dagger_comb(qb, both)
        t1 = to_cpm(qb, c1).transfer
        t2 = to_cpm(qb, c2).transfer
        assert np.allclose(to_cpm(qb, both).transfer, t2 @ t1)
