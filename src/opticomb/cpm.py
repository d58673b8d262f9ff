"""Completely positive maps from dagger combs over complex matrices.

A dagger comb is a comb whose top is the adjoint of its bottom: taking
``f : A -> E (x) B`` with ``g = dagger(f)`` and tracing out the
environment turns the comb into the channel ``rho -> sum_x K_x rho
K_x^+``, where the Kraus pieces ``K_x`` are the row blocks of f's matrix
indexed by the environment basis.

Two independent equality routes are kept deliberately separate:

* ``cpm_equiv`` compares transfer matrices, the full linear action on
  vectorized inputs.
* ``cpinf_equiv`` never builds a transfer matrix: it pushes a spanning
  family of rank-one positive inputs through both channels via their
  Kraus pieces, the whole family as one stack, and compares outputs.  The
  family (basis projectors plus pairwise real and imaginary mixtures)
  spans all hermitian inputs, and channels are determined by their action
  on hermitian inputs, so full agreement on the family is conclusive, not
  just evidence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Backend,
    CategoryError,
    Decision,
    FactorWitness,
    NotDaggerBackend,
    ObjectWord,
    ProbeWitness,
)
from .backends.matrix import MatrixBackend, _kron, close, residual_tolerance
from .comb import CombRep, Relation, Route, comb as make_comb, decide


def dagger_comb(backend: Backend, f, env: ObjectWord) -> CombRep:
    """The comb whose top is the adjoint of its bottom."""
    if not backend.has_dagger:
        raise NotDaggerBackend(f"{backend.name} has no adjoints")
    return make_comb(backend, f, backend.dagger(f), env)


def is_dagger_comb(backend: Backend, c: CombRep) -> bool:
    if not backend.has_dagger:
        return False
    if c.source[0] != c.source[1] or c.target[0] != c.target[1]:
        return False
    return backend.equal(c.g, backend.dagger(c.f))


@dataclass(frozen=True)
class CpmMorphism:
    """A channel with its boundary words and Kraus pieces.

    ``tolerance`` is its backend's, for the positivity and trace checks.
    """

    in_word: ObjectWord
    out_word: ObjectWord
    in_dim: int
    out_dim: int
    kraus: tuple
    tolerance: float

    @property
    def transfer(self) -> np.ndarray:
        """``sum_x kron(K_x, conj(K_x))``, built on each read: the action on
        row-major vectorizations ``vec(rho)[a*d+a'] = rho[a, a']``."""
        transfer = np.zeros((self.out_dim ** 2, self.in_dim ** 2), dtype=np.complex128)
        for k in self.kraus:
            transfer += _kron(k, k.conj())
        return transfer

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The channel on ``rho``, or on each matrix of a stack of them."""
        out = np.zeros(rho.shape[:-2] + (self.out_dim, self.out_dim), dtype=np.complex128)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def choi(self) -> np.ndarray:
        return choi_matrix(self.transfer, self.in_dim, self.out_dim)

    def is_completely_positive(self) -> bool:
        return is_completely_positive(
            self.transfer, self.in_dim, self.out_dim, self.tolerance
        )

    def is_trace_preserving(self) -> bool:
        acc = np.zeros((self.in_dim, self.in_dim), dtype=np.complex128)
        for k in self.kraus:
            acc += k.conj().T @ k
        return close(acc, np.eye(self.in_dim), self.tolerance)


def kraus_slices(f_array: np.ndarray, env_dim: int, out_dim: int) -> tuple:
    """Row blocks of an ``A -> E (x) B`` matrix, one per environment index."""
    if f_array.shape[0] != env_dim * out_dim:
        raise CategoryError(
            f"cannot slice: {f_array.shape[0]} rows is not {env_dim} x {out_dim}"
        )
    return tuple(
        f_array[x * out_dim : (x + 1) * out_dim, :].copy() for x in range(env_dim)
    )


def to_cpm(backend: MatrixBackend, c: CombRep) -> CpmMorphism:
    """Trace out the environment of a dagger comb."""
    if not isinstance(backend, MatrixBackend) or backend.semiring != "complex":
        raise CategoryError("channels need a complex matrix backend")
    if not is_dagger_comb(backend, c):
        raise CategoryError(
            "only dagger combs (top adjoint to bottom) define channels"
        )
    a = c.source[0]
    b = c.target[0]
    d_a, d_b, d_e = backend.dim(a), backend.dim(b), backend.dim(c.env)
    kraus = kraus_slices(c.f.array, d_e, d_b)
    return CpmMorphism(a, b, d_a, d_b, kraus, backend.tolerance)


def choi_matrix(transfer: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Reshuffle a transfer matrix into its Choi form.

    ``choi[(a,b), (a',b')] = transfer[(b,b'), (a,a')]``; positivity of this
    matrix is complete positivity of the channel.
    """
    t4 = transfer.reshape(out_dim, out_dim, in_dim, in_dim)
    return t4.transpose(2, 0, 3, 1).reshape(in_dim * out_dim, in_dim * out_dim)


def is_completely_positive(
    transfer: np.ndarray, in_dim: int, out_dim: int, tolerance: float
) -> bool:
    ch = choi_matrix(transfer, in_dim, out_dim)
    bound = residual_tolerance(tolerance)
    if not close(ch, ch.conj().T, bound):
        return False
    eigs = np.linalg.eigvalsh((ch + ch.conj().T) / 2)
    return bool(eigs.min() >= -bound)


def _boundary_check(m1: CpmMorphism, m2: CpmMorphism, method: str) -> Decision | None:
    """The certified DISTINCT of two channels with different boundaries, or
    None when their boundaries agree."""
    if (m1.in_word, m1.out_word) == (m2.in_word, m2.out_word):
        return None
    witness = FactorWitness(
        pieces={"left": (m1.in_word, m1.out_word), "right": (m2.in_word, m2.out_word)},
        note="channel boundaries differ",
    )
    return Decision.distinct(method, witness)


def _transfer_route(backend: MatrixBackend, c1: CombRep, c2: CombRep, *_) -> Decision:
    m1, m2 = to_cpm(backend, c1), to_cpm(backend, c2)
    differ = _boundary_check(m1, m2, "transfer-compare")
    if differ is not None:
        return differ
    t1, t2 = m1.transfer, m2.transfer
    if close(t1, t2, backend.tolerance):
        return Decision.equivalent("transfer-compare")
    diff = np.abs(t1 - t2)
    flat = int(np.argmax(diff))
    row, col = divmod(flat, diff.shape[1])
    witness = FactorWitness(
        pieces={
            "max_abs_difference": float(diff.max()),
            "transfer_entry": (row, col),
        },
        note="transfer matrices differ",
    )
    return Decision.distinct("transfer-compare", witness)


def positive_probe_frame(d: int) -> np.ndarray:
    """Rank-one positive matrices spanning the hermitian d x d matrices, as
    one stack: ``v v^+`` for v over basis vectors, pairwise sums, and
    pairwise imaginary sums, in a fixed order."""
    eye = np.eye(d, dtype=np.complex128)
    vs = [*eye]
    for i in range(d):
        for j in range(i + 1, d):
            vs += [eye[i] + eye[j], eye[i] + 1j * eye[j]]
    frame = np.array([np.outer(v, v.conj()) for v in vs], dtype=np.complex128)
    return frame.reshape(len(vs), d, d)


def _probe_frame_route(backend: MatrixBackend, c1: CombRep, c2: CombRep, *_) -> Decision:
    m1, m2 = to_cpm(backend, c1), to_cpm(backend, c2)
    differ = _boundary_check(m1, m2, "positive-probes")
    if differ is not None:
        return differ
    frame, bound = positive_probe_frame(m1.in_dim), residual_tolerance(backend.tolerance)
    out1, out2 = m1.apply(frame), m2.apply(frame)
    if close(out1, out2, bound):  # every probe's outputs at once
        return Decision.equivalent(
            "positive-probes",
            coverage={"probes_tried": len(frame), "frame_spans_hermitian": True},
        )
    i = next(i for i in range(len(frame)) if not close(out1[i], out2[i], bound))
    witness = ProbeWitness(
        ObjectWord.unit(), ObjectWord.unit(), frame[i], left=out1[i], right=out2[i],
        note="a rank-one positive input separates the channels",
    )
    return Decision.distinct("positive-probes", witness, coverage={"probes_tried": i + 1})


#: channel equality by transfer matrices, and by the probe frame
CPM = Relation((Route("auto", _transfer_route),))
CPINF = Relation((Route("auto", _probe_frame_route),))


def cpm_equiv(backend: MatrixBackend, c1: CombRep, c2: CombRep) -> Decision:
    """Transfer-matrix comparison of the channels of two dagger combs."""
    return decide(CPM, backend, c1, c2)


def cpinf_equiv(backend: MatrixBackend, c1: CombRep, c2: CombRep) -> Decision:
    """Positive-probe comparison of the channels of two dagger combs.

    Pushes the spanning frame of rank-one inputs through both channels'
    Kraus pieces and compares outputs directly, without forming transfer
    matrices.  Agreement across the whole frame is conclusive because the
    frame spans hermitian inputs and the channels act linearly.
    """
    return decide(CPINF, backend, c1, c2)
