"""Unitary matrices between words of named finite dimensions.

Values reuse the complex :class:`Mat` wrapper; every generator is checked
unitary at declaration, and identities, symmetries, composites, and
tensors all stay unitary.  There is no compact structure (pairing vectors
are not unitary), but braid values still settle filler agreement because
the same values sit inside the full complex matrix category.
"""
from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..core import Backend, DimensionMismatch, ObjectWord
from .matrix import Mat, MatrixBackend, _kron, close, residual_tolerance


class UnitaryBackend(MatrixBackend):
    name = "unitary"
    compact_closed = False
    enumerable = False
    unitary_values = True
    braid_conclusive = True
    # no enumeration (hom-sets are a continuum) and no pairing vectors (they
    # are not unitary): the base contract's refusals
    enumerate_hom, dual, cup, cap = Backend.enumerate_hom, Backend.dual, Backend.cup, Backend.cap

    def __init__(self, dims: Mapping[str, int], **tolerance: float):
        # the optional ``tolerance`` keyword and its default are MatrixBackend's
        super().__init__(dims, "complex", **tolerance)

    def mat(self, dom: ObjectWord, cod: ObjectWord, entries: Any) -> Mat:
        m = super().mat(dom, cod, entries)
        d = self.dim(dom)
        if self.dim(cod) != d:
            raise DimensionMismatch(
                f"unitary {dom.pretty()} -> {cod.pretty()} must preserve dimension"
            )
        gram = m.array.conj().T @ m.array
        if not close(gram, np.eye(d), residual_tolerance(self.tolerance)):
            raise DimensionMismatch(
                f"matrix for {dom.pretty()} -> {cod.pretty()} is not unitary"
            )
        return m


def tensor_separate(u: np.ndarray, d_left: int, d_right: int):
    """Split ``u`` on a d_left*d_right space as ``u_left tensor identity``.

    Returns ``(u_left, residual)`` where ``u_left`` is the compression of
    ``u`` onto the first basis vector of the right factor and residual is
    the max-abs deviation of ``u`` from ``kron(u_left, eye(d_right))``.
    A residual within ``residual_tolerance`` certifies the split.
    """
    if u.shape != (d_left * d_right, d_left * d_right):
        raise DimensionMismatch(
            f"expected a square matrix on {d_left}*{d_right}, got {u.shape}"
        )
    blocks = u.reshape(d_left, d_right, d_left, d_right)
    u_left = blocks[:, 0, :, 0].copy()
    residual = float(np.max(np.abs(u - _kron(u_left, np.eye(d_right)))))
    return u_left, residual


def environment_rotation(u: np.ndarray, v: np.ndarray, d_e1: int, d_e2: int,
                         d_b: int, d_b1: int, tolerance: float) -> tuple[bool, dict]:
    """Factor the change of environment between two unitary combs.

    ``u = f2 . dagger(f1)`` on ``E1 (x) B`` and ``v = dagger(g1) . g2`` on
    ``E2 (x) B'`` are split by :func:`tensor_separate` into a rotation
    beside an identity on the hole, and the two rotations must cancel.
    Returns ``(ok, pieces)``: ``pieces`` holds both rotations and the three
    residuals (bottom split, top split, and ``max |v_left u_left - 1|``),
    and ``ok`` says every residual is within ``residual_tolerance``.  This
    is the arithmetic of :func:`optic.unitary_comb_factor`.
    """
    u_left, res_u = tensor_separate(u, d_e1, d_b)
    v_left, res_v = tensor_separate(v, d_e2, d_b1)
    cancel = float(np.max(np.abs(np.dot(v_left, u_left) - np.eye(d_e1))))
    bound = residual_tolerance(tolerance)
    pieces = {
        "rotation": u_left,
        "inverse_rotation": v_left,
        "bottom_residual": res_u,
        "top_residual": res_v,
        "cancellation_residual": cancel,
    }
    return res_u <= bound and res_v <= bound and cancel <= bound, pieces
