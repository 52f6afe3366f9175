"""Dense (p,p)-forms with products: the test suite's oracle for the Schur pairs.

hrcheck.schur_form_pair reads a Schur pair from det X(t) and makes no
product of forms.  The reference here multiplies forms: DenseForm is a
(p,p)-form as its dense coefficient matrix, and dense_schur_pair evaluates
(s_lam, s'_lam) over DenseForms with symfunc.evaluate, one wedge of
coefficient matrices per product.  Its sign tables have C(d, p+q) C(d, p)
C(d, q) entries, so it serves d <= 5 or so.
"""

import numpy as np

from hrpairs.errors import DegreeError
from hrpairs.exterior import (
    PPForm, _array, _coefficient_matrix, _merge_signs, _promote, _subset_index,
)
from hrpairs.scalars import ExactArray
from hrpairs.symfunc import Partition, derived, evaluate, schur


class DenseForm:
    """(p,p)-form on C^d as its dense coefficient matrix, in either backend.

    coeffs[i, j] is the coefficient of dz_I wedge dzbar_J for the i-th and
    j-th p-subsets I, J in combinations order: a complex ndarray for float
    forms, an ExactArray for exact ones, so the array type is the backend;
    both factors of a product are in one backend.
    A value type for long products such as symfunc.evaluate.  With
    S = _merge_signs(d, p, q), the wedge of Z (degree p) and W (degree q) is
    V[k, l] = (-1)^(pq) sum S[k, a, b] S[l, c, e] Z[a, c] W[b, e],
    the sign rule of wedge applied to every pair of terms at once.
    Past degree d there are no subsets, so the matrix is empty: the zero
    form.
    """

    __slots__ = ("dim", "p", "coeffs")

    def __init__(self, dim, p, coeffs):
        self.dim, self.p, self.coeffs = dim, p, coeffs

    @classmethod
    def from_form(cls, form):
        """The dense copy of a (p,p)-form, exact when every coefficient is."""
        if form.p != form.q:
            raise DegreeError(f"expected a (p,p)-form, got {form!r}")
        return cls(form.dim, form.p, _coefficient_matrix(form, form.is_exact()))

    def to_form(self):
        """The sparse form: complex coefficients, or GaussianRational ones when exact."""
        subsets = list(_subset_index(self.dim, self.p))
        Z = self.coeffs
        coeffs = {(subsets[i], subsets[j]): Z.item(i, j) for i, j in zip(*Z.nonzero())}
        return PPForm._valid(self.dim, self.p, self.p, coeffs)

    def __add__(self, other):
        if (self.dim, self.p) != (other.dim, other.p):
            raise DegreeError(
                f"cannot add ({self.dim};{self.p},{self.p}) and "
                f"({other.dim};{other.p},{other.p}) forms"
            )
        A, B = self.coeffs, other.coeffs
        if isinstance(A, ExactArray) is not isinstance(B, ExactArray):
            A, B = _promote(A, B)  # a zero form with no coefficients reads as exact
        return DenseForm(self.dim, self.p, A + B)

    def __mul__(self, other):
        if not isinstance(other, DenseForm):
            c = other if isinstance(self.coeffs, ExactArray) else complex(other)
            return DenseForm(self.dim, self.p, self.coeffs * c)
        d, p, q = self.dim, self.p, other.p
        S = _merge_signs(d, p, q)
        X = np.tensordot(S, self.coeffs, axes=(1, 0))  # X[k, b, c]: sum over a
        X = np.tensordot(X, other.coeffs, axes=(1, 0))  # X[k, c, e]: sum over b
        V = np.tensordot(X, S, axes=((1, 2), (1, 2)))  # V[k, l]: sum over c, e
        return DenseForm(d, p + q, -V if (p * q) % 2 else V)


def dense_schur_pair(lam, omegas, dim):
    """(s_lam, s'_lam) of the (1,1)-forms omegas by symfunc.evaluate over
    DenseForm products: exact when every form is exact, complex otherwise."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    exact = all(w.is_exact() for w in omegas)
    values = [DenseForm(dim, 1, _coefficient_matrix(w, exact)) for w in omegas]
    one = DenseForm(dim, 0, _array((1, 1), [((0, 0), 1)], exact))
    p = schur(lam, len(omegas))
    return tuple(v.to_form() for v in evaluate((p, derived(p, 1)), values, one))
