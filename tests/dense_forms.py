"""Products of forms: the test suite's oracle for the Schur pairs.

hrcheck.schur_form_pair reads a Schur pair from det X(t) and makes no
product of forms.  The reference here multiplies forms: dense_schur_pair
evaluates (s_lam, s'_lam) over PPForms with symfunc.evaluate, one
exterior.wedge of coefficient matrices per product.  Its sign tables have
C(d, p+q) C(d, p) C(d, q) entries, so it serves d <= 8 or so.
"""

from hrpairs.exterior import PPForm
from hrpairs.symfunc import Partition, derived, evaluate, schur


def dense_schur_pair(lam, omegas, dim):
    """(s_lam, s'_lam) of the (1,1)-forms omegas by symfunc.evaluate over
    wedge products: exact when every form is exact, complex otherwise."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    one = PPForm.one(dim, exact=all(w.is_exact() for w in omegas))
    p = schur(lam, len(omegas))
    return evaluate((p, derived(p, 1)), omegas, one)
