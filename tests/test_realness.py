"""One realness rule for form data: every check that reads a form as real
refuses it by exterior._require_real, in both backends, exactly when
exterior._unreal_at finds a gap, and names the same first gap."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrpairs.bogomolov import constraint_project, random_curvature, trace_check
from hrpairs.errors import ConfigError
from hrpairs.exterior import (
    PPForm, _json_indices, _subset_index, _unreal_at, form_from_hermitian, positivity_dminus1,
    std_kahler,
)
from hrpairs.hrcheck import pointwise_hr_pair, random_kahler, schur_form_pair
from hrpairs.scalars import GaussianRational
from hrpairs.symfunc import Partition
from test_schur_tensors import exact_hermitian


def perturbed(form, k, exact, rng):
    """form plus a non-Hermitian perturbation of relative size 10^-k: a dense
    complex Gaussian one for a float form, (1 + i) / 10^k at one random
    coefficient, which breaks the reality condition there, for an exact one."""
    d, p = form.dim, form.p
    subsets = list(_subset_index(d, p))
    if exact:
        I, J = (subsets[i] for i in rng.integers(len(subsets), size=2))
        step = Fraction(1, 10 ** k)
        return form + PPForm(d, p, p, {(I, J): GaussianRational(step, step)})
    E = rng.standard_normal(form.Z.shape) + 1j * rng.standard_normal(form.Z.shape)
    E *= 10.0 ** -k * max(1.0, form.max_abs()) / np.abs(E).max()
    return form + PPForm(d, p, p, {(I, J): E[i, j] for i, I in enumerate(subsets)
                                   for j, J in enumerate(subsets)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), role=st.sampled_from(["omega_top", "omega_mid", "omega"]),
       k=st.integers(3, 15), exact=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_form_check_refuses_exactly_where_unreal_at_finds_a_gap(d, role, k, exact, seed):
    """A real form of a Schur pair (or a Kahler form of it), perturbed, in the
    role it plays: pointwise_hr_pair, positivity_dminus1, trace_check,
    constraint_project and, for (1,1)-forms, schur_form_pair each refuse it,
    naming the form and the first gap of _unreal_at, exactly when that finds
    one, and decide it otherwise."""
    rng = np.random.default_rng(seed)
    omegas = [form_from_hermitian(exact_hermitian(rng, d)) if exact else random_kahler(d, rng)
              for _ in range(2)]
    lam = Partition((d - 1,))
    top, mid = schur_form_pair(lam, omegas, d)
    forms = {"omega_top": top, "omega_mid": mid, "omega": std_kahler(d, exact=exact)}
    bad = forms[role] = perturbed(forms[role], k, exact, rng)
    at = _unreal_at(bad)

    def refuses(name, call):
        """call() raises the one refusal, naming name, exactly when at is a gap."""
        if at is None:
            call()
            return
        message = (f"^{re.escape(name)} is not a real form: it fails the reality condition at "
                   f"{re.escape(_json_indices(at))}$")
        with pytest.raises(ConfigError, match=message):
            call()

    refuses(role, lambda: pointwise_hr_pair(forms["omega_top"], forms["omega_mid"],
                                            forms["omega"]))
    raw = random_curvature(2, d, rng)
    if role == "omega_top":
        refuses("form", lambda: positivity_dminus1(bad))
        refuses("omega_top", lambda: constraint_project(raw, bad))
    if role != "omega":
        F0 = constraint_project(raw, top)
        refuses(role, lambda: trace_check(F0, forms["omega_top"], forms["omega_mid"]))
    if bad.p == 1:  # omega, omega_top at d = 2, omega_mid at d = 3
        refuses("omegas[1]", lambda: schur_form_pair(lam, [omegas[0], bad], d))
