"""The benchmark's timing wrappers still find the program names they bind."""

import importlib.util
from pathlib import Path

from hrpairs import hrcheck, linalg, ring
from hrpairs.exterior import std_kahler

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_record_an_exact_multiply_and_a_from_form_then_restore():
    spans = load_spans()
    model = ring.torus_ring(2)
    form = std_kahler(2)
    square = model.label("omega_std") ** 2
    originals = (ring.RingModel.__dict__["_multiply"], ring.TorusModel.__dict__["from_form"],
                 hrcheck.gram)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        tracer.begin_op(0)
        omega = model.from_form(form)
        assert omega * omega == square
        tracer.end_op()
    finally:
        restore()
    table = tracer.layer_table(1)
    assert table["ring.from_form.calls"] == 1
    assert table["ring.multiply_exact.calls"] == 1
    assert table["ring.multiply_float.calls"] == 0
    assert table["ring.multiply_exact.pairs_visited"] == len(omega.coeffs) ** 2
    assert (ring.RingModel.__dict__["_multiply"], ring.TorusModel.__dict__["from_form"],
            hrcheck.gram) == originals


def test_spans_count_the_exact_linear_algebra_of_a_pair_verdict_then_restore():
    spans = load_spans()
    model = ring.torus_ring(3)
    omega = model.from_form(std_kahler(3))
    originals = (linalg.rational_inertia, linalg.rational_solve, hrcheck.rational_inertia,
                 hrcheck.rational_solve)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        tracer.begin_op(0)
        verdict = hrcheck.is_hr_pair(model, omega * omega, omega, omega)
        tracer.end_op()
    finally:
        restore()
    assert (verdict.outcome, tuple(verdict.signature)) == ("pass", (1, 0, 8))
    table = tracer.layer_table(1)
    # Q with the functional as right-hand side, then the bordered matrix; the
    # quotient comes from the first elimination, so nothing calls rational_solve
    assert table["linalg.rational_inertia.calls"] == 2
    assert table["linalg.rational_solve.calls"] == 0
    assert table["linalg.rational_inertia.n_max"] == 10
    assert (linalg.rational_inertia, linalg.rational_solve, hrcheck.rational_inertia,
            hrcheck.rational_solve) == originals
