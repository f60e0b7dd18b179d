"""The frozen record type behind every value type of the library."""

import os
import subprocess
import sys

import numpy as np
import pytest

import spectral_ssmp
from spectral_ssmp.bernstein import (
    AtomMeasure,
    BernsteinFunction,
    ClosedFormMeasure,
    _MeasureRule,
    _measure_rule,
)
from spectral_ssmp.exponents import LevyQuadruplet, WienerHopfPair
from spectral_ssmp.families import make_bernstein
from spectral_ssmp.lamperti import SimConfig, _build_jump_model
from spectral_ssmp.semigroup import EvolutionPlan
from spectral_ssmp.spectrum import _Side
from spectral_ssmp.transform import (
    DomainRecord,
    GridFunction,
    GridSpec,
    SpectrumLine,
    multiplier_h,
)

SPEC = GridSpec(-20.0, 40.0, 512)
PHI_ID = make_bernstein("drift", d=1.0)


def _gamma_pair():
    return WienerHopfPair(
        make_bernstein("gamma-ratio-plus", alpha_tilde=0.7),
        make_bernstein("gamma-ratio-minus", alpha=0.3, rho=1.0))


@pytest.mark.parametrize("record, field", [
    (GridSpec(), "n"),
    (BernsteinFunction(drift=1.0), "drift"),
    (WienerHopfPair(PHI_ID, PHI_ID), "phi_plus"),
    (DomainRecord(0.0, "inside"), "verdict"),
    (_Side(True, False, 1.0, 2.0), "drop"),
])
def test_fields_can_be_neither_set_nor_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_attribute = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("build", [
    lambda: GridSpec(-10.0, 30.0, 2048),
    lambda: BernsteinFunction(phi0=0.5, drift=1.0,
                              measure=AtomMeasure(((1.0, 2.0),))),
    lambda: make_bernstein("stable", beta=0.5),
    _gamma_pair,
])
def test_equal_fields_give_equal_records_and_hashes(build):
    # GridSpec, BernsteinFunction and WienerHopfPair key the caches of
    # multiplier_h, default_evaluator and _measure_rule
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_a_changed_field_gives_an_unequal_record():
    assert GridSpec(-10.0, 30.0, 2048) != GridSpec(-10.0, 30.0, 4096)
    assert (make_bernstein("stable", beta=0.5)
            != make_bernstein("stable", beta=0.4))


def test_records_of_two_classes_are_unequal():
    values = np.ones(SPEC.n)
    assert GridFunction(SPEC, values) != SpectrumLine(SPEC, values)
    assert GridSpec() != (-20.0, 40.0, 4096)
    assert (-20.0, 40.0, 4096) != GridSpec()
    assert ClosedFormMeasure("stable", (0.5,)) != ("stable", (0.5,))


def test_rules_and_jump_models_compare_by_identity():
    meas = AtomMeasure(((1.0, 2.0),))
    nodes, weights = np.array([1.0]), np.array([2.0])
    r1 = _MeasureRule(nodes, weights, 0.0, 1.0, 0.0, 0.0)
    r2 = _MeasureRule(nodes, weights, 0.0, 1.0, 0.0, 0.0)
    assert r1 == r1 and r1 != r2
    assert hash(r1) == object.__hash__(r1)
    q = LevyQuadruplet(sigma2=1.0)
    m1, m2 = (_build_jump_model(q, SimConfig()) for _ in range(2))
    assert m1 == m1 and m1 != m2
    assert hash(m1) == object.__hash__(m1)
    # a rule is still built once per descriptor
    assert _measure_rule(meas) is _measure_rule(AtomMeasure(((1.0, 2.0),)))


def test_constructor_arguments():
    assert GridSpec(-10.0, n=512) == GridSpec(x_min=-10.0, x_max=40.0, n=512)
    assert WienerHopfPair(phi_minus=PHI_ID, phi_plus=PHI_ID) == \
        WienerHopfPair(PHI_ID, PHI_ID)
    for call in (lambda: WienerHopfPair(PHI_ID),             # missing
                 lambda: WienerHopfPair(PHI_ID, PHI_ID, PHI_ID),  # too many
                 lambda: GridSpec(n_points=512),             # unknown
                 lambda: GridSpec(-10.0, x_min=-10.0),       # repeated
                 lambda: DomainRecord(verdict="inside")):    # missing
        with pytest.raises(TypeError):
            call()


def test_repr_names_the_fields_in_order():
    assert repr(GridSpec()) == "GridSpec(x_min=-20.0, x_max=40.0, n=4096)"
    assert repr(DomainRecord(0.5, "outside")) == \
        "DomainRecord(tail_fraction=0.5, verdict='outside')"


def test_post_init_sets_derived_attributes_outside_the_fields():
    plan = EvolutionPlan(_gamma_pair(), SPEC)
    assert EvolutionPlan._fields == ("pair", "spec")
    assert plan.m is multiplier_h(plan.pair, SPEC)
    assert plan.slope.shape == (SPEC.n,) and not plan.slope.flags.writeable
    assert plan == EvolutionPlan(_gamma_pair(), SPEC)


def test_the_library_imports_no_dataclasses():
    # dataclasses compiles the methods of each class it builds with exec,
    # at import; the records build none
    src = os.path.dirname(os.path.dirname(spectral_ssmp.__file__))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import spectral_ssmp, spectral_ssmp.families, spectral_ssmp.cli\n"
            "new = set(sys.modules) - before\n"
            "sys.exit('loaded dataclasses' if 'dataclasses' in new else 0)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
