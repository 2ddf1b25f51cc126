"""The value records are immutable tuples: no field can be set, no
instance carries a ``__dict__``, a sabotage hook builds a new family and
leaves the original as it was, and the records the process pool could
carry survive a pickle round trip."""

import pickle

import pytest

from wpsimplex import (
    build_q,
    groebner_family,
    hstar,
    lattice_points_formula,
    summarize_triangulation,
)
from wpsimplex.oracles import (
    buchberger_verify, dense_generators, make_weight_certificate, zsupport_shape
)
from wpsimplex.pipeline import Stage, check_hstar
from wpsimplex.toric import include_excluded_pair, mutate_tail, pi_balance_failures
from wpsimplex.triangulation import _family_faces


def _records():
    q = build_q(2, 1)
    family = groebner_family(q)
    return [
        q,
        lattice_points_formula(q),
        hstar(q),
        family,
        zsupport_shape(dense_generators(family)[0].lead, q),
        summarize_triangulation(family),
        make_weight_certificate(family),
        check_hstar(q),
        buchberger_verify(family),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("sabotage", [
    lambda family: mutate_tail(family, 0),
    include_excluded_pair,
], ids=["mutate_tail", "include_excluded_pair"])
def test_sabotage_builds_a_new_family_and_keeps_the_cached_faces(sabotage):
    # the sabotaged family is a new family, audited on its own; the original
    # keeps its generators and its cached dualization
    family = groebner_family(build_q(3, 2))
    generators = family.generators
    faces = _family_faces(family)
    assert pi_balance_failures(family) == ()
    broken = sabotage(family)
    assert broken != family
    assert pi_balance_failures(broken)
    assert family.generators is generators
    assert family == groebner_family(build_q(3, 2))
    assert _family_faces(family) is faces


@pytest.mark.parametrize("record", [
    Stage({"latticePointsOK": True}),
    check_hstar(build_q(3, 2)),
    groebner_family(build_q(3, 2)),
], ids=["default Stage", "hstar Stage", "GroebnerFamily"])
def test_records_survive_a_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_default_stages_share_no_writable_dict():
    # a default report or skip list is None, so there is no shared
    # object to write through, and its readers take None as empty
    stage = Stage({})
    assert stage.report is None and stage.skipped is None
