"""The value records are immutable tuples: no field can be set, no
instance carries a ``__dict__``, a sabotage hook builds a new family and
leaves the original's cached audits alone, and the records the process
pool could carry survive a pickle round trip."""

import pickle

import pytest

from wpsimplex import (
    build_q,
    groebner_family,
    h_description,
    hstar,
    initial_ideal,
    lattice_points_formula,
    make_weight_certificate,
    triangulation_from_family,
    zsupport_shape,
)
from wpsimplex.oracles import buchberger_verify
from wpsimplex.pipeline import Stage, check_hstar
from wpsimplex.toric import include_excluded_pair, mutate_tail, pi_balance_failures


def _records():
    q = build_q(2, 1)
    family = groebner_family(q)
    return [
        q,
        h_description(q),
        lattice_points_formula(q),
        hstar(q),
        family,
        initial_ideal(family),
        zsupport_shape(family.generators[0].lead, q),
        triangulation_from_family(family),
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
def test_sabotage_builds_a_new_family_and_keeps_the_cached_audits(sabotage):
    family = groebner_family(build_q(3, 2))
    generators = family.generators
    ideal = initial_ideal(family)
    failures = pi_balance_failures(family)
    assert failures == ()
    broken = sabotage(family)
    assert broken != family
    assert pi_balance_failures(broken)
    assert initial_ideal(broken) is not ideal
    assert family.generators is generators
    assert groebner_family(build_q(3, 2)) is family
    assert initial_ideal(family) is ideal
    assert pi_balance_failures(family) is failures


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
    first, second = Stage({}), Stage({})
    for name in ("report", "skipped"):
        try:
            getattr(first, name)["key"] = "value"
        except TypeError:
            pass
        assert dict(getattr(second, name)) == {}
