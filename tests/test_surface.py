"""The command modules' surface: the enumeration budget has one source,
the environment variable, the paper's lemma checks live with the
oracles, which no command imports, the facet walk reads its lower cells
without a factorization of the configuration, an inverse carried from
one facet to the next, a second lower-cell test or a weight vector, one
function reads a triangulation, one meter charges the work counted
before it runs, the exceptions only the oracles raise live with them,
the certificate reads the leads without listing the minimal ones, check
(b) is read in the family only, the family stage is the one entry point
to check (a), the dilations are counted slice by slice, the last count
kept and charged again on each read, and a monomial is its word on the
command path, with the oracles converting the family at their entry,
the builder alone records each generator's group, the command line
alone writes JSON, the smoke test owns its default degree, the sweep
refuses a bad grid through ``main`` and the records compile no
annotation at import."""

import inspect
import re

import pytest

import wpsimplex
from wpsimplex import (
    cli,
    ehrhart,
    errors,
    groebner,
    oracles,
    pipeline,
    simplex,
    toric,
    triangulation,
)

COMMAND_MODULES = (cli, pipeline, simplex, ehrhart, toric, groebner, triangulation)

#: The lemma checks that left the command modules for the oracles.
MOVED = (
    "functional_values",
    "tightness_profile",
    "lattice_point_count_from_h1",
    "pi_image",
    "is_toric_member",
    "zsupport",
    "SupportCase",
    "ZSupportShape",
    "zsupport_shape",
    "hstar_by_residues",
)


def _callables(module):
    """The functions and classes a module defines, private ones too."""
    for name, value in vars(module).items():
        if callable(value) and getattr(value, "__module__", None) == module.__name__:
            yield name, value


@pytest.mark.parametrize("module", COMMAND_MODULES, ids=lambda m: m.__name__)
def test_no_command_callable_takes_a_budget(module):
    for name, value in _callables(module):
        try:
            parameters = inspect.signature(value).parameters
        except ValueError:  # an exception class has no signature
            continue
        assert "budget" not in parameters, f"{module.__name__}.{name}"


def test_budget_is_read_from_the_environment_on_every_call(monkeypatch):
    monkeypatch.setenv(simplex.ENUM_BUDGET_ENV, "7")
    assert simplex.resolve_enum_budget() == 7
    monkeypatch.setenv(simplex.ENUM_BUDGET_ENV, "")
    assert simplex.resolve_enum_budget() == simplex.DEFAULT_ENUM_BUDGET
    monkeypatch.delenv(simplex.ENUM_BUDGET_ENV)
    assert simplex.resolve_enum_budget() == simplex.DEFAULT_ENUM_BUDGET


def test_one_budget_meter():
    # work counted before it runs is charged by simplex.charge; the slice
    # walk, whose total is known as it walks, keeps its own count, which
    # one meter charges as the walk goes and again on each read of a
    # kept count
    raises = {
        module.__name__: inspect.getsource(module).count("raise BudgetExceeded")
        for module in (*COMMAND_MODULES, oracles)
    }
    assert raises == {**dict.fromkeys(raises, 0), simplex.__name__: 2}
    for meter in (simplex.charge, simplex._charge_walk):
        assert inspect.getsource(meter).count("raise BudgetExceeded") == 1
    for walker in (simplex._dilation_slices, simplex._dilation_count):
        assert inspect.getsource(walker).count("_charge_walk(") == 1


def test_the_pipeline_keeps_no_unread_name():
    # the triangulation flags are read off its stage, and hstar prints
    # its own h*, so the h* stage reports only the dilations it checked
    for name in ("TRIANGULATION_FLAGS", "_EmptyMapping", "_NOTHING"):
        assert not hasattr(pipeline, name), name
    assert pipeline.check_hstar(simplex.build_q(2, 1)).report == {
        "dilations_checked": [1, 2]
    }


#: The exceptions that only the oracles raise.
ORACLE_ERRORS = ("DegenerateLift", "DimensionMismatch", "PointOutsideSimplex")


def test_the_oracles_exceptions_live_with_the_oracles():
    # every exception class of the command modules is raised by one of
    # them; the three that only the oracles raise are defined there
    command_source = "".join(map(inspect.getsource, COMMAND_MODULES))
    for module in (*COMMAND_MODULES, errors):
        for name, value in _callables(module):
            if (isinstance(value, type) and issubclass(value, Exception)
                    and value is not errors.WpsimplexError):
                assert re.search(rf"raise {name}\b", command_source), name
    oracle_source = inspect.getsource(oracles)
    for name in ORACLE_ERRORS:
        assert getattr(oracles, name).__module__ == oracles.__name__
        assert f"raise {name}(" in oracle_source, name
        for module in (wpsimplex, errors, *COMMAND_MODULES):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("name", MOVED)
def test_lemma_checks_live_in_the_oracles_only(name):
    assert callable(getattr(oracles, name))
    assert not hasattr(wpsimplex, name)
    for module in COMMAND_MODULES:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_no_halfspace_record():
    # h_description returns the rows themselves (see test_simplex)
    assert not hasattr(wpsimplex, "HalfspaceDescription")
    assert not hasattr(simplex, "HalfspaceDescription")


def test_reduced_costs_need_no_factorization():
    # the walk reads the reduced costs in slack coordinates computed from
    # its own columns, so there is no second representation to check
    assert not hasattr(wpsimplex, "Factorization")
    assert not hasattr(simplex, "Factorization")
    assert "factorization" not in simplex.PointConfiguration._fields
    assert not hasattr(triangulation, "_check_factorization")
    parameters = inspect.signature(triangulation._walk_faces).parameters
    assert "factorization" not in parameters


def test_no_inverse_walk():
    # each face is solved from its own k x k kernel, so nothing carries
    # an inverse or a solve from one facet to the next, and the face
    # walk's scan is its one reduced-cost test
    for name in ("_walk_inverses", "_pivot", "_facet_inverse",
                 "_difference_terms", "FacetInverse", "_is_lower_cell",
                 "_facet_class"):
        assert not hasattr(triangulation, name), name


def test_one_triangulation_reader():
    # a triangulation is its facet list, and summarize_triangulation is
    # the one reader of the walk; the oracles run no part of the walk
    for name in ("Triangulation", "triangulation_from_family", "_walk_family"):
        assert not hasattr(triangulation, name), name
        assert not hasattr(wpsimplex, name), name
    assert not hasattr(oracles, "_walk_faces")
    assert triangulation not in vars(oracles).values()


def test_plain_facet_enumeration_is_the_reference_only():
    # the certificate reads the twin quotient as a graph and walks its
    # faces; the dualization of the supports themselves is the oracles'
    # reference
    assert callable(oracles._maximal_faces)
    for name in ("_maximal_faces", "_walk_facets"):
        assert not hasattr(triangulation, name), name


def test_the_smoke_test_join_has_one_caller_and_the_oracle_scans():
    # the join yields only what injectivity_check reads; the oracle of
    # the standard monomials scans, taking nothing from groebner: both
    # are charged through the one budget meter, simplex.charge
    assert not hasattr(groebner, "_order_ideal")
    assert callable(groebner._standard_images)
    for module in (*COMMAND_MODULES, oracles):
        if module is not groebner:
            assert not hasattr(module, "_standard_images"), module.__name__
    taken = {
        name
        for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == groebner.__name__
    }
    assert taken == set()
    assert groebner not in vars(oracles).values()
    assert not hasattr(groebner, "_check_budget")
    assert oracles.charge is groebner.charge is simplex.charge


def test_what_the_oracles_share_with_the_walk_module():
    # the oracles run no part of the face walk; they take only these
    # checks and kernels from its module
    taken = {
        name
        for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == triangulation.__name__
    }
    assert taken == {"_check_facet_size", "_checked_volume", "_eliminate"}


def test_the_walk_takes_no_weights():
    # the walk reads the lex lift by the sign rule of the circuits: the
    # explicit weights are the oracles' reference only, and no lift it
    # reads can be degenerate
    for name in ("make_weight_certificate", "WeightCertificate", "_check_weight_count"):
        assert callable(getattr(oracles, name)), name
        assert not hasattr(triangulation, name), name
        assert not hasattr(wpsimplex, name), name
    assert not hasattr(triangulation, "DegenerateLift")
    for walk in (triangulation._walk_faces, triangulation.facet_support_function):
        assert "weights" not in inspect.signature(walk).parameters


def test_the_certificate_reads_the_leads():
    # the complex is dualized from all the leads and the squarefree flag
    # is read from them, so no minimal generating set is built; the
    # quotient reads the leads' words, with no support mask, and the
    # hypergraph dualization is the oracles' reference only
    for name in ("initial_ideal", "InitialIdeal"):
        assert not hasattr(wpsimplex, name), name
        for module in COMMAND_MODULES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("_support_mask", "_minimal_transversals"):
        for module in COMMAND_MODULES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert callable(oracles._minimal_transversals)
    assert callable(triangulation._minimal_covers)


def test_check_b_is_read_in_the_family_only():
    # the family stage reads the lex orientation through the one audit,
    # so the triangulation reader raises no certificate error of its own
    assert callable(toric.orientation_failures)
    assert pipeline.orientation_failures is toric.orientation_failures
    for module in (wpsimplex, wpsimplex.errors, triangulation):
        assert not hasattr(module, "CertificateFailure"), module.__name__
    assert not hasattr(pipeline, "default_grid")


def test_check_a_is_read_by_the_family_stage_only():
    # check_family refuses an unbalanced family before it reads the
    # triangulation stage, so gb verify needs no guard of its own
    assert pipeline.pi_balance_failures is toric.pi_balance_failures
    for module in (wpsimplex, pipeline):
        assert not hasattr(module, "check_pi_balance"), module.__name__


def test_the_dilations_are_walked_uncached():
    # the point check and the h* check count the checked slices, and
    # only the last count is kept, for the point's second reader: no
    # enumeration is listed or kept, and the lister is the oracles'
    assert not hasattr(simplex, "_dilation_points")
    assert not hasattr(oracles.enumerate_dilation_points, "cache_info")
    assert ehrhart._dilation_count is simplex._dilation_count
    for module in (wpsimplex, simplex, ehrhart, pipeline):
        assert not hasattr(module, "enumerate_dilation_points"), module.__name__
        assert not hasattr(module, "lattice_points_bruteforce"), module.__name__


def test_the_records_compile_no_annotation_at_import():
    # a NamedTuple compiles each string annotation into a ForwardRef when
    # its class is created, so the modules that define one evaluate their
    # annotations as they are defined
    for module in (simplex, ehrhart, toric, triangulation, pipeline, cli):
        assert not hasattr(module, "annotations"), module.__name__
    records = (simplex.QVector, simplex.PointConfiguration, ehrhart.HStarVector,
               toric.GroebnerFamily, triangulation.TriangulationSummary,
               pipeline.Stage, cli._Option)
    for record in records:
        kinds = {type(a) for a in record.__annotations__.values()}
        assert str not in kinds, record.__name__


def test_the_oracles_take_no_monomial_code_from_the_family_module():
    # the oracles read exponent tuples of their own, converted from the
    # family's words, so they share no pushforward, pi-balance or support
    # code with the audits they are held against
    taken = {
        name
        for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == toric.__name__
    }
    assert taken == {"Binomial", "GroebnerFamily"}
    assert toric not in vars(oracles).values()
    assert callable(oracles.dense_generators)
    for module in COMMAND_MODULES:
        assert not hasattr(module, "dense_generators"), module.__name__
    # the dense monomial's last builder went with it
    assert not hasattr(toric, "total_vars")


def test_the_builder_alone_records_each_generators_group():
    # the family carries its binomials only; the (tag, generator) pairs
    # are read from the builder, and no second tuple rides beside them
    assert toric.GroebnerFamily._fields == ("q", "columns", "generators")
    assert not hasattr(toric, "_generators")
    assert callable(toric.tagged_generators)


def test_the_point_list_keeps_no_q():
    # the caller holds q; the list is its labels and columns only
    assert simplex.PointConfiguration._fields == ("labels", "columns")


def test_the_records_write_no_json():
    # the command line builds the JSON it prints
    for record in (simplex.PointConfiguration, ehrhart.HStarVector):
        assert not [a for a in dir(record) if a.startswith("to_json")], record


def test_the_smoke_test_owns_its_default_degree():
    for function in (groebner.injectivity_check, pipeline.check_family,
                     pipeline.evaluate_point):
        default = inspect.signature(function).parameters["max_degree"].default
        assert default is groebner.DEFAULT_MAX_DEGREE, function.__name__
    assert cli._MAX_DEGREE.default is groebner.DEFAULT_MAX_DEGREE
    assert f"(default {groebner.DEFAULT_MAX_DEGREE})" in cli._MAX_DEGREE.help


def test_the_sweep_refuses_through_main():
    # a bad grid raises, as every command's bad parameters do; the one
    # line the sweep prints itself is the dead worker's
    source = inspect.getsource(cli.cmd_sweep)
    assert source.count("print(") == 1
    assert 'print(f"error: a sweep worker died' in source
