"""The analysis-driven pruning pass: on/off parity, the kill-switch, and
the options-schema compatibility rules.

``dataflow_pruning`` is the one switch for every analysis-driven shortcut:
dead services and child openings skipped during successor generation,
contradicting conjunctions dropped at flatten time, and the trivial-property
short-circuit.  The fast tests prove parity on targeted systems (dead child
subtrees, constant-pinned gates, trivially-true properties); the slow
differential sweep proves it across the whole benchmark corpus -- every
verdict and search counter must be identical with the pass on and off.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.options import VerifierOptions
from repro.core.verifier import Verifier
from repro.has.builder import ArtifactSystemBuilder
from repro.has.conditions import And, Const, Eq, NULL, Neq, TrueCond, Var
from repro.has.schema import DatabaseSchema
from repro.ltl import LTLFOProperty, parse_ltl

#: The search counters the pass must leave unchanged, next to the verdict.
PARITY_COUNTERS = (
    "states_explored",
    "states_pruned",
    "states_deactivated",
    "transitions_computed",
)


def _system_with_dead_child():
    schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
    builder = ArtifactSystemBuilder("pruned", schema)
    root = builder.task("Main")
    root.id_variable("item", "ITEMS")
    root.variable("status")
    root.internal_service(
        "pick", pre=Eq(Var("status"), NULL), post=Eq(Var("status"), Const("picked"))
    )
    root.internal_service(
        "ship",
        pre=Eq(Var("status"), Const("picked")),
        post=Eq(Var("status"), Const("shipped")),
    )
    child = builder.task("Dead", parent="Main")
    child.variable("cstatus")
    child.internal_service(
        "cgo", pre=Eq(Var("cstatus"), NULL), post=Eq(Var("cstatus"), Const("x"))
    )
    child.opening(
        pre=And(Eq(Var("status"), Const("a")), Eq(Var("status"), Const("b")))
    )
    child.closing(pre=TrueCond())
    return builder.build()


def _verify_both_ways(system, ltl_property, **budget):
    """(pruned result, unpruned result) for one property."""
    pruned = Verifier(system, VerifierOptions(**budget)).verify(ltl_property)
    unpruned = Verifier(
        system, VerifierOptions(dataflow_pruning=False, **budget)
    ).verify(ltl_property)
    return pruned, unpruned


def _assert_parity(pruned, unpruned, label):
    assert pruned.outcome == unpruned.outcome, (
        f"{label}: pruned={pruned.outcome} unpruned={unpruned.outcome}"
    )
    for counter in PARITY_COUNTERS:
        assert getattr(pruned.stats, counter) == getattr(unpruned.stats, counter), (
            f"{label}: {counter}"
        )


def _pinned_mode_system():
    """A system whose global precondition pins ``mode`` to a value that
    disables one service and one child: satisfiable in isolation but dead
    under the propagated constant."""
    schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
    builder = ArtifactSystemBuilder(
        "pinned",
        schema,
        global_precondition=And(
            And(Eq(Var("mode"), Const("basic")), Eq(Var("status"), NULL)),
            Eq(Var("item"), NULL),
        ),
    )
    root = builder.task("Main")
    root.id_variable("item", "ITEMS")
    root.variable("status")
    root.variable("mode")
    root.internal_service(
        "go",
        pre=Eq(Var("status"), NULL),
        post=Eq(Var("status"), Const("done")),
        propagated=["mode"],
    )
    root.internal_service(
        "premium_only",
        pre=Eq(Var("mode"), Const("premium")),
        post=Eq(Var("status"), Const("upgraded")),
        propagated=["mode"],
    )
    child = builder.task("Premium", parent="Main")
    child.variable("cstatus")
    child.internal_service(
        "cgo", pre=Eq(Var("cstatus"), NULL), post=Eq(Var("cstatus"), Const("x"))
    )
    child.opening(pre=Eq(Var("mode"), Const("premium")))
    child.closing(pre=TrueCond())
    return builder.build()


class TestVerdictPreservation:
    def test_trivially_true_property_short_circuits_to_satisfied(self):
        system = _system_with_dead_child()
        trivial = LTLFOProperty("Main", parse_ltl("true"), {}, name="triv")
        pruned, unpruned = _verify_both_ways(system, trivial)
        assert pruned.satisfied and unpruned.satisfied
        assert pruned.stats.states_explored == 0
        _assert_parity(pruned, unpruned, "triv")

    def test_short_circuit_still_validates_the_property(self):
        """Error behaviour is identical with pruning on or off."""
        system = _system_with_dead_child()
        bad = LTLFOProperty(
            "Main", parse_ltl("true & zap"), {}, name="bad-service-ref"
        )
        for options in (VerifierOptions(), VerifierOptions(dataflow_pruning=False)):
            with pytest.raises(ValueError, match="zap"):
                Verifier(system, options).verify(bad)


class TestOnOffParity:
    """dataflow_pruning on and off must agree on the verdict AND the search
    counters -- the pass only removes work that provably yields zero
    symbolic moves."""

    def _check(self, system, properties):
        for ltl_property in properties:
            pruned, unpruned = _verify_both_ways(system, ltl_property)
            _assert_parity(pruned, unpruned, ltl_property.name)

    def test_statically_dead_child_is_skipped_and_counted(self):
        """A child whose opening guard is unsatisfiable on its own (no
        constant environment needed) is one of the dataflow dead openings:
        skipping it explores the same states, and every skip is counted."""
        from repro.analysis import compute_dataflow_facts, compute_static_facts

        system = _system_with_dead_child()
        assert "Dead" in compute_static_facts(system).unsat_opening_tasks
        facts = compute_dataflow_facts(system).for_task("Main")
        assert "Dead" in facts.dead_child_openings
        assert not facts.dead_services
        properties = [
            LTLFOProperty(
                "Main",
                parse_ltl("G ns"),
                {"ns": Neq(Var("status"), Const("shipped"))},
                name="never-shipped",
            ),
            LTLFOProperty(
                "Main",
                parse_ltl("F p"),
                {"p": Eq(Var("status"), Const("picked"))},
                name="eventually-picked",
            ),
        ]
        for ltl_property in properties:
            pruned, unpruned = _verify_both_ways(system, ltl_property)
            _assert_parity(pruned, unpruned, ltl_property.name)
            assert pruned.stats.dataflow_services_skipped > 0
            assert unpruned.stats.dataflow_services_skipped == 0

    def test_pinned_mode_system(self):
        """The constant-propagation kills: 'premium_only' and the 'Premium'
        child are satisfiable in isolation, so only the task's constant
        environment can prune them."""
        system = _pinned_mode_system()
        from repro.analysis import compute_dataflow_facts

        facts = compute_dataflow_facts(system).for_task("Main")
        assert "premium_only" in facts.dead_services
        assert "Premium" in facts.dead_child_openings
        self._check(
            system,
            [
                LTLFOProperty(
                    "Main",
                    parse_ltl("F d"),
                    {"d": Eq(Var("status"), Const("done"))},
                    name="eventually-done",
                ),
                LTLFOProperty(
                    "Main",
                    parse_ltl("G nu"),
                    {"nu": Neq(Var("status"), Const("upgraded"))},
                    name="never-upgraded",
                ),
            ],
        )

    def test_dataflow_pruning_actually_skips_work(self):
        system = _pinned_mode_system()
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G nu"),
            {"nu": Neq(Var("status"), Const("upgraded"))},
            name="never-upgraded",
        )
        result = Verifier(system, VerifierOptions()).verify(ltl_property)
        stats = result.stats.as_dict()
        assert stats.get("dataflow_services_skipped", 0) > 0
        off = Verifier(
            system, VerifierOptions(dataflow_pruning=False)
        ).verify(ltl_property)
        assert "dataflow_services_skipped" not in off.stats.as_dict()


class TestOptionsCompatibility:
    def test_default_canonical_dict_is_unchanged(self):
        """Fingerprint compatibility: the default serializes exactly as the
        earlier schemas did, or every persisted result of every earlier
        store would be orphaned."""
        assert VerifierOptions().as_dict() == {
            "state_pruning": True,
            "data_structure_support": True,
            "static_analysis": True,
            "monotone_pruning": True,
            "check_repeated_reachability": True,
            "use_artifact_relations": True,
            "max_states": 200_000,
            "timeout_seconds": None,
            "max_repeated_states": 100_000,
        }

    def test_retired_static_pruning_key_loads_as_the_default(self):
        """Stored option dicts and spec files from before the merge still
        load; the retired pre-search switch selects nothing any more."""
        assert "static_pruning" not in {f.name for f in fields(VerifierOptions)}
        assert VerifierOptions.from_dict({"static_pruning": False}) == VerifierOptions()
        assert VerifierOptions.from_dict(
            {"static_pruning": True, "max_states": 50}
        ) == VerifierOptions(max_states=50)

    def test_retired_static_pruning_key_is_still_known(self):
        """Older API clients that still send the key are not rejected."""
        assert "static_pruning" in VerifierOptions.known_keys()

    def test_dataflow_pruning_defaults_on_and_is_a_known_key(self):
        options = VerifierOptions()
        assert options.dataflow_pruning is True
        assert "dataflow_pruning" in VerifierOptions.known_keys()

    def test_dataflow_default_omitted_from_canonical_dict(self):
        """The default is omitted, so it serializes exactly as the older
        schemas did."""
        data = VerifierOptions().as_dict()
        assert "dataflow_pruning" not in data
        assert VerifierOptions.from_dict(data).dataflow_pruning is True

    def test_dataflow_disabled_value_round_trips(self):
        data = VerifierOptions(dataflow_pruning=False).as_dict()
        assert data["dataflow_pruning"] is False
        assert VerifierOptions.from_dict(data).dataflow_pruning is False


# ------------------------------------------------------------- differential


@pytest.mark.slow
def test_two_way_differential_over_benchmark_corpus():
    """Every corpus row (the rows of the search-count golden file):
    identical verdicts and search counters with dataflow_pruning on and off."""
    from search_golden import corpus_rows

    # The same bounded budget on both sides keeps unknowns deterministic:
    # the searches are identical modulo pruned dead work, so a budget
    # exhaustion hits at the same state count with the pass on or off.
    budget = dict(max_states=1500, max_repeated_states=1500, timeout_seconds=30)
    compared = 0
    for key, system, ltl_property in corpus_rows():
        pruned, unpruned = _verify_both_ways(system, ltl_property, **budget)
        _assert_parity(pruned, unpruned, key)
        compared += 1
    assert compared >= 20, "corpus unexpectedly small -- differential audit is hollow"
