"""Unit tests for instances: rows, labeled nulls, validation, generation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConstraintViolation, SchemaError
from repro.instances import (
    Instance,
    InstanceGenerator,
    LabeledNull,
    NullFactory,
    is_null,
    validate_instance,
    violations,
)
from repro.metamodel import INT, STRING, SchemaBuilder

from tests.test_metamodel_schema import person_hierarchy


def relational_schema():
    return (
        SchemaBuilder("DB", metamodel="relational")
        .entity("HR", key=["Id"]).attribute("Id", INT).attribute("Name", STRING)
        .entity("Empl", key=["Id"]).attribute("Id", INT).attribute("Dept", STRING)
        .foreign_key("Empl", ["Id"], "HR", ["Id"])
        .build()
    )


class TestLabeledNull:
    def test_equality_by_label(self):
        assert LabeledNull(1) == LabeledNull(1)
        assert LabeledNull(1) != LabeledNull(2)
        assert LabeledNull(1) != 1

    def test_hashable(self):
        assert len({LabeledNull(1), LabeledNull(1), LabeledNull(2)}) == 2

    def test_factory_is_fresh(self):
        factory = NullFactory()
        nulls = [factory.fresh() for _ in range(100)]
        assert len(set(nulls)) == 100

    def test_is_null(self):
        assert is_null(None)
        assert is_null(LabeledNull(3))
        assert not is_null(0)
        assert not is_null("")

    def test_sorts_after_constants(self):
        assert LabeledNull(1) > 99999
        assert not (LabeledNull(1) < 99999)


class TestInstanceBasics:
    def test_insert_and_rows(self):
        db = Instance()
        db.add("R", x=1, y="a")
        db.insert("R", {"x": 2, "y": "b"})
        assert db.cardinality("R") == 2
        assert db.rows("R")[0] == {"x": 1, "y": "a"}

    def test_missing_relation_is_empty(self):
        assert Instance().rows("nope") == []

    def test_bag_semantics_kept_but_set_equality(self):
        a, b = Instance(), Instance()
        a.add("R", x=1)
        a.add("R", x=1)
        b.add("R", x=1)
        assert a == b  # set semantics for comparison
        assert a.cardinality("R") == 2

    def test_deduplicated(self):
        db = Instance()
        db.add("R", x=1)
        db.add("R", x=1)
        assert db.deduplicated().cardinality("R") == 1

    def test_delete(self):
        db = Instance()
        db.add("R", x=1)
        db.add("R", x=2)
        removed = db.delete("R", lambda r: r["x"] == 1)
        assert len(removed) == 1
        assert db.rows("R") == [{"x": 2}]

    def test_delete_calls_the_predicate_once_per_row(self):
        db = Instance()
        db.insert_all("R", [{"x": i} for i in range(6)])
        calls = []

        def every_other(row):
            calls.append(row["x"])
            return len(calls) % 2 == 0  # stateful: 2nd, 4th, 6th call

        removed = db.delete("R", every_other)
        assert calls == [0, 1, 2, 3, 4, 5]
        assert [r["x"] for r in removed] == [1, 3, 5]
        assert [r["x"] for r in db.rows("R")] == [0, 2, 4]

    def test_delete_keeps_other_relations_caches(self):
        db = Instance()
        db.insert_all("R", [{"x": 1}, {"x": 2}])
        db.insert_all("S", [{"y": 1}, {"y": 2}])
        stats, batch = db.relation_stats("S"), db.column_batch("S")
        db.relation_stats("R")
        db.column_batch("R")
        before = dict(db.index_stats)
        db.delete("R", lambda r: r["x"] == 1)
        assert db.relation_stats("S") is stats
        assert db.column_batch("S") is batch
        assert db.relation_stats("R").rows == 1
        assert db.column_batch("R").to_rows() == [{"x": 2}]
        after = db.index_stats
        assert after["stats_rebuilds"] == before["stats_rebuilds"]
        assert after["rebuilds"] == before["rebuilds"]
        assert after["stats_retracts"] == before["stats_retracts"] + 1

    def test_delete_drops_an_emptied_relation(self):
        db = Instance()
        db.add("R", x=1)
        assert db.delete("R", lambda r: True) == [{"x": 1}]
        assert "R" not in db.relations
        assert db.delete("R", lambda r: True) == []

    def test_union_and_contains(self):
        a, b = Instance(), Instance()
        a.add("R", x=1)
        b.add("R", x=2)
        u = a.union(b)
        assert u.contains_instance(a) and u.contains_instance(b)
        assert not a.contains_instance(u)

    def test_copy_is_deep(self):
        a = Instance()
        row = a.add("R", x=1)
        b = a.copy()
        row["x"] = 99
        assert b.rows("R") == [{"x": 1}]

    def test_active_domain_and_nulls(self):
        db = Instance()
        null = LabeledNull(7)
        db.add("R", x=1, y=null, z=None)
        assert db.active_domain() == {1}
        assert db.nulls() == {null}

    def test_substitute(self):
        db = Instance()
        n1, n2 = LabeledNull(1), LabeledNull(2)
        db.add("R", x=n1, y=n2)
        out = db.substitute({n1: 42})
        assert out.rows("R") == [{"x": 42, "y": n2}]

    def test_without_null_rows(self):
        db = Instance()
        db.add("R", x=1)
        db.add("R", x=LabeledNull(1))
        certain = db.without_null_rows()
        assert certain.rows("R") == [{"x": 1}]

    def test_show_renders(self):
        db = Instance()
        db.add("R", x=1, y="a")
        text = db.show()
        assert "R (1 rows)" in text and "x | y" in text


class TestTypedExtents:
    def test_insert_object_goes_to_root_extent(self):
        db = Instance(person_hierarchy())
        db.insert_object("Employee", Id=1, Name="Ann", Dept="QA")
        db.insert_object("Person", Id=2, Name="Bob")
        assert db.cardinality("Person") == 2
        assert [r["$type"] for r in db.rows("Person")] == ["Employee", "Person"]

    def test_objects_of_polymorphic(self):
        db = Instance(person_hierarchy())
        db.insert_object("Employee", Id=1, Name="Ann", Dept="QA")
        db.insert_object("Customer", Id=2, Name="Bob", CreditScore=700,
                         BillingAddr="X")
        db.insert_object("Person", Id=3, Name="Eve")
        assert len(db.objects_of("Person")) == 3
        assert len(db.objects_of("Person", strict=True)) == 1
        assert len(db.objects_of("Employee")) == 1

    def test_insert_object_rejects_unknown_attribute(self):
        db = Instance(person_hierarchy())
        with pytest.raises(SchemaError):
            db.insert_object("Person", Id=1, Name="A", Bogus=2)

    def test_insert_object_requires_schema(self):
        with pytest.raises(SchemaError):
            Instance().insert_object("Person", Id=1)


class TestValidation:
    def test_valid_instance(self):
        schema = relational_schema()
        db = Instance(schema)
        db.add("HR", Id=1, Name="Ann")
        db.add("Empl", Id=1, Dept="QA")
        assert violations(db) == []
        validate_instance(db)

    def test_type_violation(self):
        db = Instance(relational_schema())
        db.add("HR", Id="not-an-int", Name="Ann")
        assert any("conform" in v for v in violations(db))

    def test_missing_required(self):
        db = Instance(relational_schema())
        db.add("HR", Id=1)
        assert any("missing required" in v for v in violations(db))

    def test_key_violation(self):
        db = Instance(relational_schema())
        db.add("HR", Id=1, Name="Ann")
        db.add("HR", Id=1, Name="Bob")
        assert any("key violation" in v for v in violations(db))

    def test_foreign_key_violation(self):
        db = Instance(relational_schema())
        db.add("Empl", Id=9, Dept="QA")
        assert any("inclusion violation" in v for v in violations(db))
        with pytest.raises(ConstraintViolation):
            validate_instance(db)

    def test_undeclared_relation(self):
        db = Instance(relational_schema())
        db.add("Ghost", x=1)
        assert any("not declared" in v for v in violations(db))

    def test_disjointness_violation(self):
        schema = person_hierarchy()
        db = Instance(schema)
        db.insert_object("Employee", Id=1, Name="A", Dept="QA")
        db.insert_object("Customer", Id=1, Name="A", CreditScore=1,
                         BillingAddr="x")
        assert any("disjointness" in v for v in violations(db))

    def test_nullable_attribute_accepts_none(self):
        schema = (
            SchemaBuilder("S", metamodel="relational")
            .entity("R", key=["Id"]).attribute("Id", INT)
            .attribute("Opt", STRING, nullable=True)
            .build()
        )
        db = Instance(schema)
        db.add("R", Id=1, Opt=None)
        assert violations(db) == []

    def test_labeled_nulls_pass_type_checks(self):
        db = Instance(relational_schema())
        db.add("HR", Id=1, Name=LabeledNull(1))
        assert violations(db) == []


class TestGenerator:
    def test_generated_instance_is_valid(self):
        schema = relational_schema()
        db = InstanceGenerator(schema, seed=1).generate(rows_per_entity=50)
        assert violations(db) == []
        assert db.cardinality("HR") == 50

    def test_deterministic(self):
        schema = relational_schema()
        a = InstanceGenerator(schema, seed=7).generate(30)
        b = InstanceGenerator(schema, seed=7).generate(30)
        assert a == b

    def test_different_seeds_differ(self):
        schema = relational_schema()
        a = InstanceGenerator(schema, seed=1).generate(30)
        b = InstanceGenerator(schema, seed=2).generate(30)
        assert a != b

    def test_per_entity_override(self):
        schema = relational_schema()
        db = InstanceGenerator(schema).generate(10, per_entity={"HR": 25})
        assert db.cardinality("HR") == 25
        assert db.cardinality("Empl") == 10

    def test_hierarchy_generation(self):
        schema = person_hierarchy()
        db = InstanceGenerator(schema, seed=3).generate(60)
        types = {r["$type"] for r in db.rows("Person")}
        assert types == {"Person", "Employee", "Customer"}
        assert violations(db) == []

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_generator_always_valid(self, n, seed):
        schema = relational_schema()
        db = InstanceGenerator(schema, seed=seed).generate(n)
        assert violations(db) == []
