"""Output checks.  Each returns a list of problems; an empty list means
the outputs are correct.  They run outside every timed region, and a
single problem makes the benchmark run fail."""

from __future__ import annotations

from collections import Counter
from itertools import chain

from repro.instances import Instance, LabeledNull, is_null
from repro.logic.homomorphism import instance_homomorphism
from repro.runtime.incremental import set_equal_modulo_nulls
from repro.operators import compose
from repro.runtime.executor import exchange


def _restrict(instance: Instance, relations, keep=None) -> Instance:
    result = Instance()
    for relation in relations:
        rows = instance.relations.get(relation, [])
        result.relations[relation] = [
            row for row in rows if keep is None or keep(relation, row)
        ]
    return result


def check_migrate(outputs: dict) -> list[str]:
    """The composed view answers every query exactly as the generator
    predicts, and the chased D′ equals the algebra-migrated D′."""
    problems = []
    truth: dict[str, set] = {}
    for name_row, address_row in zip(outputs["names"], outputs["addresses"]):
        truth.setdefault(name_row["Name"], set()).add(
            (address_row["Address"], address_row["Country"]))
    expected = {(name, address, country)
                for name, pairs in truth.items()
                for address, country in pairs}
    for first in [outputs["first"], *outputs["cold"]]:
        got = {(r["Name"], r["Address"], r["Country"]) for r in first}
        if len(first) != len(expected) or got != expected:
            problems.append(f"first query: {len(first)} rows, "
                            f"expected {len(expected)}")
    for name, rows in outputs["answers"]:
        pairs = {(r["Address"], r["Country"]) for r in rows}
        if len(rows) != len(truth.get(name, ())) or pairs != truth[name] or \
                any(r["Name"] != name for r in rows):
            problems.append(f"query Name={name!r}: {len(rows)} rows, "
                            f"expected {len(truth.get(name, ()))}")
    # The tgds cannot say Country ≠ 'US', so the chase copies every
    # address into Foreign: its non-US rows are the algebra's Foreign
    # and its US rows are exactly Local × {'US'}.
    chased, migrated = outputs["chased"], outputs["migrated"]
    relations = ("NamesP", "Local", "Foreign")
    left = _restrict(chased, relations,
                     lambda rel, row: rel != "Foreign"
                     or row["Country"] != "US")
    if not same_up_to_nulls(left, _restrict(migrated, relations)):
        problems.append("chased D′ differs from the algebra-migrated D′")
    us_foreign = {(r["SID"], r["Address"])
                  for r in chased.relations.get("Foreign", [])
                  if r["Country"] == "US"}
    local = {(r["SID"], r["Address"]) for r in migrated.relations["Local"]}
    if us_foreign != local:
        problems.append("chased Foreign's US rows differ from Local")
    us = sum(1 for r in outputs["addresses"] if r["Country"] == "US")
    firings = len(outputs["names"]) + us + len(outputs["addresses"])
    if outputs["steps"] != firings:
        problems.append(f"chase fired {outputs['steps']} times, "
                        f"expected {firings}")
    return problems


_NULL = object()   # stands in for every labeled null in a row shape


def _has_nulls(rows) -> bool:
    """Whether any value in ``rows`` is a null.  It looks at the
    distinct types of the values, which the interpreter collects
    without a Python call per value."""
    kinds = set(map(type, chain.from_iterable(map(dict.values, rows))))
    return any(kind is type(None) or issubclass(kind, LabeledNull)
               for kind in kinds)


def _shape(instance: Instance):
    """Per relation: the set of null-free rows, and how many rows with
    nulls have each shape (the row with every null blanked out).  None
    when some null occurs twice."""
    seen = set()
    shape = {}
    for relation, rows in instance.relations.items():
        blanked = Counter()
        if not _has_nulls(rows):
            plain = {tuple(sorted(row.items())) for row in rows}
        else:
            plain = set()
            for row in rows:
                key, has_null = [], False
                for name, value in sorted(row.items()):
                    if is_null(value):
                        if value in seen:
                            return None
                        seen.add(value)
                        key.append((name, _NULL))
                        has_null = True
                    else:
                        key.append((name, value))
                if has_null:
                    blanked[tuple(key)] += 1
                else:
                    plain.add(tuple(key))
        if plain or blanked:
            shape[relation] = (plain, blanked)
    return shape


def same_up_to_nulls(left: Instance, right: Instance) -> bool:
    """Equality up to a renaming of labeled nulls.

    When no null occurs twice in either instance, as in a chase whose
    existentials each fill one row, a renaming exists exactly when the
    two instances have the same null-free rows and the same number of
    rows of each blanked-out shape; that test is linear.  Otherwise the
    engine's ``set_equal_modulo_nulls`` decides.  Its row matcher does
    not finish in minutes on 10⁵ single-use nulls, hence the fast path.
    """
    left_shape, right_shape = _shape(left), _shape(right)
    if left_shape is not None and right_shape is not None:
        return left_shape == right_shape
    return set_equal_modulo_nulls(left, right)


def check_serve(maintained: Instance, recomputed: Instance) -> list[str]:
    """Incremental maintenance equals recomputation: the maintained C
    is the fresh chase of the final A up to null renaming."""
    if same_up_to_nulls(maintained, recomputed):
        return []
    sizes = {r: (len(maintained.relations.get(r, [])),
                 len(recomputed.relations.get(r, [])))
             for r in set(maintained.relations) | set(recomputed.relations)}
    return [f"maintained C differs from a fresh chase of A "
            f"(maintained, fresh rows: {sizes})"]


def emitted(mapping) -> int:
    """Dependencies a composition emitted: SO-tgd implications or
    first-order tgds."""
    if mapping.so_tgd is not None:
        return len(mapping.so_tgd.implications)
    return len(mapping.tgds)


def check_design(outputs: dict, top3_floor: float) -> list[str]:
    problems = []
    width = outputs["width"]
    produced = emitted(outputs["exponential"])
    if produced != 2 ** width:
        problems.append(f"exponential compose emitted {produced} "
                        f"dependencies, expected {2 ** width}")
    hit_rate = outputs["quality"].top_k_hit_rate
    if hit_rate < top3_floor:
        problems.append(f"match top-3 hit rate {hit_rate:.3f} below "
                        f"the floor {top3_floor}")
    if outputs["composed"].constraint_count() != outputs["relations"]:
        problems.append("linear chain composition is not one tgd per "
                        "relation")
    if len(outputs["inverse"].tgds) != outputs["relations"]:
        problems.append("quasi-inverse of the chain lost a tgd")
    if outputs["transformation"] is None:
        problems.append("TransGen produced nothing for Figure 2")
    diff = outputs["evolution"].artifacts["diff"]
    if "Foreign.Visa" not in diff.participating:
        problems.append("evolve_view_script missed Foreign.Visa")
    return problems


def _sample_source(mapping) -> Instance:
    """One row per source relation, every value a distinct constant."""
    instance = Instance(mapping.source)
    value = 0
    for name, entity in mapping.source.entities.items():
        row = {}
        for attribute in entity.all_attribute_names():
            row[attribute] = value
            value += 1
        instance.insert(name, row)
    return instance


def compose_agrees(m12, m23) -> bool:
    """Compose m12 ∘ m23 and check it against the two-step chase on a
    sample source, up to homomorphic equivalence."""
    source = _sample_source(m12)
    middle = exchange(m12, source)
    two_step = exchange(m23, middle)
    one_step = exchange(compose(m12, m23), source)
    return (instance_homomorphism(two_step, one_step) is not None
            and instance_homomorphism(one_step, two_step) is not None)
