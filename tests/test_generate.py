import math

import pytest

from taxarch.classify import aggregate, compute_stats
from taxarch.generate import GenerationError, GeneratorParams, fixture, generate
from taxarch.ingest import serialize_bundle
from taxarch.model import validate_snapshot
from taxarch.resolve import resolution_summary, resolve_jurisdictions


def test_same_seed_gives_byte_identical_bundles():
    params = GeneratorParams(component_count=50, team_count=8, seed=42, unresolved_rate=0.3)
    assert serialize_bundle(generate(params)) == serialize_bundle(generate(params))


def test_different_seeds_differ():
    a = GeneratorParams(component_count=50, team_count=8, seed=1)
    b = GeneratorParams(component_count=50, team_count=8, seed=2)
    assert serialize_bundle(generate(a)) != serialize_bundle(generate(b))


@pytest.mark.parametrize("seed", range(10))
def test_generated_snapshots_validate(seed):
    snapshot = generate(
        GeneratorParams(component_count=30, team_count=5, seed=seed, unresolved_rate=0.4, dependency_density=3)
    )
    assert validate_snapshot(snapshot).status == "ok"


def test_counts_match_params():
    params = GeneratorParams(component_count=120, team_count=17, seed=3, dependency_density=4)
    snapshot = generate(params)
    assert len(snapshot.components) == 120
    assert len(snapshot.owners) == 17
    assert len(snapshot.ownership) == 120
    assert len(snapshot.dependencies) == 480


def test_zero_unresolved_rate_resolves_everything():
    snapshot = generate(GeneratorParams(component_count=20, team_count=6, seed=9, unresolved_rate=0.0))
    summary = resolution_summary(resolve_jurisdictions(list(snapshot.owners)))
    assert summary.unresolved_count == 0


def test_unresolved_rate_converges():
    params = GeneratorParams(component_count=1000, team_count=1000, seed=0, unresolved_rate=0.42, dependency_density=0)
    snapshot = generate(params)
    summary = resolution_summary(resolve_jurisdictions(list(snapshot.owners)))
    assert abs(summary.unresolved_ratio - 0.42) <= 0.05


def test_infeasible_density_rejected():
    with pytest.raises(GenerationError):
        generate(GeneratorParams(component_count=3, team_count=1, dependency_density=10))


def test_invalid_params_rejected():
    with pytest.raises(GenerationError):
        GeneratorParams(component_count=0, team_count=1)
    with pytest.raises(GenerationError):
        GeneratorParams(component_count=1, team_count=1, unresolved_rate=1.5)
    with pytest.raises(GenerationError):
        GeneratorParams(component_count=1, team_count=1, jurisdiction_weights=(("SWE", 0.4),))
    with pytest.raises(GenerationError):
        GeneratorParams(component_count=1, team_count=1, jurisdiction_weights=(("swe", 1.0),))


@pytest.mark.parametrize(
    "bad",
    [
        {"dependency_density": math.inf},
        {"dependency_density": 1e308},
        {"dependency_density": math.nan},
        {"jurisdiction_weights": (("DEU", math.nan), ("FRA", math.nan))},
        {"jurisdiction_weights": (("DEU", 1.5), ("FRA", -0.5))},
    ],
    ids=["density-inf", "density-1e308", "density-nan", "weights-nan", "weights-outside-0-1"],
)
def test_non_finite_or_out_of_range_params_rejected(bad):
    with pytest.raises(GenerationError):
        generate(GeneratorParams(component_count=5, team_count=2, **bad))


def test_case_study_scale_params():
    params = GeneratorParams(
        component_count=2518, team_count=336, seed=7, unresolved_rate=0.42, dependency_density=16533 / 2518
    )
    snapshot = generate(params)
    assert len(snapshot.components) == 2518
    assert len(snapshot.owners) == 336
    assert abs(len(snapshot.dependencies) - 16533) <= 1


def test_devnullsoft_fixture_shape():
    snapshot = fixture("devnullsoft")
    assert len(snapshot.components) == 18
    assert len(snapshot.dependencies) == 17
    assert len(snapshot.owners) == 6


def test_casestudy_fixture_cells():
    matrix = fixture("casestudy_matrix")
    assert matrix.as_dict().get(("FRA", "FRA")) == 4069
    assert matrix.as_dict().get(("UNKNOWN", "UNKNOWN")) == 2171
    assert matrix.total() == 16533


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        fixture("nonesuch")


def test_generated_matrix_conserves_totals():
    snapshot = generate(GeneratorParams(component_count=80, team_count=9, seed=11, unresolved_rate=0.25, dependency_density=3))
    matrix = aggregate(snapshot, snapshot.owner_of(), resolve_jurisdictions(list(snapshot.owners)))
    stats = compute_stats(matrix)
    assert matrix.total() == sum(e.multiplicity for e in snapshot.dependencies)
    assert stats.domestic_count + stats.cross_border_count + stats.unresolved_count == stats.total_uses
