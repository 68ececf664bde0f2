import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxarch.generate as generate_module
from taxarch.classify import aggregate, compute_stats
from taxarch.generate import MAX_COUNT, GenerationError, GeneratorParams, _below, _pairs, fixture, generate
from taxarch.ingest import serialize_bundle
from taxarch.model import validate_snapshot
from taxarch.resolve import resolution_summary, resolve_jurisdictions

from reference_generate import reference_below, reference_pairs


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
    "counts",
    [(MAX_COUNT + 1, 1), (1, MAX_COUNT + 1), (5_000_000_000, 5_000_000_000)],
    ids=["components", "teams", "both"],
)
def test_counts_above_one_word_are_refused(counts):
    with pytest.raises(GenerationError, match=f"at most {MAX_COUNT}"):
        GeneratorParams(*counts)


def test_counts_of_one_word_are_accepted():
    # Only the parameters: generating this many records is not attempted.
    assert GeneratorParams(MAX_COUNT, MAX_COUNT).component_count == MAX_COUNT


# Counts at each side of a power of two, where the shift and the rejection rate of a draw change.
EDGE_COUNTS = sorted({1, 2, 3, MAX_COUNT} | {c for j in range(2, 32) for c in (2**j - 1, 2**j, 2**j + 1)})


@st.composite
def count_and_target(draw):
    """A count n and a pair target up to n * (n - 1): the full capacity for n <= 12, else at most 300."""
    n = draw(st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(1, 12), st.integers(1, MAX_COUNT)))
    capacity = n * (n - 1)
    if n <= 12 and draw(st.booleans()):
        return n, capacity
    return n, draw(st.integers(0, min(capacity, 300)))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    drawn=count_and_target(),
    count=st.integers(0, 300),
    round_words=st.sampled_from([1, 2, 3, 5, 64, 65536]),
)
def test_bulk_draws_give_what_the_randrange_loops_give(seed, drawn, count, round_words):
    # A small round cap makes every draw span many rounds, each carrying its odd value into the next.
    n, target = drawn
    with mock.patch.object(generate_module, "_ROUND_WORDS", round_words):
        for helper, reference, wanted in ((_below, reference_below, count), (_pairs, reference_pairs, target)):
            bulk, single = random.Random(seed), random.Random(seed)
            assert helper(bulk, n, wanted) == reference(single, n, wanted)
            assert bulk.getstate() == single.getstate()


class _GivenWords(random.Random):
    """A generator that reads the given 32-bit words as getrandbits reads Mersenne Twister's, and logs each request."""

    def __init__(self, words):
        super().__init__()
        self.words, self.requests = iter(words), []

    def getrandbits(self, k):
        self.requests.append(k)
        if k <= 32:
            return next(self.words) >> (32 - k)
        return sum(next(self.words) << 32 * i for i in range(k // 32))


@pytest.mark.parametrize("n", [1, 2, 3, 300, 2**31, MAX_COUNT])
def test_bulk_draws_keep_exactly_the_words_below_the_limit(n):
    # The words at each side of n << (32 - k), which random words almost never hit; the rounds hold at most 2 words.
    limit = n << (32 - n.bit_length())
    words = [limit, limit - 1, 2**32 - 1, 0, limit, 0, limit - 1, 0x12345678, 0x9ABCDEF0]
    target = min(n * (n - 1), 2)
    with mock.patch.object(generate_module, "_ROUND_WORDS", 2):
        for helper, reference, wanted in ((_below, reference_below, 4), (_pairs, reference_pairs, target)):
            bulk, single = _GivenWords(words), _GivenWords(words)
            assert helper(bulk, n, wanted) == reference(single, n, wanted)
            assert next(bulk.words) == next(single.words)
            assert max(bulk.requests, default=0) <= 64


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
