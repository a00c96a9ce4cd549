import pytest

from htaplite.bench import BenchConfig, build_database, load_initial_data

from oracles import engine_state, reference_load


@pytest.mark.parametrize("scale", [1.0, 3.7])
@pytest.mark.parametrize("seed", [7, 42])
def test_loader_matches_row_by_row_reference(scale, seed):
    # divisor 1000: 6,001 and 22,204 order lines, so the orderline
    # columns cross chunk boundaries
    cfg = BenchConfig(scale_factor=scale, divisor=1_000, seed=seed)
    got = load_initial_data(build_database(cfg), cfg)
    want = reference_load(build_database(cfg), cfg)
    assert engine_state(got) == engine_state(want)
