import numpy as np
import pytest
from reference import id_pairs, items_of

from crossrec.errors import ConfigError, InfeasibleDensity
from crossrec.synth import generate_synthetic


def test_full_overlap_and_exact_interaction_counts():
    source, target = generate_synthetic(
        n_users=50, n_source_items=100, n_target_items=80, k_true=4,
        overlap_fraction=1.0, density=0.05, seed=0)
    # every user appears in both domains
    assert set(source.user_ids) == set(target.user_ids)
    assert source.n_users == 50
    # density 0.05: 5 source items and 4 target items per user
    assert all(d == 5 for d in source.user_degrees())
    assert all(d == 4 for d in target.user_degrees())
    assert source.n_interactions == 250
    assert target.n_interactions == 200


def test_partial_overlap_splits_the_rest():
    source, target = generate_synthetic(
        n_users=40, n_source_items=60, n_target_items=60, k_true=3,
        overlap_fraction=0.5, density=0.1, seed=1)
    shared = set(source.user_ids) & set(target.user_ids)
    assert len(shared) == 20
    assert source.n_users == 30  # 20 shared + 10 source-only
    assert target.n_users == 30


def test_generator_is_deterministic():
    a = generate_synthetic(30, 40, 40, 4, 0.5, 0.1, seed=7)
    b = generate_synthetic(30, 40, 40, 4, 0.5, 0.1, seed=7)
    assert set(id_pairs(a[0])) == set(id_pairs(b[0]))
    assert set(id_pairs(a[1])) == set(id_pairs(b[1]))
    c = generate_synthetic(30, 40, 40, 4, 0.5, 0.1, seed=8)
    assert set(id_pairs(a[0])) != set(id_pairs(c[0]))


def test_shared_taste_makes_domains_correlated():
    # users sharing a taste vector should pick similar item neighborhoods;
    # check that two users with identical source histories have much more
    # similar target histories than two users with disjoint source ones
    source, target = generate_synthetic(
        n_users=200, n_source_items=300, n_target_items=300, k_true=2,
        overlap_fraction=1.0, density=0.05, seed=3)
    users = list(source.user_ids)
    sims = []
    for a in users[:40]:
        for b in users[1:41]:
            if a >= b:
                continue
            s = len(set(items_of(source, a)) & set(items_of(source, b)))
            t = len(set(items_of(target, a)) & set(items_of(target, b)))
            sims.append((s, t))
    high_src = [t for s, t in sims if s >= 10]
    low_src = [t for s, t in sims if s == 0]
    assert high_src and low_src
    assert np.mean(high_src) > np.mean(low_src)


def test_parameter_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(0, 10, 10, 2, 1.0, 0.1, 0)
    with pytest.raises(ConfigError):
        generate_synthetic(10, 10, 10, 2, 0.0, 0.1, 0)
    with pytest.raises(ConfigError):
        generate_synthetic(10, 10, 10, 2, 1.5, 0.1, 0)
    with pytest.raises(ConfigError):
        generate_synthetic(10, 10, 10, 2, 1.0, 1.0, 0)
    with pytest.raises(InfeasibleDensity):
        generate_synthetic(10, 100, 100, 2, 1.0, 0.001, 0)
