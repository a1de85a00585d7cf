import random

import pytest

from tardyjobs import (
    Instance,
    Job,
    brute_force,
    edd_feasible,
    generate_instance,
)

from checks import brute_force_vector
from conftest import brute_force_permutations, job_classes


def J(i, p, w, d):
    return Job(id=i, p=p, w=w, d=d)


class TestEddFeasible:
    def test_two_fitting_jobs(self):
        assert edd_feasible([J(0, 1, 1, 1), J(1, 1, 1, 2)])

    def test_single_overlong_job(self):
        assert not edd_feasible([J(0, 2, 1, 1)])

    def test_empty(self):
        assert edd_feasible([])

    def test_order_is_due_date_not_input(self):
        # feasible only when the d=2 job runs first
        assert edd_feasible([J(0, 2, 1, 4), J(1, 2, 1, 2)])


class TestBruteForce:
    def test_two_job_instance(self):
        inst = Instance((J(0, 2, 3, 2), J(1, 2, 5, 3)))
        res = brute_force(inst)
        assert res.min_tardy_weight == 3
        assert res.max_early_weight == 5
        assert res.early_set == (1,)

    def test_everything_fits(self):
        inst = Instance((J(0, 1, 4, 9), J(1, 2, 2, 9)))
        assert brute_force(inst).min_tardy_weight == 0

    def test_nothing_fits(self):
        inst = Instance((J(0, 5, 3, 2), J(1, 9, 4, 3)))
        res = brute_force(inst)
        assert res.min_tardy_weight == 7
        assert res.early_set == ()

    def test_cap(self):
        # one shared due date of 1 lets only one job be early, so pruning keeps the search small
        inst = Instance(tuple(J(i, 1, 1, 1) for i in range(25)))
        with pytest.raises(ValueError, match="cap"):
            brute_force(inst)
        assert brute_force(inst, cap=25).min_tardy_weight == 24

    def test_result_set_is_consistent(self):
        rng = random.Random(67)
        for trial in range(100):
            n = rng.randint(1, 10)
            inst = generate_instance(seed=trial, n=n, d_hash=rng.randint(1, n), d_max=20)
            res = brute_force(inst)
            by_id = {j.id: j for j in inst.jobs}
            chosen = [by_id[i] for i in res.early_set]
            assert sum(j.w for j in chosen) == res.max_early_weight
            assert edd_feasible(chosen)
            assert res.min_tardy_weight + res.max_early_weight == inst.w_total


class TestBruteForceVector:
    def test_single_job(self):
        assert brute_force_vector([J(0, 2, 3, 3)], 3) == [0, 0, 3, 3]

    def test_matches_dp_builder_on_groups(self):
        from tardyjobs import build_solution_vector_dp

        rng = random.Random(71)
        for _ in range(100):
            d = rng.randint(1, 25)
            jobs = [J(i, rng.randint(1, 8), rng.randint(1, 8), d) for i in range(rng.randint(0, 10))]
            assert brute_force_vector(jobs, d) == build_solution_vector_dp(job_classes(jobs), d).tolist()

    def test_monotone_zero_origin(self):
        rng = random.Random(73)
        jobs = [J(i, rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 15)) for i in range(8)]
        v = brute_force_vector(jobs, 15)
        assert v[0] == 0
        assert all(v[k] <= v[k + 1] for k in range(len(v) - 1))


class TestPermutationOracle:
    def test_matches_edd_restricted_enumeration(self):
        rng = random.Random(79)
        for trial in range(60):
            n = rng.randint(1, 7)
            d_max = rng.randint(1, 14)
            inst = generate_instance(
                seed=trial + 100, n=n, d_hash=rng.randint(1, min(n, d_max)),
                d_max=d_max, p_max=6, w_max=6,
            )
            assert (
                brute_force_permutations(inst).max_early_weight
                == brute_force(inst).max_early_weight
            )

    def test_cap(self):
        inst = Instance(tuple(J(i, 1, 1, 20) for i in range(9)))
        with pytest.raises(ValueError, match="cap"):
            brute_force_permutations(inst)
