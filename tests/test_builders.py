import random
from collections import Counter

import numpy as np
import pytest

from tardyjobs import (
    Job,
    build_inverse_solution_vector,
    build_solution_vector_concave,
    build_solution_vector_dp,
    convolve_naive,
    minplus_convolve,
)
from tardyjobs.builders import step_concave_class_vector, step_convex_class_vector

from checks import is_sstep_concave, is_sstep_convex
from conftest import inverse_to_direct, job_classes


def group(specs, d):
    return [Job(id=i, p=p, w=w, d=d) for i, (p, w) in enumerate(specs)]


def random_group(rng, n_max=20, d_max=40, p_max=10, w_max=8):
    d = rng.randint(1, d_max)
    n = rng.randint(0, n_max)
    return group([(rng.randint(1, p_max), rng.randint(1, w_max)) for _ in range(n)], d), d


class TestDpBuilder:
    def test_single_item(self):
        assert build_solution_vector_dp(job_classes(group([(2, 3)], 3)), 3).tolist() == [0, 0, 3, 3]

    def test_two_items(self):
        assert build_solution_vector_dp(job_classes(group([(1, 1), (1, 2)], 2)), 2).tolist() == [0, 2, 3]

    def test_empty(self):
        assert build_solution_vector_dp((), 2).tolist() == [0, 0, 0]

    def test_negative_horizon_errors(self):
        with pytest.raises(ValueError):
            build_solution_vector_dp((), -1)

    def test_numpy_and_python_paths_agree(self):
        rng = random.Random(41)
        jobs, d = random_group(rng, n_max=60, d_max=200)
        # the reference knapsack reads no due dates: the builder gets the same jobs due at the horizon
        due_at_horizon = group([(j.p, j.w) for j in jobs], 200)
        big = build_solution_vector_dp(job_classes(due_at_horizon), 200)  # numpy path
        small = [0] * 201
        for job in jobs:  # reference 0/1 knapsack
            for k in range(200, job.p - 1, -1):
                small[k] = max(small[k], small[k - job.p] + job.w)
        assert big.tolist() == small


    def test_huge_weights_stay_exact(self):
        jobs = group([(1, 2**62)] * 3, 2000)
        want = [0, 2**62, 2**63, 3 * 2**62] + [3 * 2**62] * 1997
        assert build_solution_vector_dp(job_classes(jobs), 2000).tolist() == want


class TestConcaveBuilder:
    def test_single_class(self):
        jobs = group([(2, 5), (2, 1)], 4)
        assert step_concave_class_vector([5, 1], 2, 4).tolist() == [0, 0, 5, 5, 6]
        assert build_solution_vector_concave(job_classes(jobs), 4).tolist() == [0, 0, 5, 5, 6]

    def test_empty(self):
        assert build_solution_vector_concave((), 3).tolist() == [0, 0, 0, 0]

    def test_negative_horizon_errors(self):
        with pytest.raises(ValueError, match="horizon must be >= 0, got -1$"):
            step_concave_class_vector([5, 1], 2, -1)

    def test_class_vectors_are_step_concave(self):
        rng = random.Random(43)
        for _ in range(100):
            p = rng.randint(1, 9)
            ws = [rng.randint(1, 9) for _ in range(rng.randint(0, 8))]
            horizon = rng.randint(0, 50)
            assert is_sstep_concave(step_concave_class_vector(ws, p, horizon), p)

    def test_class_vector_matches_loop_reference(self):
        rng = random.Random(45)
        for _ in range(200):
            p = rng.randint(1, 9)
            ws = [rng.randint(1, 2**62) for _ in range(rng.randint(0, 8))]
            horizon = rng.randint(0, 50)
            ref, acc, taken = [0], 0, sorted(ws, reverse=True)
            for k in range(1, horizon + 1):
                if k % p == 0 and k // p <= len(taken):
                    acc += taken[k // p - 1]
                ref.append(acc)
            assert step_concave_class_vector(ws, p, horizon).tolist() == ref

    def test_weights_in_the_uint64_band_stay_exact(self):
        # numpy reads a list holding an int in [2**63, 2**64) as uint64, and
        # an object cumsum over it goes through float64
        got = step_concave_class_vector([2**63 + 1, 2**64 - 1], 2, 4).tolist()
        assert got == [0, 0, 2**64 - 1, 2**64 - 1, 2**64 + 2**63]

    def test_one_kernel_call_per_class(self, monkeypatch):
        import tardyjobs.builders as builders

        calls = []
        real = builders.convolve_sstep_concave
        monkeypatch.setattr(builders, "convolve_sstep_concave", lambda *a: calls.append(a) or real(*a))
        jobs = group([(1, 4), (2, 5), (2, 1), (3, 2)], 6)
        assert np.array_equal(
            build_solution_vector_concave(job_classes(jobs), 6),
            build_solution_vector_dp(job_classes(jobs), 6),
        )
        assert len(calls) == 3  # three processing-time classes, folded into the empty prefix
        single = job_classes(group([(2, 5), (2, 1)], 4))
        assert build_solution_vector_concave(single, 4).tolist() == [0, 0, 5, 5, 6]
        assert len(calls) == 4

    def test_acc_matches_naive_merge(self):
        rng = random.Random(49)
        for _ in range(150):
            jobs, d = random_group(rng)
            prefix, d0 = random_group(rng, d_max=d)
            acc = build_solution_vector_dp(job_classes(prefix), d0)
            want = convolve_naive(acc, build_solution_vector_dp(job_classes(jobs), d))
            assert np.array_equal(build_solution_vector_concave(job_classes(jobs), d, acc), want)
        assert build_solution_vector_concave((), 3, [0, 2]).tolist() == [0, 2, 2, 2]

    def test_classes_far_shorter_than_the_horizon(self, forced_structured_engines, monkeypatch):
        # every class vector stops at its reach c*p, far below the horizon;
        # the accumulator, the empty prefix or acc padded flat, spans it
        import tardyjobs.builders as builders

        lengths = []
        real = builders.convolve_sstep_concave
        monkeypatch.setattr(
            builders, "convolve_sstep_concave", lambda a, b, s: lengths.append(len(b)) or real(a, b, s)
        )
        rng = random.Random(53)
        for trial in range(40):
            d = rng.randint(200, 400)
            w_max = 2**60 if trial % 2 else 9
            specs = [(p, rng.randint(1, w_max)) for p in range(1, 13) for _ in range(rng.randint(1, 3))]
            jobs = group(specs, d)
            prefix = group([(rng.randint(1, 12), rng.randint(1, 9)) for _ in range(rng.randint(1, 6))], d)
            assert np.array_equal(
                build_solution_vector_concave(job_classes(jobs), d),
                build_solution_vector_dp(job_classes(jobs), d),
            )
            acc = build_solution_vector_dp(job_classes(prefix), d)
            want = build_solution_vector_dp(job_classes(prefix) + job_classes(jobs), d)
            assert np.array_equal(build_solution_vector_concave(job_classes(jobs), d, acc), want)
            d0 = rng.randint(1, d - 1)  # an acc shorter than the horizon is padded flat to it
            acc = build_solution_vector_dp(job_classes(prefix), d0)
            want = convolve_naive(acc, build_solution_vector_dp(job_classes(jobs), d))
            assert np.array_equal(build_solution_vector_concave(job_classes(jobs), d, acc), want)
        assert max(lengths) <= 3 * 12 + 1

    def test_classes_past_the_few_step_branch(self):
        # one group of 2000 jobs, p <= 5 and w <= 3: every class holds far
        # more than _FEW_STEPS jobs, and its rises form at most three runs
        from tardyjobs.maxplus import _FEW_STEPS

        rng = random.Random(59)
        jobs = group([(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2000)], 3000)
        assert min(Counter(job.p for job in jobs).values()) > _FEW_STEPS
        assert np.array_equal(
            build_solution_vector_concave(job_classes(jobs), 3000),
            build_solution_vector_dp(job_classes(jobs), 3000),
        )

    def test_matches_dp(self):
        rng = random.Random(47)
        for _ in range(200):
            jobs, d = random_group(rng)
            assert np.array_equal(
                build_solution_vector_concave(job_classes(jobs), d),
                build_solution_vector_dp(job_classes(jobs), d),
            )


class TestInverseBuilder:
    def test_single_job(self):
        assert build_inverse_solution_vector(job_classes(group([(2, 3)], 5))).tolist() == [0, 2, 2, 2]

    def test_two_unit_weights(self):
        assert build_inverse_solution_vector(job_classes(group([(1, 1), (4, 1)], 5))).tolist() == [0, 1, 5]

    def test_empty(self):
        assert build_inverse_solution_vector(()).tolist() == [0]

    def test_class_vectors_are_step_convex(self):
        rng = random.Random(53)
        for _ in range(100):
            w = rng.randint(1, 9)
            ps = [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
            assert is_sstep_convex(step_convex_class_vector(ps, w), w)

    def test_class_vector_matches_loop_reference(self):
        rng = random.Random(57)
        for _ in range(200):
            w = rng.randint(1, 9)
            ps = sorted(rng.randint(1, 2**62) for _ in range(rng.randint(0, 8)))
            ref = [0]
            for t in range(len(ps)):
                ref += [sum(ps[: t + 1])] * w
            assert step_convex_class_vector(ps[::-1], w).tolist() == ref

    def test_processing_times_in_the_uint64_band_stay_exact(self):
        got = step_convex_class_vector([2**63 + 1, 3], 2).tolist()
        assert got == [0, 3, 3, 2**63 + 4, 2**63 + 4]

    def test_acc_matches_minplus_merge(self):
        rng = random.Random(55)
        for _ in range(150):
            jobs, d = random_group(rng)
            prefix, d0 = random_group(rng)
            # a trimmed prefix, as the solvers pass it: the weight targets its due date reaches
            full = build_inverse_solution_vector(job_classes(prefix))
            acc = full[: np.count_nonzero(full <= d0)]
            want = minplus_convolve(acc, build_inverse_solution_vector(job_classes(jobs)))
            assert np.array_equal(build_inverse_solution_vector(job_classes(jobs), acc), want)
        assert build_inverse_solution_vector((), [0, 4]).tolist() == [0, 4]

    def test_horizon_is_group_weight(self):
        jobs = group([(1, 3), (2, 4)], 9)
        assert len(build_inverse_solution_vector(job_classes(jobs))) == 8


class TestInverseToDirect:
    def test_example(self):
        assert inverse_to_direct([0, 2, 2, 2], 3) == [0, 0, 3, 3]

    def test_trivial(self):
        assert inverse_to_direct([0], 4) == [0, 0, 0, 0, 0]

    def test_round_trip_matches_dp(self):
        rng = random.Random(59)
        for _ in range(200):
            jobs, d = random_group(rng)
            inv = build_inverse_solution_vector(job_classes(jobs))
            assert inverse_to_direct(inv, d) == build_solution_vector_dp(job_classes(jobs), d).tolist()


def test_three_builders_agree():
    rng = random.Random(61)
    for _ in range(300):
        jobs, d = random_group(rng, n_max=32, d_max=64)
        dp = build_solution_vector_dp(job_classes(jobs), d)
        assert np.array_equal(build_solution_vector_concave(job_classes(jobs), d), dp)
        assert inverse_to_direct(build_inverse_solution_vector(job_classes(jobs)), d) == dp.tolist()
