import dataclasses
import random

import numpy as np
import pytest

import tardyjobs.core
from tardyjobs import Instance, Job, SolverPolicy, generate_instance, group_by_due_date, solve

from checks import validate_solution_vector


def J(i, p, w, d):
    return Job(id=i, p=p, w=w, d=d)


class TestJob:
    def test_valid(self):
        job = J(0, 2, 3, 2)
        assert (job.p, job.w, job.d) == (2, 3, 2)

    @pytest.mark.parametrize("field,value", [("p", 0), ("w", 0), ("d", 0), ("p", -3)])
    def test_rejects_nonpositive(self, field, value):
        kwargs = {"id": 0, "p": 1, "w": 1, "d": 1, field: value}
        with pytest.raises(ValueError):
            Job(**kwargs)

    @pytest.mark.parametrize("value", ["a", None, 1.0, True, (1,)])
    def test_rejects_non_integer_id(self, value):
        with pytest.raises(ValueError, match="id"):
            Job(id=value, p=1, w=1, d=1)

    def test_p_greater_than_d_allowed(self):
        J(0, 5, 1, 2)  # never early, but a legal job


class TestInstance:
    def test_derived_stats(self):
        inst = Instance((J(0, 2, 3, 5), J(1, 4, 1, 5), J(2, 1, 7, 9)))
        assert inst.n == 3
        assert inst.d_max == 9
        assert inst.d_hash == 2
        assert inst.p_max == 4
        assert inst.w_max == 7
        assert inst.w_total == 11
        assert inst.d_hash <= min(inst.n, inst.d_max)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Instance(())

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Instance((J(0, 1, 1, 1), J(0, 2, 2, 2)))


class TestClassTable:
    def test_classes_in_due_date_then_pw_order(self):
        inst = Instance((J(0, 2, 1, 5), J(1, 1, 3, 5), J(2, 2, 1, 5), J(3, 4, 4, 2)))
        assert inst.classes == (((2, 4, 4), 1), ((5, 1, 3), 1), ((5, 2, 1), 2))

    def test_summaries_match_their_job_level_definitions(self):
        rng = random.Random(29)

        def jobs(n, values, dates):
            return [J(i, rng.choice(values), rng.choice(values), rng.choice(dates)) for i in range(n)]

        small = range(1, 51)
        shapes = [jobs(rng.randint(1, 40), small, [rng.randint(1, 50) for _ in range(rng.randint(1, 8))]) for _ in range(30)]
        shapes += [jobs(300, range(1, 4), range(1, 4)) for _ in range(3)]  # duplicate-heavy
        shapes += [jobs(300, range(1, 4), [10**6, 2 * 10**6]) for _ in range(3)]  # and a slack horizon
        shapes += [jobs(rng.randint(1, 40), small, [rng.randint(1, 50)]) for _ in range(5)]  # one due date
        shapes.append([J(i, i + 1, 60 - i, 2 * i + 1) for i in range(60)])  # all distinct
        for base in (2**52, 2**63, 2**64):
            near = range(base - 3, base + 4)
            shapes += [jobs(rng.randint(1, 20), near, near) for _ in range(5)]
            shapes += [jobs(rng.randint(1, 20), small, near), jobs(rng.randint(1, 20), near, small)]
        for shape in shapes:
            rng.shuffle(shape)
            inst = Instance(tuple(shape))
            assert inst.n == len(shape)
            assert inst.d_max == max(j.d for j in shape)
            assert inst.d_hash == len({j.d for j in shape})
            assert inst.p_max == max(j.p for j in shape)
            assert inst.w_max == max(j.w for j in shape)
            assert inst.w_total == sum(j.w for j in shape)
            assert inst.horizon == min(inst.d_max, sum(j.p for j in shape))
            assert sum(c for _, c in inst.classes) == inst.n

    def test_built_once_across_solves(self, monkeypatch):
        builds = []
        real_counter = tardyjobs.core.Counter

        def counting(*args):
            builds.append(1)
            return real_counter(*args)

        monkeypatch.setattr(tardyjobs.core, "Counter", counting)
        inst = Instance(tuple(J(i, 1 + i % 3, 1 + i % 4, 5 + i % 2) for i in range(30)))
        answers = {
            solve(inst).min_tardy_weight,
            solve(inst, SolverPolicy.LAWLER_MOORE).min_tardy_weight,
            solve(inst, SolverPolicy.LAWLER_MOORE, reconstruct=True).min_tardy_weight,
        }
        assert len(answers) == 1
        assert len(builds) == 1

    def test_cache_leaves_equality_and_hash_alone(self):
        jobs = (J(0, 1, 2, 3), J(1, 2, 2, 3))
        a, b = Instance(jobs), Instance(jobs)
        assert a == b and hash(a) == hash(b)

    def test_replace_gets_its_own_table(self):
        inst = Instance((J(0, 1, 2, 3),))
        assert inst.classes == (((3, 1, 2), 1),)
        other = dataclasses.replace(inst, jobs=(J(0, 1, 2, 3), J(1, 4, 5, 6)))
        assert other.classes == (((3, 1, 2), 1), ((6, 4, 5), 1))
        assert inst.classes == (((3, 1, 2), 1),)


class TestGroupByDueDate:
    @staticmethod
    def check(inst):
        """The slices concatenate to the class table, each holds the classes
        of one due date, and the due dates ascend."""
        pairs = group_by_due_date(inst)
        assert sum((grp for _, grp in pairs), ()) == inst.classes
        assert len(pairs) == inst.d_hash
        for date, grp in pairs:
            assert grp and all(d == date for (d, _, _), _ in grp)
        dates = [date for date, _ in pairs]
        assert dates == sorted(set(dates))
        return pairs

    def test_mixed_dates(self):
        inst = Instance((J(0, 1, 1, 3), J(1, 1, 1, 1), J(2, 1, 1, 3)))
        assert self.check(inst) == ((1, (((1, 1, 1), 1),)), (3, (((3, 1, 1), 2),)))

    def test_single_date(self):
        inst = Instance(tuple(J(i, 1 + i % 2, 1, 4) for i in range(5)))
        assert self.check(inst) == ((4, inst.classes),)

    def test_all_distinct(self):
        inst = Instance(tuple(J(i, 1, 1, i + 1) for i in range(6)))
        assert self.check(inst) == tuple((d, (((d, 1, 1), 1),)) for d in range(1, 7))

    def test_partition(self):
        for seed in range(20):
            self.check(generate_instance(seed=seed, n=40, d_hash=1 + seed % 8, d_max=60, p_max=4, w_max=3))


class TestValidateSolutionVector:
    def test_valid(self):
        assert validate_solution_vector([0, 2, 5]) == []

    def test_nonzero_origin(self):
        assert validate_solution_vector([1, 2]) == ["nonzero-origin"]

    def test_non_monotone(self):
        assert validate_solution_vector([0, 3, 2]) == ["non-monotone at 2"]

    def test_empty(self):
        assert validate_solution_vector([]) == ["empty vector"]


class TestJobChecks:
    """The plain-int fast path leaves every other outcome of the checks as it was."""

    def test_int_subclass_accepted(self):
        class Weight(int):
            pass

        job = Job(id=Weight(0), p=Weight(2), w=Weight(3), d=Weight(4))
        assert (job.id, job.p, job.w, job.d) == (0, 2, 3, 4)

    @pytest.mark.parametrize("field", ["p", "w", "d"])
    @pytest.mark.parametrize("value", [True, False, 1.0, np.int64(3), 0, -1, -(2**70)])
    def test_field_rejected_with_message(self, field, value):
        kwargs = {"id": 7, "p": 1, "w": 1, "d": 1, field: value}
        with pytest.raises(ValueError) as err:
            Job(**kwargs)
        assert str(err.value) == f"job 7: {field} must be a positive integer, got {value!r}"

    @pytest.mark.parametrize("value", [True, 2.0, np.int64(1)])
    def test_id_rejected_with_message(self, value):
        with pytest.raises(ValueError) as err:
            Job(id=value, p=1, w=1, d=1)
        assert str(err.value) == f"job id must be an integer, got {value!r}"
