"""The generator's stream: the batch draw against the sequential one, and
instances pinned as literals."""

import numpy as np
import pytest

from tardyjobs import generate_instance
from tardyjobs.generate import SplitMix64


class TestBatchDraw:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("k", [0, 1, 1000])
    def test_equals_sequential_draws(self, seed, k):
        one, batch = SplitMix64(seed), SplitMix64(seed)
        want = [one.next_u64() for _ in range(k)]
        got = batch.next_u64s(k)
        assert got.dtype == np.uint64 and got.tolist() == want
        assert batch.state == one.state
        assert batch.next_u64() == one.next_u64()  # the stream goes on where the calls left it

    def test_reference_outputs(self):
        # SplitMix64's published first outputs at seed 0
        assert SplitMix64(0).next_u64s(3).tolist() == [16294208416658607535, 7960286522194355700, 487617019471545679]


class TestPinnedInstances:
    """Job tuples (id, p, w, d) as the sequential generator drew them."""

    @staticmethod
    def _tuples(instance):
        return [(j.id, j.p, j.w, j.d) for j in instance.jobs]

    def test_uniform(self):
        inst = generate_instance(seed=3, n=6, d_hash=2, d_max=30, p_max=9, w_max=7)
        want = [(0, 4, 1, 4), (1, 1, 2, 22), (2, 4, 1, 4), (3, 7, 3, 22), (4, 2, 2, 4), (5, 7, 1, 22)]
        assert self._tuples(inst) == want

    def test_subset_sum_past_64_bits(self):
        # p_max = 2**65: each p is 1 + the output itself; w = min(p, 2**63) clips job 3
        shape = dict(n=6, d_hash=3, d_max=40, p_max=2**65, w_max=2**63, distribution="subset-sum")
        inst = generate_instance(seed=5, **shape)
        assert self._tuples(inst) == [
            (0, 1832488697174800710, 1832488697174800710, 19),
            (1, 3467252261107883462, 3467252261107883462, 24),
            (2, 7020995479949754437, 7020995479949754437, 25),
            (3, 18180438093026040610, 9223372036854775808, 19),
            (4, 7866638711627835881, 7866638711627835881, 25),
            (5, 8309798722296661672, 8309798722296661672, 24),
        ]

    def test_jobs_share_due_date_objects(self):
        inst = generate_instance(seed=1, n=50, d_hash=3, d_max=2**70)
        assert len({id(j.d) for j in inst.jobs}) == 3
