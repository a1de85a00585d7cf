"""Differential property test at the numeric edges of p, w and d.

Seeded instances of at most 7 jobs whose fields sit either in 1..12 or
within 3 of 2^52, 2^53, 2^63, 2^64 or 2^100: the float64/object switch,
int64's and uint64's ends, and far past them.  Every policy and AUTO, with
and without a witness, must return the brute-force optimum or raise
``MemoryError``.  A table a solve cannot allocate has at least 2^52 - 3
entries here, past any address space, so each such solve fails at once.
"""

from tardyjobs import Instance, Job, SolverPolicy, brute_force, edd_feasible, solve
from tardyjobs.generate import SplitMix64

EDGES = (2**52, 2**53, 2**63, 2**64, 2**100)
INSTANCES = 1500


def _value(rng: SplitMix64, edgy: bool) -> int:
    if not edgy or rng.next_u64() % 2:
        return 1 + rng.next_u64() % 12
    return EDGES[rng.next_u64() % len(EDGES)] + rng.next_u64() % 7 - 3


def _instances(seed: int):
    """INSTANCES instances; each of p, w and d takes edge values in half of them."""
    rng = SplitMix64(seed)
    for _ in range(INSTANCES):
        n = 1 + rng.next_u64() % 7
        p_edgy, w_edgy, d_edgy = (rng.next_u64() % 2 == 1 for _ in range(3))
        yield Instance(
            tuple(Job(i, _value(rng, p_edgy), _value(rng, w_edgy), _value(rng, d_edgy)) for i in range(n))
        )


def test_optimum_or_memory_error_at_edge_magnitudes():
    answered = refused = 0
    for instance in _instances(2026):
        want = brute_force(instance).max_early_weight
        by_id = {j.id: j for j in instance.jobs}
        for policy in SolverPolicy:
            for reconstruct in (False, True):
                try:
                    res = solve(instance, policy, reconstruct=reconstruct)
                except MemoryError:
                    refused += 1
                    continue
                answered += 1
                case = (instance, policy, reconstruct)
                assert res.max_early_weight == want, case
                assert res.min_tardy_weight == instance.w_total - want, case
                if reconstruct:
                    chosen = [by_id[i] for i in res.early_set]
                    assert len(set(res.early_set)) == len(chosen), case
                    assert sum(j.w for j in chosen) == want and edd_feasible(chosen), case
    assert answered + refused == INSTANCES * len(SolverPolicy) * 2
    assert answered > 3 * refused  # most solves give an answer to check
