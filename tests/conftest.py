import pytest

from linperm import field_ctx, oracle

EXHAUSTIVE_FIELDS = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 1, 3),
                     (5, 1, 2)]


@pytest.fixture(scope="session")
def f9():
    """GF(9) as GF(3)[t]/(t^2 + 1); enc(t) = 3."""
    return field_ctx(3, 1, 2)


@pytest.fixture(scope="session")
def f729():
    return field_ctx(3, 3, 2)


def sweep_contexts(cap):
    """Every context a sweep up to ``cap`` touches, lift targets included."""
    cfg = oracle.SweepConfig(max_field_order=cap)
    out = set()
    for p, e, n in oracle._grid(cfg):
        out.update((p, e * t, n)
                   for t in oracle._lift_factors(p, e, n, cap))
    return sorted(out)
