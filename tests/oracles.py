"""Slow oracles shared by the test modules."""


def arrangements_oracle(values):
    """The rotations of the tuple, then those of its mirror, listed by hand
    rather than by words._arrangements, the kernel these oracles check."""
    mirror = tuple(reversed(values))
    return ([values[r:] + values[:r] for r in range(len(values))]
            + [mirror[r:] + mirror[:r] for r in range(len(values))])
