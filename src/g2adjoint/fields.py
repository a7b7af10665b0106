"""The field rules of the orbit suite, with no numpy.

`verify orbits` and `verify all` refuse a (q, rho) the orbit suite cannot
run as a usage error, before any suite runs.  These rules live here, apart
from the numpy BFS in `orbits`, so that the CLI can apply them without
loading numpy; `orbits` reads the same cap and rules from this module.
"""

from __future__ import annotations

# bytes of one orbit bit map and all the step tables of a FieldSetup:
# q = 23 (426 MB of bits, 52 MB of tables) runs, q = 29 (2.1 GB) does not,
# and keys stay below 2^32.  A check holds at most two maps at once.  Read
# it as fields.ORBIT_CAP, so that patching it here takes effect everywhere
ORBIT_CAP = 2 ** 29


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def validate(q, rho):
    """Refuse a (q, rho) the orbit suite cannot run, before any BFS."""
    # every BFS allocates a bit map of q^7 bits; bounding it first refuses
    # a huge q before it is tested for primality
    if -(-q ** 7 // 8) > ORBIT_CAP:
        raise ValueError(
            f"the orbit map of V0 takes q^7 bits = {-(-q ** 7 // 8)} bytes "
            f"({q ** 7 / 2 ** 23:.0f} MB), over the cap of {ORBIT_CAP}"
        )
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q in (2, 3) or rho % q == 0:
        raise ValueError("need q coprime to 6*rho")
