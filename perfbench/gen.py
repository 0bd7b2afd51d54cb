"""Seeded inputs shared by every workload.

Every input is built so that its expected outcome follows from how it
was made or from a theorem of the paper, never from an earlier output of
the code under test:

- an entry p**v * (u + p*w*sqrt(mu)) with u a unit has magnitude p**-v;
- a block whose (1,1) entry is such a unit has norm exactly 1;
- a conjugate-symmetric block is self-adjoint;
- a butterfly of two-index rotations is unitary, every entry of the
  product being one signed path product (so U*U = Id holds exactly);
- p**-1 times a unitary is neither unitary nor inner-product preserving;
- U diag(w) U* with Z_p weights w summing to 1 (one of them a unit) is a
  density operator, and the rotated projections U|e_i><e_i|U* pair with
  it to exactly the weights w.

Library objects are reached through module attributes at call time, so a
traced run sees every construction call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# (p, mu, precision): unramified p = 3 mod 4, ramified 2-adic, unramified
# with a short precision, and ramified p = 1 mod 4 with a long precision.
CONTEXTS = ((3, 5, 20), (2, 3, 20), (7, 3, 8), (5, 5, 40))

# Pell solutions a**2 - mu*y**2 = 1 for the contexts where 2 is not a norm
# (so the library has no two-index rotation): [[a, y*sqrt(mu)],
# [y*sqrt(mu), a]] is then unitary and stands in for the rotation.
PELL = {(2, 3): (2, 1), (5, 5): (9, 4)}

# Paper invariants of the four contexts: square-class label of mu, whether
# the extension is ramified, and its isotropy index.
FIELD_FACTS = {
    (3, 5): (2, False, 2),
    (2, 3): (3, True, 3),
    (7, 3): (3, False, 2),
    (5, 5): (5, True, 2),
}


def make_context(pq, p: int, mu: int, prec: int):
    base = pq.padic.PadicContext(p, prec)
    return pq.quadext.ExtensionContext(base, base.from_int(mu))


@dataclass
class Density:
    """U diag(w) U*, the rotated projective SOVM and the weights w."""

    unitary: object
    state: object
    effects: list
    weights: list[Fraction]


class Gen:
    """All random choices of one run, drawn from one seeded generator."""

    def __init__(self, pq, seed: int) -> None:
        self.pq = pq
        self.rng = random.Random(seed)
        self.contexts = [make_context(pq, *c) for c in CONTEXTS]

    # -- scalars ------------------------------------------------------------

    def _unit(self, base) -> int:
        u = self.rng.randrange(1, base.modulus)
        while u % base.p == 0:
            u += 1
        return u

    def padic(self, base, v: int):
        return self.pq.padic.PadicNumber(base, v, self._unit(base), base.precision)

    def entry(self, E, v: int, real: bool = False):
        """An element of magnitude exactly p**-v."""
        base = E.base
        ac = base.zero() if real else self.padic(base, v + 1 + self.rng.randrange(2))
        return self.pq.quadext.QuadExtElement(E, self.padic(base, v), ac)

    def small_entry(self, E):
        """An integral element: magnitude at most 1, often less."""
        return self.entry(E, self.rng.randrange(3))

    # -- blocks -------------------------------------------------------------

    def block(self, E, d: int):
        """Dense block of norm 1 that is not self-adjoint (d >= 2)."""
        rows = [[self.small_entry(E) for _ in range(d)] for _ in range(d)]
        rows[0][0] = self.entry(E, 0)
        if d >= 2:  # |A_12| = 1 != |A_21| = p**-1
            rows[0][1] = self.entry(E, 0)
            rows[1][0] = self.entry(E, 1)
        return self.pq.operators.BlockOperator(E, rows)

    def hermitian(self, E, d: int):
        """Dense self-adjoint block of norm 1."""
        rows = [[None] * d for _ in range(d)]
        for m in range(d):
            rows[m][m] = self.entry(E, 0 if m == 0 else self.rng.randrange(3), real=True)
            for n in range(m + 1, d):
                z = self.small_entry(E)
                rows[m][n] = z
                rows[n][m] = z.conj()
        return self.pq.operators.BlockOperator(E, rows)

    def _stage(self, E, d: int, dist: int):
        """Disjoint two-index unitary on the pairs (i, i + dist) of each
        2*dist window, identity on indices left without a partner."""
        pairs = [
            (i, i + dist)
            for start in range(1, d + 1, 2 * dist)
            for i in range(start, start + dist)
            if i + dist <= d
        ]
        ops = self.pq.operators
        key = (E.p, E.mu.unit * E.p**E.mu.valuation)
        if key not in PELL:
            return ops.from_rotation(self.pq.hilbert.rotation_on_pairs(E, pairs), d)
        a, y = PELL[key]
        z = E.zero()
        diag = E.from_ints(a, 0)
        off = E.from_ints(0, y)
        rows = [[E.one() if m == n else z for n in range(d)] for m in range(d)]
        for i, j in pairs:
            rows[i - 1][i - 1] = rows[j - 1][j - 1] = diag
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = off
        return ops.BlockOperator(E, rows)

    def unitary(self, E, d: int):
        """Butterfly of rotation stages on the leading power-of-two block,
        identity beyond it."""
        span = 1
        while span * 2 <= d:
            span *= 2
        u = None
        dist = 1
        while dist < span:
            stage = self._stage(E, d, dist) if span == d else self._padded(E, d, span, dist)
            u = stage if u is None else u * stage
            dist *= 2
        return u if u is not None else self.pq.operators.identity(E, d)

    def _padded(self, E, d: int, span: int, dist: int):
        inner = self._stage(E, span, dist)
        z = E.zero()
        rows = [
            [
                inner.rows[m][n] if m < span and n < span else (E.one() if m == n else z)
                for n in range(d)
            ]
            for m in range(d)
        ]
        return self.pq.operators.BlockOperator(E, rows)

    def inflated(self, E, u):
        """p**-1 * U: norm p, U*U = p**-2 Id."""
        base = E.base
        inv_p = self.pq.padic.PadicNumber(base, -1, 1, base.precision)
        return u.scale(E.from_base(inv_p))

    def counterexample_padded(self, E, d: int, k: int):
        """The paper's 4x4 inner-product preserver of norm p**k, extended by
        the identity: inner-product preserving, not unitary."""
        x = self.pq.operators.build_norm_inflating_ip_preserver(E, k)
        z = E.zero()
        rows = [
            [x.rows[m][n] if m < 4 and n < 4 else (E.one() if m == n else z) for n in range(d)]
            for m in range(d)
        ]
        return self.pq.operators.BlockOperator(E, rows)

    # -- states -------------------------------------------------------------

    def simplex_weights(self, E, d: int) -> list[Fraction]:
        """Nonzero Z_p rationals summing to 1; the last one is a unit."""
        p = E.p
        ws = [Fraction(p * self.rng.randrange(1, 50), self.coprime(p)) for _ in range(d - 1)]
        ws.append(1 - sum(ws))
        return ws

    def coprime(self, p: int) -> int:
        """A random integer in 1..30 not divisible by p."""
        q = self.rng.randrange(1, 30)
        while q % p == 0:
            q += 1
        return q

    def density(self, E, d: int) -> Density:
        ops = self.pq.operators
        u = self.unitary(E, d)
        ustar = u.adjoint()
        ws = self.simplex_weights(E, d)
        diag = ops.diagonal(E, [E.from_base(E.base.from_fraction(w)) for w in ws])
        state = u * diag * ustar
        effects = []
        for i in range(1, d + 1):
            e = self.pq.hilbert.basis_vector(E, i)
            effects.append(u * ops.rank_one(e, e, d) * ustar)
        return Density(u, state, effects, ws)

    def vector(self, E, support: list[int], head_one: bool = False):
        """Vector with entries of magnitude <= p**-1 on ``support``, and 1 at
        index 1 when ``head_one``."""
        entries = {i: self.entry(E, 1 + self.rng.randrange(2)) for i in support}
        if head_one:
            entries[1] = E.one()
        return self.pq.hilbert.PVector(E, entries)

    def statistical_pair(self, E, d: int):
        """phi, psi overlapping only at index 1 where both are 1, so
        <phi, psi> = 1, and sigma with a unit first coordinate and |sigma| = 1.

        The simple statistical operator then has (1,1) entry 1 and every
        other entry of magnitude at most 1: a density operator.
        """
        # Interleaved supports fix the block pattern, and with it the number
        # of symmetric-decomposition terms, so the work per d does not
        # depend on the seed.
        phi = self.vector(E, list(range(2, d + 1, 2)), head_one=True)
        psi = self.vector(E, list(range(3, d + 1, 2)), head_one=True)
        sigma = self.entry(E, 0)
        return phi, psi, sigma

    def zero_trace_offdiag(self, E, d: int):
        """x|e_i><e_j| + conj(x)|e_j><e_i|, i != j: self-adjoint, trace 0."""
        i, j = self.rng.sample(range(1, d + 1), 2)
        x = self.small_entry(E)
        z = E.zero()
        rows = [[z] * d for _ in range(d)]
        rows[i - 1][j - 1] = x
        rows[j - 1][i - 1] = x.conj()
        return self.pq.operators.BlockOperator(E, rows), (i, j, x)

    def triangular_family(self, E, d: int):
        """v_i = e_i + integral entries beyond i: residue rows are
        triangular with unit diagonal, hence norm-orthogonal."""
        fam = []
        for i in range(1, d + 1):
            entries = {j: self.small_entry(E) for j in range(i + 1, d + 1)}
            entries[i] = self.entry(E, 0)
            fam.append(self.pq.hilbert.PVector(E, entries))
        return fam

    def dependent_family(self, E, fam):
        """fam with its last vector replaced by v_1 + p*w: two equal residue
        rows, hence not norm-orthogonal."""
        d = max(max(v.support()) for v in fam)
        w = self.vector(E, list(range(1, d + 1)))
        return fam[:-1] + [fam[0] + w]
