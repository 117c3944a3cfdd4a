"""Reduced words, tree spheres, and radial convolution on free products.

Groups of the form (Z/2Z * ... * Z/2Z) * (Z * ... * Z) with M involutive
and N infinite factors, M + 2N >= 3, have a Cayley graph that is the
homogeneous tree of degree q + 1 with q = M + 2N - 1.  Words are stored
as reduced letter sequences; a letter is (factor_id, exponent) with
exponent fixed to +1 on the involutive factors.  Word length equals
graph distance from the identity, spheres E_n = {|x| = n} satisfy
|E_n| = (q+1) q^(n-1), and the radial functions (those depending only on
|x|) form a commutative convolution algebra.

The radial algebra uses closed-form structure constants #{x in E_i :
|x^-1 z| = j}, |z| = k (Figa-Talamanca and Picardello, 1983); words are
enumerated (capped, raising CapacityError) only for word-indexed results.
Pair counts read |y^-1 x| off the common prefix of reduced x and y (as
``word``, ``spheres`` and ``representative`` give them), take one closed-form
term, and are a fresh copy of a dict cached per shell and count.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

from .errors import CapacityError, DomainError

DEFAULT_SPHERE_CAP = 10**6


@dataclass(frozen=True)
class FreeProductSpec:
    """M involutive factors and N infinite cyclic factors."""

    involutive: int
    free: int

    def __post_init__(self):
        if self.involutive < 0 or self.free < 0:
            raise DomainError("factor counts must be nonnegative")
        if self.involutive + 2 * self.free < 3:
            raise DomainError("need M + 2N >= 3 for a tree of degree >= 3")

    @property
    def q(self) -> int:
        return self.involutive + 2 * self.free - 1

    @property
    def degree(self) -> int:
        return self.q + 1


@dataclass(frozen=True, slots=True)
class Word:
    """Reduced word; letters are (factor_id, exponent) pairs."""

    letters: tuple = field(default_factory=tuple)

    def __len__(self):
        return len(self.letters)


IDENTITY = Word(())


def _is_involutive(spec: FreeProductSpec, fid: int) -> bool:
    return fid < spec.involutive


def _check_letter(spec: FreeProductSpec, letter):
    fid, exp = letter
    if not 0 <= fid < spec.involutive + spec.free:
        raise DomainError(f"factor id {fid} out of range")
    if _is_involutive(spec, fid):
        if exp != 1:
            raise DomainError("involutive letters carry exponent +1")
    elif exp not in (1, -1):
        raise DomainError("free letters carry exponent +1 or -1")


def _cancels(spec: FreeProductSpec, a, b) -> bool:
    if a[0] != b[0]:
        return False
    if _is_involutive(spec, a[0]):
        return True
    return a[1] == -b[1]


def word(spec: FreeProductSpec, letters) -> Word:
    """Reduce an arbitrary letter sequence to a Word."""
    out = []
    for letter in letters:
        letter = (int(letter[0]), int(letter[1]))
        _check_letter(spec, letter)
        if out and _cancels(spec, out[-1], letter):
            out.pop()
        else:
            out.append(letter)
    return Word(tuple(out))


def multiply(spec: FreeProductSpec, a: Word, b: Word) -> Word:
    """Reduced product; cancellation cascades at the seam only."""
    out = list(a.letters)
    for letter in b.letters:
        if out and _cancels(spec, out[-1], letter):
            out.pop()
        else:
            out.append(letter)
    return Word(tuple(out))


def inverse(spec: FreeProductSpec, a: Word) -> Word:
    out = []
    for fid, exp in reversed(a.letters):
        out.append((fid, 1 if _is_involutive(spec, fid) else -exp))
    return Word(tuple(out))


def generators(spec: FreeProductSpec) -> list[Word]:
    gens = [Word(((fid, 1),)) for fid in range(spec.involutive)]
    for fid in range(spec.involutive, spec.involutive + spec.free):
        gens.append(Word(((fid, 1),)))
        gens.append(Word(((fid, -1),)))
    return gens


def sphere_size(spec: FreeProductSpec, n: int) -> int:
    """|E_n| in closed form: 1 for n = 0, (q+1) q^(n-1) otherwise."""
    if n < 0:
        raise DomainError("shell index must be nonnegative")
    if n == 0:
        return 1
    return spec.degree * spec.q ** (n - 1)


# Per spec: the spheres built so far, and {(n, count): {z: count for z in E_n}}
# for bz_counts to copy.  Whole shells are appended under _SPHERE_LOCK and count
# dicts without it (racing callers at worst build one twice); all are read without it.
_SPHERE_CACHE: dict[FreeProductSpec, tuple[list[list[Word]], dict]] = {}
_SPHERE_LOCK = threading.Lock()


def _cached_spheres(spec: FreeProductSpec, radius: int):
    """The cache entry of spec, with spheres through E_radius (no cap)."""
    entry = _SPHERE_CACHE.get(spec)
    if entry is not None and len(entry[0]) > radius:
        return entry
    with _SPHERE_LOCK:
        shells, keys = _SPHERE_CACHE.setdefault(spec, ([[IDENTITY]], {}))
        letters = sorted(g.letters[0] for g in generators(spec))
        after = {(): letters}
        for a in letters:
            after[(a,)] = [b for b in letters if not _cancels(spec, a, b)]
        while len(shells) <= radius:
            shells.append([Word(w.letters + (b,))
                           for w in shells[-1] for b in after[w.letters[-1:]]])
    return shells, keys


def spheres(spec: FreeProductSpec, radius: int,
            cap: int = DEFAULT_SPHERE_CAP) -> list[list[Word]]:
    """E_0 .. E_radius sorted by letters: E_n extended by non-cancelling letters."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    for n in range(1, radius + 1):
        if sphere_size(spec, n) > cap:
            raise CapacityError(f"sphere E_{n} would exceed the cap of {cap} words")
    return _cached_spheres(spec, radius)[0][: radius + 1]


def representative(spec: FreeProductSpec, n: int) -> Word:
    """A canonical word of length n."""
    if n < 0:
        raise DomainError("length must be nonnegative")
    if spec.free > 0:
        fid = spec.involutive
        return Word(tuple((fid, 1) for _ in range(n)))
    letters = tuple((k % 2, 1) for k in range(n))
    return Word(letters)


@dataclass(frozen=True)
class RadialFn:
    """Finitely supported function of the shell index."""

    shells: tuple

    @classmethod
    def from_dict(cls, values: dict) -> "RadialFn":
        cleaned = {int(n): v for n, v in values.items() if v != 0}
        if any(n < 0 for n in cleaned):
            raise DomainError("shell indices must be nonnegative")
        return cls(shells=tuple(sorted(cleaned.items())))

    def as_dict(self) -> dict:
        return dict(self.shells)

    def __call__(self, n: int):
        for k, v in self.shells:
            if k == n:
                return v
        return 0

    @property
    def max_shell(self) -> int:
        return self.shells[-1][0] if self.shells else 0


def shell_indicator(n: int) -> RadialFn:
    """The radial function equal to 1 on E_n (as a function on the group)."""
    return RadialFn.from_dict({n: 1})


def l1_norm(spec: FreeProductSpec, f: RadialFn) -> float:
    """l^1 norm of the induced function on the group: sum |E_n| |f(n)|."""
    return sum(sphere_size(spec, n) * abs(v) for n, v in f.shells)


def radialize(spec: FreeProductSpec, f: dict) -> RadialFn:
    """Average a finitely supported function over the word-length shells."""
    sums: dict[int, object] = {}
    for w, v in f.items():
        sums[len(w)] = sums.get(len(w), 0) + v
    exact = all(isinstance(v, (int, Rational)) for v in f.values())
    out = {}
    for n, total in sums.items():
        size = sphere_size(spec, n)
        out[n] = Fraction(total, size) if exact else total / size
    return RadialFn.from_dict(out)


def expand(spec: FreeProductSpec, f: RadialFn,
           cap: int = DEFAULT_SPHERE_CAP) -> dict:
    """Explicit dictionary of the induced function on the ball."""
    shells_list = spheres(spec, f.max_shell, cap)
    out = {}
    for n, v in f.shells:
        for w in shells_list[n]:
            out[w] = v
    return out


def _branch_count(spec: FreeProductSpec, i: int, k: int, p: int) -> int:
    """#{x in E_i : lcp(x, z) = p}, |z| = k, 0 <= p <= min(i, k): such x have
    |x^-1 z| = i + k - 2p.  |E_i| words share the first 0 letters of z and
    q^(i-p) the first p >= 1; the count is the difference of two of these."""
    if p == min(i, k):
        return spec.q ** (i - p) if p else sphere_size(spec, i)
    return spec.q ** i if p == 0 else (spec.q - 1) * spec.q ** (i - p - 1)


def _shell_counts(spec: FreeProductSpec, i: int, k: int) -> dict[int, int]:
    """{j: #{x in E_i : |x^-1 z| = j}} for |z| = k, one term per branch point."""
    return {i + k - 2 * p: _branch_count(spec, i, k, p) for p in range(min(i, k) + 1)}


def radial_convolve(f: RadialFn, g: RadialFn, spec: FreeProductSpec) -> RadialFn:
    """Convolution of the induced functions, computed per shell.

    (f * g)(z) = sum_x f(x) g(x^-1 z) depends only on |z| = k: it is the
    sum over i, j of f(i) g(j) #{x in E_i : |x^-1 z| = j}, with these
    structure constants in closed form.  Exact (integer / Fraction)
    inputs stay exact.
    """
    if not f.shells or not g.shells:
        return RadialFn.from_dict({})
    out = {}
    for k in range(f.max_shell + g.max_shell + 1):
        total = 0
        for i, fv in f.shells:
            for j, count in _shell_counts(spec, i, k).items():
                gv = g(j)
                if gv != 0:
                    total = total + fv * gv * count
        if total != 0:
            out[k] = total
    return RadialFn.from_dict(out)


def _distance(x: Word, y: Word) -> int:
    """|y^-1 x| for reduced x and y: y^-1 x cancels their common prefix."""
    p = 0
    while p < min(len(x), len(y)) and x.letters[p] == y.letters[p]:
        p += 1
    return len(x) + len(y) - 2 * p


def _pair_count(spec: FreeProductSpec, x: Word, y: Word, ball_radius: int,
                cap: int) -> tuple[int, int]:
    """(|y^-1 x|, the pair count at each z of that length), after the
    ball-radius and cap checks of bz_counts."""
    target, top = _distance(x, y), max(len(x), len(y))
    if max(top, target) > ball_radius:
        raise DomainError("words exceed the declared ball radius")
    if sphere_size(spec, top) > cap:
        spheres(spec, top, cap)  # raises, naming the first shell over the cap
    return target, _branch_count(spec, len(y), target, (len(y) + target - len(x)) // 2)


def _shell_dict(spec: FreeProductSpec, n: int, count: int) -> dict:
    """{z: count for z in E_n} (sorted by letters), built once per spec,
    shell and count and kept in the spec's cache entry; not to be edited."""
    shells, dicts = _cached_spheres(spec, n)
    if (n, count) not in dicts:
        dicts[n, count] = dict.fromkeys(shells[n], count)
    return dicts[n, count]


def bz_counts(spec: FreeProductSpec, x: Word, y: Word, ball_radius: int,
              cap: int = DEFAULT_SPHERE_CAP) -> dict[Word, int]:
    """Pair counts of the two-point radialization.

    For B = {(s, t): |s| = |x|, |t| = |y|, |t^-1 s| = |y^-1 x|} returns
    {z: #{(s, t) in B : t^-1 s = z}}, one entry per z of length
    |y^-1 x|.  All counts equal the closed-form #{u in E_|y| : |u^-1 z| =
    |x|}, the convolution of the two sphere indicators at z; the cap
    bounds E_|x| and E_|y|.  x and y must be reduced, as ``word``, ``spheres``
    and ``representative`` return them: |y^-1 x| is read off their common
    prefix and the count is one closed-form term.  The result is a fresh
    copy of a dict cached per shell and count.
    """
    target, count = _pair_count(spec, x, y, ball_radius, cap)
    return _shell_dict(spec, target, count).copy()


def direct_pair_counts(spec: FreeProductSpec, x: Word, y: Word) -> Counter:
    """The pair counts of ``bz_counts`` by multiplying out every (s, t) in
    E_|x| x E_|y|: the independent check on its closed form."""
    target = len(multiply(spec, inverse(spec, y), x))
    shells = spheres(spec, max(len(x), len(y)))
    inverses = [inverse(spec, t) for t in shells[len(y)]]
    products = (multiply(spec, t_inv, s) for t_inv in inverses for s in shells[len(x)])
    return Counter(z for z in products if len(z) == target)


def radialize_two_point(spec: FreeProductSpec, h: dict, x: Word, y: Word,
                        ball_radius: int | None = None,
                        cap: int = DEFAULT_SPHERE_CAP):
    """(1/|B|) sum over (s,t) in B of h(t^-1 s).

    This is the discrete form of averaging h(k(y)^-1 k(x)) over the
    tree's isometry group; it equals the one-point radialization of h at
    shell |y^-1 x|.  As in ``bz_counts``, x and y must be reduced and the count
    is one closed-form term; the shell is read from the dict ``bz_counts`` copies.
    """
    if ball_radius is None:
        ball_radius = max(len(x) + 1, len(y) + 1, _distance(x, y))
    target, count = _pair_count(spec, x, y, ball_radius, cap)
    shell = _shell_dict(spec, target, count)
    if isinstance(h, dict):
        # Every z of the shell carries the same count, so only the support
        # of h matters; summed in shell order, as over the whole shell.
        support = sorted((z for z in h if z in shell), key=lambda z: z.letters)
        values = [h[z] for z in support]
    else:
        values = [h(z) for z in shell]
    acc = 0
    for hv in values:
        if hv != 0:
            acc = acc + hv * count
    total_pairs = count * len(shell)
    exact = isinstance(acc, (int, Rational)) and not isinstance(acc, float)
    return Fraction(acc, total_pairs) if exact else acc / total_pairs


def pairing(f: dict, phi) -> complex:
    """<f, phi> = sum over the support of f of f(x) phi(x)."""
    total = 0
    for w, v in f.items():
        pv = phi.get(w, 0) if isinstance(phi, dict) else phi(w)
        total = total + v * pv
    return total


def pairing_radial(spec: FreeProductSpec, f: RadialFn, phi: RadialFn):
    """<f, phi> for two radial functions: sum |E_n| f(n) phi(n)."""
    total = 0
    for n, v in f.shells:
        pv = phi(n)
        if pv != 0:
            total = total + sphere_size(spec, n) * v * pv
    return total


def multiplicative_shell_function(spec: FreeProductSpec, alpha, max_shell: int) -> RadialFn:
    """Shell function making f -> <f, phi> multiplicative on radial f.

    phi(0) = 1, phi(1) = alpha, and <chi_1 * chi_n, phi> =
    <chi_1, phi><chi_n, phi> forces the rest: with chi_1 * chi_n =
    chi_(n+1) + q chi_(n-1) (q + 1 at n = 1), u_n = |E_n| phi(n) obeys
    u_(n+1) = u_1 u_n - |E_n| phi(n-1).  A Fraction alpha stays exact.
    """
    values = {0: Fraction(1) if isinstance(alpha, Rational) else 1.0, 1: alpha}
    u1 = sphere_size(spec, 1) * alpha
    for n in range(1, max_shell):
        un = sphere_size(spec, n) * values[n]
        values[n + 1] = ((u1 * un - sphere_size(spec, n) * values[n - 1])
                         / sphere_size(spec, n + 1))
    return RadialFn.from_dict(values)
