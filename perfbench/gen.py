"""Seeded inputs for the benchmark, built from the benchmark's own data.

Matrices are plain nested lists of ints.  The generator matrices are a
copy of the package's standard generator lists, kept here so that a change
to ``standard_generators``, ``random_symplectic`` or ``random_surface_class``
cannot change what the benchmark measures.  Every generated word is
checked to satisfy A^T J A = J before it is handed to the program.
"""

from __future__ import annotations

FAMILIES = ("Sp", "SpQ", "Ogg")


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def j_matrix(g):
    """[[0, I], [-I, 0]], the pairing of the odd-n (symplectic) case."""
    n = 2 * g
    j = [[0] * n for _ in range(n)]
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = -1
    return j


def is_symplectic(a, g):
    j = j_matrix(g)
    return matmul(matmul(transpose(a), j), a) == j


def sp_inverse(a, g):
    """A^-1 = J^-1 A^T J, with J^-1 = -J."""
    j = j_matrix(g)
    minus_j = [[-x for x in row] for row in j]
    return matmul(matmul(minus_j, transpose(a)), j)


def lam(v, w, g):
    """Symplectic pairing v^T J w."""
    return sum(v[i] * w[g + i] - v[g + i] * w[i] for i in range(g))


def _embed_2x2(m2, g, block=0):
    d = identity(2 * g)
    i, k = block, g + block
    d[i][i], d[i][k], d[k][i], d[k][k] = m2[0][0], m2[0][1], m2[1][0], m2[1][1]
    return d


def _perm_pair(g, i):
    d = identity(2 * g)
    for base in (0, g):
        a, b = base + i, base + i + 1
        d[a][a] = d[b][b] = 0
        d[a][b] = d[b][a] = 1
    return d


def _elementary(g):
    d = identity(2 * g)
    d[1][0] = 1
    d[g][g + 1] = -1
    return d


def generators(family, g):
    """The standard generator list of one family at genus g."""
    n = 2 * g
    if family == "Ogg":
        if g == 1:
            return [[[-1, 0], [0, -1]], [[0, 1], [1, 0]]]
        gens = [_perm_pair(g, i) for i in range(g - 1)]
        swap = [[0] * n for _ in range(n)]
        for i in range(g):
            swap[i][g + i] = swap[g + i][i] = 1
        minus = [[-x for x in row] for row in identity(n)]
        return gens + [swap, _elementary(g), minus]
    if g == 1:
        gens = [_embed_2x2([[1, 2], [0, 1]], 1), _embed_2x2([[0, 1], [-1, 0]], 1)]
    else:
        jswap = [[0] * n for _ in range(n)]
        for i in range(g):
            jswap[i][g + i] = -1
            jswap[g + i][i] = 1
        gens = [_perm_pair(g, i) for i in range(g - 1)] + [jswap, _elementary(g)]
    if family == "Sp":
        gens.append(_embed_2x2([[1, 1], [0, 1]], g))
    return gens


class WordSource:
    """Random words in one symplectic family's generators and their inverses."""

    def __init__(self, family, g, max_length=6):
        if family not in ("Sp", "SpQ"):
            raise ValueError("words are drawn from Sp or SpQ generators")
        self.g = g
        self.max_length = max_length
        gens = generators(family, g)
        for a in gens:
            if not is_symplectic(a, g):
                raise RuntimeError(f"{family} generator fails A^T J A = J")
            if family == "SpQ" and any(
                    sum(col[i] * col[g + i] for i in range(g)) % 2
                    for col in zip(*a)):
                raise RuntimeError("SpQ generator does not preserve q")
        self.letters = gens + [sp_inverse(a, g) for a in gens]

    def word(self, rng):
        m = identity(2 * self.g)
        for _ in range(rng.randint(1, self.max_length)):
            m = matmul(m, self.letters[rng.randrange(len(self.letters))])
        if not is_symplectic(m, self.g):
            raise RuntimeError("generated word fails A^T J A = J")
        return m


def surface_pairs(rng, words, h):
    """h holonomy pairs whose commutator product is the identity.

    Genus-2 blocks are ((A, B), (B, A)), since [A, B][B, A] = 1 in any
    group; the rest are torus pairs (A, A^k).  Either block factors
    through a free group, whose H_2 vanishes, so every class built here
    has signature exactly 0.
    """
    g = words.g
    pairs = []
    while len(pairs) < h:
        a = words.word(rng)
        if h - len(pairs) >= 2 and rng.random() < 0.7:
            b = words.word(rng)
            pairs += [(a, b), (b, a)]
        else:
            k = rng.choice((-2, -1, 0, 1, 2))
            step = a if k >= 0 else sp_inverse(a, g)
            b = identity(2 * g)
            for _ in range(abs(k)):
                b = matmul(b, step)
            pairs.append((a, b))
    return pairs


def affine_class(rng, words, h, span=3):
    """(pairs, translations, expected chi^2 up to sign).

    Torus blocks (I, I) take arbitrary translations (v, w) and contribute
    2 * lambda(v, w) to chi^2; blocks ((A, B), (B, A)) take the principal
    translations u(x) = (x - 1) m, a coboundary, and contribute 0.
    """
    g = words.g
    n = 2 * g
    ident = identity(n)

    def vec():
        return [rng.randint(-span, span) for _ in range(n)]

    pairs, translations, expected = [], [], 0
    while len(pairs) < h:
        if h - len(pairs) == 1 or rng.random() < 0.5:
            v, w = vec(), vec()
            pairs.append((ident, ident))
            translations.append((v, w))
            expected += 2 * lam(v, w, g)
        else:
            a, b = words.word(rng), words.word(rng)
            m = vec()
            va = [sum(x * y for x, y in zip(row, m)) - mi for row, mi in zip(a, m)]
            vb = [sum(x * y for x, y in zip(row, m)) - mi for row, mi in zip(b, m)]
            pairs += [(a, b), (b, a)]
            translations += [(va, vb), (vb, va)]
    return pairs, translations, expected
