"""Dense reference implementations for tests.

`DenseEchelonBasis` and `dense_kernel` are the dense-vector echelon code that
`hopfkit.linalg` used before it moved to sparse vectors, kept verbatim in
substance as a slow oracle.  The small dense helpers (vectors as lists,
matrices as lists of rows) serve tests that state their expectations in
dense form.  `oracle_coradical_spaces` is the projection route to the
coradical filtration that `invariants` used before it read the filtration
from the powers of J(H*).
"""

from hopfkit.cyclo import CycloNum
from hopfkit.linalg import (apply_tensor_columns, dense_to_sparse, kernel,
                            sparse_add_into)


def zero_vector(n, M):
    return [CycloNum.zero(M)] * n


def unit_vector(n, M, i):
    v = zero_vector(n, M)
    v[i] = CycloNum.one(M)
    return v


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def vec_is_zero(a):
    return all(x.is_zero() for x in a)


def dense_dot(a, b, M):
    """sum_i a_i b_i; terms with a zero factor are skipped (exactly zero)."""
    acc = CycloNum.zero(M)
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def mat_vec(A, v):
    M = v[0].M if v else 3
    return [dense_dot(row, v, M) for row in A]


def identity_matrix(n, M):
    one, z = CycloNum.one(M), CycloNum.zero(M)
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def mat_trace(A):
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc


def dense_rows(cols, m, M):
    """The m dense rows of the map with sparse columns `cols`."""
    zero = CycloNum.zero(M)
    return [[col.get(i, zero) for col in cols] for i in range(m)]


def mat_eq(A, B):
    return all(x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def transpose(A):
    return [list(col) for col in zip(*A)]


class DenseEchelonBasis:
    """Reduced-row-echelon basis of dense rows (the replaced implementation)."""

    def __init__(self, ambient, M):
        self.ambient = ambient
        self.M = M
        self.rows = []
        self.pivots = []

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not c.is_zero():
                for i in range(p, self.ambient):
                    if not row[i].is_zero():
                        v[i] = v[i] - c * row[i]
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if not x.is_zero()), None)
        if p is None:
            return False
        lead = v[p]
        if not lead.is_one():
            inv = lead.inverse()
            v = [inv * x for x in v]
        for row in self.rows:
            c = row[p]
            if not c.is_zero():
                for i in range(p, self.ambient):
                    if not v[i].is_zero():
                        row[i] = row[i] - c * v[i]
        at = next((k for k, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    def contains(self, vec):
        return vec_is_zero(self.reduce(vec))

    def copy(self):
        eb = DenseEchelonBasis(self.ambient, self.M)
        eb.rows = [list(r) for r in self.rows]
        eb.pivots = list(self.pivots)
        return eb

    def sparse_basis(self):
        """(pivots, rows as sparse vectors): the form a `Subspace` holds."""
        return tuple(self.pivots), tuple(dense_to_sparse(r) for r in self.rows)

    def projection_columns(self):
        one = CycloNum.one(self.M)
        piv = set(self.pivots)
        coords = [i for i in range(self.ambient) if i not in piv]
        cols = [{} for _ in range(self.ambient)]
        for t, c in enumerate(coords):
            cols[c][t] = one
        for row, p in zip(self.rows, self.pivots):
            cols[p] = {t: -row[c] for t, c in enumerate(coords) if not row[c].is_zero()}
        return cols


def dense_span(ambient, M, vectors):
    eb = DenseEchelonBasis(ambient, M)
    for v in vectors:
        eb.insert(v)
    return eb


def dense_kernel(rows, n_cols, M):
    """Kernel of the dense rows, as a `DenseEchelonBasis`."""
    eb = dense_span(n_cols, M, rows)
    piv_set = set(eb.pivots)
    vectors = []
    one = CycloNum.one(M)
    for f in range(n_cols):
        if f in piv_set:
            continue
        v = zero_vector(n_cols, M)
        v[f] = one
        for row, p in zip(eb.rows, eb.pivots):
            if not row[f].is_zero():
                v[p] = -row[f]
        vectors.append(v)
    return dense_span(n_cols, M, vectors)


def dense_inverse(A, M):
    """Inverse of the dense square matrix A by solving A x = e_i, or None."""
    n = len(A)
    cols = []
    for i in range(n):
        aug = [list(A[r]) + [unit_vector(n, M, i)[r]] for r in range(n)]
        eb = dense_span(n + 1, M, aug)
        if n in eb.pivots:
            return None  # row (0 ... 0 | 1): e_i is not in the image
        x = zero_vector(n, M)
        for row, p in zip(eb.rows, eb.pivots):
            x[p] = row[n]
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def sparse_rows(A):
    return [dense_to_sparse(row) for row in A]


def oracle_coradical_spaces(H):
    """The subspaces H_0 c H_1 c ... = H, with H_0 = J(H*)^perp and
    H_{i+1} = ker (p_0 (x) p_i)Delta, p_i the projection of H onto H/H_i."""
    n, M = H.dim, H.conductor
    H0 = H.dual_cached().radical.perp()
    spaces = [H0]
    p0 = H0.projection_columns()
    while spaces[-1].dim < n:
        # one row per (a, b)
        p1 = spaces[-1].projection_columns()
        eq: dict = {}
        for m in range(n):
            for ab, c in apply_tensor_columns(p0, p1, dict(H.crows[m])).items():
                sparse_add_into(eq.setdefault(ab, {}), m, c)
        spaces.append(kernel(eq.values(), n, M))
    return spaces
