"""Exact linear and multilinear algebra over Q(zeta_M).

Vectors are dense tuples/lists of CycloNum; subspaces are canonical
reduced-row-echelon bases, so equal subspaces have identical
representations.  Pivoting is always by first nonzero entry (no magnitude
comparisons), which keeps every computation deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cyclo import CycloNum
from .errors import AmbientMismatch

Vector = tuple[CycloNum, ...]


def zero_vector(n: int, M: int) -> list[CycloNum]:
    z = CycloNum.zero(M)
    return [z] * n


def unit_vector(n: int, M: int, i: int) -> list[CycloNum]:
    v = zero_vector(n, M)
    v[i] = CycloNum.one(M)
    return v


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


def dot(a, b) -> CycloNum:
    acc = None
    for x, y in zip(a, b):
        if x.is_zero() or y.is_zero():
            continue
        t = x * y
        acc = t if acc is None else acc + t
    if acc is None:
        return CycloNum.zero(a[0].M if a else 3)
    return acc


class EchelonBasis:
    """Mutable reduced-row-echelon basis supporting incremental insertion."""

    def __init__(self, ambient: int, M: int):
        self.ambient = ambient
        self.M = M
        self.rows: list[list[CycloNum]] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[CycloNum]) -> list[CycloNum]:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not c.is_zero():
                for i in range(p, self.ambient):
                    if not row[i].is_zero():
                        v[i] = v[i] - c * row[i]
        return v

    def insert(self, vec: Sequence[CycloNum]) -> bool:
        """Insert a vector; returns True if the dimension grew."""
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

    def contains(self, vec: Sequence[CycloNum]) -> bool:
        return vec_is_zero(self.reduce(vec))

    def to_subspace(self) -> "Subspace":
        return Subspace(self.ambient, self.M,
                        tuple(tuple(r) for r in self.rows), tuple(self.pivots))


class Subspace:
    """An exact subspace of k^n in canonical reduced-row-echelon form."""

    __slots__ = ("ambient_dim", "conductor", "basis", "pivots")

    def __init__(self, ambient_dim: int, conductor: int,
                 basis: tuple[Vector, ...], pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.conductor = conductor
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def from_vectors(ambient: int, M: int, vectors: Iterable[Sequence[CycloNum]]) -> "Subspace":
        eb = EchelonBasis(ambient, M)
        for v in vectors:
            if len(v) != ambient:
                raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient}")
            eb.insert(v)
        return eb.to_subspace()

    @staticmethod
    def zero(ambient: int, M: int) -> "Subspace":
        return Subspace(ambient, M, (), ())

    @staticmethod
    def full(ambient: int, M: int) -> "Subspace":
        one = CycloNum.one(M)
        z = CycloNum.zero(M)
        rows = tuple(tuple(one if j == i else z for j in range(ambient)) for i in range(ambient))
        return Subspace(ambient, M, rows, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dims {self.ambient_dim} and {other.ambient_dim} differ")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def contains(self, vec: Sequence[CycloNum]) -> bool:
        eb = self._eb()
        return eb.contains(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        eb = self._eb()
        return all(eb.contains(v) for v in other.basis)

    def reduce(self, vec: Sequence[CycloNum]) -> list[CycloNum]:
        """Canonical representative of vec modulo this subspace."""
        return self._eb().reduce(vec)

    def _eb(self) -> EchelonBasis:
        eb = EchelonBasis(self.ambient_dim, self.conductor)
        eb.rows = [list(r) for r in self.basis]
        eb.pivots = list(self.pivots)
        return eb

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        eb = self._eb()
        for v in other.basis:
            eb.insert(v)
        return eb.to_subspace()

    def perp(self) -> "Subspace":
        """Orthogonal complement for the standard coordinate pairing."""
        return kernel(self.basis, self.ambient_dim, self.conductor)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return self.perp().sum(other.perp()).perp()

    def complement_coords(self) -> list[int]:
        """Non-pivot coordinates: the canonical complement basis indices."""
        piv = set(self.pivots)
        return [i for i in range(self.ambient_dim) if i not in piv]

    def projection_columns(self) -> list[dict]:
        """Quotient map onto the canonical complement, as sparse columns.

        Column j holds the complement coordinates of e_j reduced modulo this
        subspace: e_j itself off the pivots, e_j - basis[r] on pivot r (the
        echelon rows vanish on the other pivots).
        """
        one = CycloNum.one(self.conductor)
        coords = self.complement_coords()
        cols: list[dict] = [{} for _ in range(self.ambient_dim)]
        for t, c in enumerate(coords):
            cols[c][t] = one
        for row, p in zip(self.basis, self.pivots):
            cols[p] = {t: -row[c] for t, c in enumerate(coords)
                       if not row[c].is_zero()}
        return cols


# -- matrices (lists of rows) --------------------------------------------------

def identity_matrix(n: int, M: int) -> list[list[CycloNum]]:
    one = CycloNum.one(M)
    z = CycloNum.zero(M)
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    out = []
    for row in A:
        out.append(dot(row, v))
    return out


def mat_mul(A, B):
    n = len(B)
    cols = len(B[0]) if n else 0
    Bc = [[B[i][j] for i in range(n)] for j in range(cols)]
    return [[dot(row, col) for col in Bc] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_trace(A) -> CycloNum:
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc


def mat_eq(A, B) -> bool:
    return all(x == y for ra, rb in zip(A, B) for x, y in zip(ra, rb))


def mat_inverse(A, M: int):
    """Inverse of a square matrix (solving A x = e_i), or None if singular."""
    n = len(A)
    cols = []
    for i in range(n):
        x = solve(A, unit_vector(n, M, i))
        if x is None:
            return None
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def solve(A, b):
    """One solution x of A x = b, or None if inconsistent (A: m rows)."""
    m = len(A)
    if m == 0:
        return []
    n = len(A[0])
    M = b[0].M if b else A[0][0].M
    aug = [list(A[i]) + [b[i]] for i in range(m)]
    eb = EchelonBasis(n + 1, M)
    for row in aug:
        eb.insert(row)
    x = zero_vector(n, M)
    for row, p in zip(eb.rows, eb.pivots):
        if p == n:
            return None  # row (0 ... 0 | 1): inconsistent
        x[p] = row[n]
    # back-check not needed: rref rows give x directly only if free vars set 0;
    # verify to be safe against free-variable interactions
    for row, p in zip(eb.rows, eb.pivots):
        acc = row[n]
        s = None
        for j in range(p, n):
            if not row[j].is_zero() and not x[j].is_zero():
                t = row[j] * x[j]
                s = t if s is None else s + t
        if s is None:
            s = CycloNum.zero(M)
        if s != acc:
            return None
    return x


def kernel(rows, n_cols: int, M: int) -> Subspace:
    """Kernel of the linear map given by a list of row vectors on k^n."""
    eb = EchelonBasis(n_cols, M)
    for r in rows:
        eb.insert(r)
    piv = list(eb.pivots)
    piv_set = set(piv)
    free = [i for i in range(n_cols) if i not in piv_set]
    vectors = []
    one = CycloNum.one(M)
    for f in free:
        v = zero_vector(n_cols, M)
        v[f] = one
        for row, p in zip(eb.rows, eb.pivots):
            if not row[f].is_zero():
                v[p] = -row[f]
        vectors.append(v)
    return Subspace.from_vectors(n_cols, M, vectors)


def image(cols: list[dict], m: int, M: int) -> Subspace:
    """Column space of the map k^n -> k^m with sparse columns `cols`."""
    return Subspace.from_vectors(m, M, [sparse_to_dense(c, m, M) for c in cols])


def preimage(rows, n_cols: int, M: int, W: Subspace) -> Subspace:
    """{x : A x in W} computed as the kernel of (W-perp basis) . A."""
    m = len(rows)
    comp = []
    for w in W.perp().basis:
        comp.append([dot(w, [rows[i][j] for i in range(m)]) for j in range(n_cols)])
    return kernel(comp, n_cols, M)


def intersect_kernels(conditions, n: int, M: int) -> Subspace:
    """Common kernel of linear conditions given as sparse rows {col: coef}.

    The rows are densified and inserted into one echelon basis one at a
    time, so the stack of conditions is never materialised.  Since
    ker A cap ker B = ker [A; B], this is the canonical kernel of the stack.
    """
    zero = CycloNum.zero(M)

    def dense_rows():
        for cond in conditions:
            if cond:
                v = [zero] * n
                for j, c in cond.items():
                    v[j] = c
                yield v
    return kernel(dense_rows(), n, M)


# -- sparse order-3 tensors ----------------------------------------------------

class SparseTensor3:
    """Structure-constant tensor with strictly sorted nonzero entries."""

    __slots__ = ("dims", "entries")

    def __init__(self, dims: tuple[int, int, int],
                 entries: tuple[tuple[tuple[int, int, int], CycloNum], ...]):
        self.dims = dims
        self.entries = entries

    @staticmethod
    def from_dict(dims, d: dict) -> "SparseTensor3":
        items = tuple(sorted((k, v) for k, v in d.items() if not v.is_zero()))
        return SparseTensor3(tuple(dims), items)

    def __eq__(self, other):
        if not isinstance(other, SparseTensor3):
            return NotImplemented
        return self.dims == other.dims and self.entries == other.entries

    def __hash__(self):
        return hash((self.dims, self.entries))

    def __len__(self):
        return len(self.entries)

    def rows_ij(self) -> list[list[tuple[tuple[int, CycloNum], ...]]]:
        """rows[i][j] = ((k, c), ...): the vector e_i * e_j for a mult tensor."""
        n0, n1, _ = self.dims
        rows = [[[] for _ in range(n1)] for _ in range(n0)]
        for (i, j, k), c in self.entries:
            rows[i][j].append((k, c))
        return [[tuple(cell) for cell in row] for row in rows]

    def rows_i(self) -> list[tuple[tuple[tuple[int, int], CycloNum], ...]]:
        """rows[i] = (((j, k), c), ...): Delta(e_i) for a comult tensor."""
        n0 = self.dims[0]
        rows = [[] for _ in range(n0)]
        for (i, j, k), c in self.entries:
            rows[i].append(((j, k), c))
        return [tuple(r) for r in rows]


# -- associative algebra helpers ------------------------------------------------

def sparse_add_into(acc: dict, key, c: CycloNum):
    cur = acc.get(key)
    if cur is None:
        acc[key] = c
    else:
        s = cur + c
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s


def mult_vectors(rows, u: dict, v: dict) -> dict:
    """Product of sparse coordinate vectors in an algebra given by mult rows."""
    acc: dict[int, CycloNum] = {}
    for i, ci in u.items():
        if ci.is_zero():
            continue
        ri = rows[i]
        for j, cj in v.items():
            if cj.is_zero():
                continue
            c = ci * cj
            for k, ck in ri[j]:
                sparse_add_into(acc, k, c * ck)
    return acc


def dense_to_sparse(v) -> dict:
    return {i: c for i, c in enumerate(v) if not c.is_zero()}


def outer(u: dict, v: dict) -> dict:
    """u (x) v for sparse vectors: {(a, b): u_a v_b}."""
    return {(a, b): ca * cb for a, ca in u.items() for b, cb in v.items()}


# -- linear maps as sparse columns ------------------------------------------------
#
# A map k^n -> k^m is applied through its columns {row: coef} (nonzeros only):
# A v touches only the nonzero entries of v and of the columns it selects.

def sparse_columns(A) -> list[dict]:
    """Columns of the matrix A (a list of rows), nonzeros only."""
    cols: list[dict] = [{} for _ in range(len(A[0]) if A else 0)]
    for i, row in enumerate(A):
        for j, c in enumerate(row):
            if not c.is_zero():
                cols[j][i] = c
    return cols


def zero_free_columns(cols) -> tuple[dict, ...]:
    """`cols` with zero coefficients dropped, so equal maps have equal columns."""
    return tuple({i: c for i, c in col.items() if not c.is_zero()} for col in cols)


def identity_columns(n: int, M: int) -> list[dict]:
    one = CycloNum.one(M)
    return [{j: one} for j in range(n)]


def apply_columns(cols: list[dict], v: dict) -> dict:
    """A v for a sparse vector v; zero sums are dropped."""
    out: dict = {}
    for j, c in v.items():
        for i, a in cols[j].items():
            sparse_add_into(out, i, c * a)
    return out


def apply_tensor_columns(A: list[dict], B: list[dict], X: dict) -> dict:
    """(A (x) B) X for a sparse tensor X {(j, k): coef}."""
    out: dict = {}
    for (j, k), c in X.items():
        for a, ca in A[j].items():
            cca = c * ca
            for b, cb in B[k].items():
                sparse_add_into(out, (a, b), cca * cb)
    return out


def compose_columns(A: list[dict], B: list[dict]) -> list[dict]:
    """Columns of A o B."""
    return [apply_columns(A, b) for b in B]


def transpose_columns(cols: list[dict], m: int) -> list[dict]:
    """Columns of the transpose of the m-row map with sparse columns `cols`."""
    out: list[dict] = [{} for _ in range(m)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            out[i][j] = c
    return out


def dense_rows(cols: list[dict], m: int, M: int) -> list[list[CycloNum]]:
    """The m dense rows of the map with sparse columns `cols`."""
    return [sparse_to_dense(r, len(cols), M) for r in transpose_columns(cols, m)]


def sparse_to_dense(d: dict, n: int, M: int) -> list[CycloNum]:
    v = zero_vector(n, M)
    for i, c in d.items():
        v[i] = c
    return v


def trace_of_left_mults(mult: SparseTensor3, M: int) -> list[CycloNum]:
    """T[m] = Tr(L_{e_m})."""
    n = mult.dims[0]
    T = zero_vector(n, M)
    for (i, j, k), c in mult.entries:
        if j == k:
            T[i] = T[i] + c
    return T


def algebra_radical(mult: SparseTensor3, unit, M: int) -> Subspace:
    """Jacobson radical via the trace form (x,y) -> Tr(L_{xy}); char 0 only.

    Assumes the multiplication is associative and unital (caller-verified).
    """
    n = mult.dims[0]
    T = trace_of_left_mults(mult, M)
    gram = [[CycloNum.zero(M)] * n for _ in range(n)]
    for (i, j, k), c in mult.entries:
        if not T[k].is_zero():
            gram[i][j] = gram[i][j] + c * T[k]
    return kernel(gram, n, M)


def ideal_closure(rows, n: int, M: int, generators) -> Subspace:
    """Smallest subspace containing generators, closed under left/right mult."""
    eb = EchelonBasis(n, M)
    work = []
    for g in generators:
        gd = list(g)
        if eb.insert(gd):
            work.append(gd)
    one = CycloNum.one(M)
    while work:
        v = work.pop()
        sv = dense_to_sparse(v)
        for j in range(n):
            ej = {j: one}
            for prod in (mult_vectors(rows, sv, ej), mult_vectors(rows, ej, sv)):
                pv = sparse_to_dense(prod, n, M)
                if eb.insert(pv):
                    work.append(pv)
    return eb.to_subspace()


def quotient_mult(rows, I: Subspace, proj: list[dict]) -> SparseTensor3:
    """Multiplication of A/I on the canonical complement of the ideal I.

    `proj` is `I.projection_columns()`; the product of complement basis
    elements e_a e_b is projected, which equals reducing it modulo I and
    reading the complement coordinates, because reduction is linear.
    """
    coords = I.complement_coords()
    q = len(coords)
    d: dict = {}
    for a, ca in enumerate(coords):
        for b, cb in enumerate(coords):
            for t, c in apply_columns(proj, dict(rows[ca][cb])).items():
                d[(a, b, t)] = c
    return SparseTensor3.from_dict((q, q, q), d)


def commutator_generators(rows, n: int, M: int):
    """All [e_i, e_j], i < j, as dense vectors (commutator-ideal generators)."""
    one = CycloNum.one(M)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            a = mult_vectors(rows, {i: one}, {j: one})
            b = mult_vectors(rows, {j: one}, {i: one})
            acc = dict(a)
            for k, c in b.items():
                sparse_add_into(acc, k, -c)
            if acc:
                out.append(sparse_to_dense(acc, n, M))
    return out


def quotient_by_radical(mult: SparseTensor3, rad: Subspace) -> SparseTensor3:
    """Multiplication of A/rad on the canonical complement of the radical.

    A itself when the radical is zero (then no quotient is built).
    """
    if not rad.dim:
        return mult
    return quotient_mult(mult.rows_ij(), rad, rad.projection_columns())


def commutative_quotient_dim(mult: SparseTensor3, M: int) -> int:
    """dim of A modulo the two-sided ideal generated by its commutators."""
    n = mult.dims[0]
    rows = mult.rows_ij()
    return n - ideal_closure(rows, n, M, commutator_generators(rows, n, M)).dim


def split_character_count(mult: SparseTensor3, unit, M: int) -> int:
    """dim of the maximal split commutative semisimple quotient.

    Over a splitting field this equals the number of 1-dimensional blocks
    of A/Rad A, i.e. the number of algebra characters.
    """
    rad = algebra_radical(mult, unit, M)
    return commutative_quotient_dim(quotient_by_radical(mult, rad), M)


def center_dim(mult: SparseTensor3, M: int) -> int:
    """dim Z(A); for semisimple A over a splitting field, its block count."""
    n = mult.dims[0]
    rows = mult.rows_ij()

    def conditions():
        for j in range(n):  # e_j z - z e_j = 0, one block of rows per j
            eq: dict = {}
            for b in range(n):
                for k, c in rows[j][b]:
                    sparse_add_into(eq.setdefault(k, {}), b, c)
                for k, c in rows[b][j]:
                    sparse_add_into(eq.setdefault(k, {}), b, -c)
            yield from eq.values()
    return intersect_kernels(conditions(), n, M).dim
