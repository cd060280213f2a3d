"""Exact linear and multilinear algebra over Q(zeta_M).

Vectors are sparse dicts {index: nonzero coefficient}; subspaces are
canonical reduced-row-echelon bases, so equal subspaces have identical
representations.  Pivoting is always by first nonzero entry (no magnitude
comparisons), which keeps every computation deterministic.  Dense lists
appear only where data arrives or leaves in that form: the `.hopf` file
format and the command line (the dense-boundary helpers).

A sparse 2-tensor X = {(a, b): coef} (a coproduct Delta(e_i), an R-matrix)
is acted on leg by leg by three kernels: `coproduct_leg` gives
(Delta (x) id)X or (id (x) Delta)X, `functional_leg` gives (f (x) id)X or
(id (x) f)X, and `contract` gives m(A (x) B)X.
"""

from __future__ import annotations

from collections.abc import Iterable

from .cyclo import CycloNum, _frozen
from .errors import AmbientMismatch


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
    """Mutable reduced-row-echelon basis supporting incremental insertion.

    `rows` maps each pivot p to its row: a sparse vector that is 1 at p and
    vanishes on every other pivot.  Reducing a vector therefore touches only
    the pivots in its support, each coefficient read once.
    """

    def __init__(self, ambient: int, M: int, rows: dict[int, dict] | None = None):
        self.ambient = ambient
        self.M = M
        self.rows: dict[int, dict] = {} if rows is None else rows

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """vec minus its components along the rows: zero on every pivot."""
        v = zero_free(vec)
        rows = self.rows
        for p, c in list(v.items()):
            row = rows.get(p)
            if row is not None:
                for i, a in row.items():
                    sparse_add_into(v, i, -(c * a))
        return v

    def insert(self, vec: dict) -> bool:
        """Insert a vector; returns True if the dimension grew."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        lead = v[p]
        if not lead.is_one():
            inv = lead.inverse()
            v = {i: inv * x for i, x in v.items()}
        for row in self.rows.values():
            c = row.get(p)
            if c is not None:
                for i, a in v.items():
                    sparse_add_into(row, i, -(c * a))
        self.rows[p] = v
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def to_subspace(self) -> "Subspace":
        pivots = tuple(sorted(self.rows))
        return Subspace(self.ambient, self.M,
                        tuple(self.rows[p] for p in pivots), pivots)


class Subspace:
    """An exact subspace of k^n in canonical reduced-row-echelon form.

    `basis` holds the echelon rows as sparse vectors in pivot order.  The
    fields are set once, so a memoised subspace is shared safely.
    """

    __slots__ = ("ambient_dim", "conductor", "basis", "pivots")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, ambient_dim: int, conductor: int,
                 basis: tuple[dict, ...], pivots: tuple[int, ...]):
        for name, value in zip(self.__slots__,
                               (ambient_dim, conductor, basis, pivots)):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_vectors(ambient: int, M: int, vectors: Iterable[dict]) -> "Subspace":
        eb = EchelonBasis(ambient, M)
        for v in vectors:
            if any(not 0 <= i < ambient for i in v):
                raise AmbientMismatch(f"vector index outside ambient {ambient}")
            eb.insert(v)
        return eb.to_subspace()

    @staticmethod
    def zero(ambient: int, M: int) -> "Subspace":
        return Subspace(ambient, M, (), ())

    @staticmethod
    def full(ambient: int, M: int) -> "Subspace":
        one = CycloNum.one(M)
        return Subspace(ambient, M, tuple({i: one} for i in range(ambient)),
                        tuple(range(ambient)))

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
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def _eb(self) -> EchelonBasis:
        """An echelon basis over (not a copy of) the rows: read only."""
        return EchelonBasis(self.ambient_dim, self.conductor,
                            dict(zip(self.pivots, self.basis)))

    def contains(self, vec: dict) -> bool:
        return self._eb().contains(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        eb = self._eb()
        return all(eb.contains(v) for v in other.basis)

    def reduce(self, vec: dict) -> dict:
        """Canonical representative of vec modulo this subspace."""
        return self._eb().reduce(vec)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        eb = EchelonBasis(self.ambient_dim, self.conductor,
                          {p: dict(r) for p, r in zip(self.pivots, self.basis)})
        for v in other.basis:
            eb.insert(v)
        return eb.to_subspace()

    def perp(self) -> "Subspace":
        """Orthogonal complement for the standard coordinate pairing."""
        return kernel(self.basis, self.ambient_dim, self.conductor)

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
        at = {c: t for t, c in enumerate(self.complement_coords())}
        cols: list[dict] = [{} for _ in range(self.ambient_dim)]
        for c, t in at.items():
            cols[c][t] = one
        for row, p in zip(self.basis, self.pivots):
            cols[p] = {at[c]: -a for c, a in row.items() if c != p}
        return cols


# -- matrices (lists of rows) --------------------------------------------------

def mat_mul(A, B):
    n = len(B)
    cols = len(B[0]) if n else 0
    Bc = [[B[i][j] for i in range(n)] for j in range(cols)]
    return [[dot(row, col) for col in Bc] for row in A]


def mat_inverse(cols: list[dict], M: int) -> list[dict] | None:
    """Columns of the inverse of the square map with sparse columns `cols`,
    or None if it is singular.

    The rows (A | I) reduce to (I | A^-1) exactly when A is invertible, so
    row p of the echelon basis carries row p of A^-1 in its last n entries.
    """
    n = len(cols)
    one = CycloNum.one(M)
    eb = EchelonBasis(2 * n, M)
    for i, row in enumerate(transpose_columns(cols, n)):
        row[n + i] = one
        eb.insert(row)
    if any(p >= n for p in eb.rows):
        return None
    inv: list[dict] = [{} for _ in range(n)]
    for p, row in eb.rows.items():
        for j, c in row.items():
            if j >= n:
                inv[j - n][p] = c
    return inv


def kernel(rows, n_cols: int, M: int) -> Subspace:
    """Kernel of the linear map given by sparse rows {col: coef} on k^n."""
    eb = EchelonBasis(n_cols, M)
    for r in rows:
        eb.insert(r)
    # one kernel vector per free column f: e_f - sum_p row_p[f] e_p (the
    # rows' entries off their own pivot all lie in free columns)
    one = CycloNum.one(M)
    free = {f: {f: one} for f in range(n_cols) if f not in eb.rows}
    for p, row in eb.rows.items():
        for f, c in row.items():
            if f != p:
                free[f][p] = -c
    return Subspace.from_vectors(n_cols, M, free.values())


def image(cols: list[dict], m: int, M: int) -> Subspace:
    """Column space of the map k^n -> k^m with sparse columns `cols`."""
    return Subspace.from_vectors(m, M, cols)


def intersect_kernels(maps, n: int, M: int) -> Subspace:
    """Common kernel of linear maps on k^n, each given by its n sparse columns.

    Column b of a map f is f(e_b), a zero-free dict keyed by any hashable
    index r.  Row r of f is the functional (f(e_b)_r)_b, so each map in turn
    is transposed into its rows and they are streamed into one echelon basis;
    the stack of maps is never materialised.  Since ker f cap ker g =
    ker [f; g], this is the canonical kernel of the stack.  This is the one
    place where a map becomes condition rows.
    """
    def rows():
        for cols in maps:
            by_row: dict = {}
            for b, col in enumerate(cols):
                for r, c in col.items():
                    by_row.setdefault(r, {})[b] = c
            yield from by_row.values()
    return kernel(rows(), n, M)


# -- sparse order-3 tensors ----------------------------------------------------

class SparseTensor3:
    """Structure-constant tensor with strictly sorted nonzero entries.

    Its row views are tuples, built on first use and kept, so every reader
    of one tensor shares one build; `from_rows` hands its `rows_ij` view
    over at construction.  Nothing else is set after `__init__`.
    """

    __slots__ = ("dims", "entries", "_ij", "_i", "_legs")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, dims: tuple[int, int, int],
                 entries: tuple[tuple[tuple[int, int, int], CycloNum], ...]):
        for name, value in zip(self.__slots__, (dims, entries, None, None, None)):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_dict(dims, d: dict) -> "SparseTensor3":
        items = tuple(sorted((k, v) for k, v in d.items() if not v.is_zero()))
        return SparseTensor3(tuple(dims), items)

    @staticmethod
    def from_rows(dims, rows: tuple) -> "SparseTensor3":
        """The tensor whose `rows_ij` view is the tuple of row tuples `rows`:
        rows[i][j] = ((k, c), ...), each cell sorted by k and zero-free.
        The entries are read off the rows in (i, j) order, so they are
        sorted, and `rows` itself is kept as the view, not rebuilt."""
        t = SparseTensor3(tuple(dims), tuple(
            ((i, j, k), c) for i, row in enumerate(rows)
            for j, cell in enumerate(row) for k, c in cell))
        object.__setattr__(t, "_ij", rows)
        return t

    def __eq__(self, other):
        if not isinstance(other, SparseTensor3):
            return NotImplemented
        return self.dims == other.dims and self.entries == other.entries

    def __hash__(self):
        return hash((self.dims, self.entries))

    def __len__(self):
        return len(self.entries)

    def rows_ij(self) -> tuple[tuple[tuple[tuple[int, CycloNum], ...], ...], ...]:
        """rows[i][j] = ((k, c), ...): the vector e_i * e_j for a mult tensor."""
        if self._ij is None:
            n0, n1, _ = self.dims
            rows = [[[] for _ in range(n1)] for _ in range(n0)]
            for (i, j, k), c in self.entries:
                rows[i][j].append((k, c))
            object.__setattr__(self, "_ij", tuple(
                tuple(tuple(cell) for cell in row) for row in rows))
        return self._ij

    def rows_i(self) -> tuple[tuple[tuple[tuple[int, int], CycloNum], ...], ...]:
        """rows[i] = (((j, k), c), ...): Delta(e_i) for a comult tensor."""
        if self._i is None:
            rows = [[] for _ in range(self.dims[0])]
            for (i, j, k), c in self.entries:
                rows[i].append(((j, k), c))
            object.__setattr__(self, "_i", tuple(tuple(r) for r in rows))
        return self._i

    def first_legs(self) -> tuple[tuple[int, ...], ...]:
        """legs[i] = (j, ...): the first legs of `rows_i()[i]`, in row
        order.  A sorted row holds the terms of each j as one run, whose
        ends `bisect` finds in legs[i]."""
        if self._legs is None:
            object.__setattr__(self, "_legs", tuple(
                tuple(jk[0] for jk, _ in row) for row in self.rows_i()))
        return self._legs


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
            cell = ri[j]
            if not cell or cj.is_zero():
                continue
            c = ci * cj
            for k, ck in cell:
                sparse_add_into(acc, k, c * ck)
    return acc


def tensor_mul(rows, X: dict, Y: dict) -> dict:
    """Product of sparse elements {(a, b): coef} of A (x) A, A given by mult
    rows."""
    out: dict = {}
    for (a, b), c in X.items():
        ra = rows[a]
        rb = rows[b]
        for (al, be), d in Y.items():
            cell1 = ra[al]
            cell2 = rb[be]
            if not (cell1 and cell2):
                continue
            cd = c * d
            for k1, c1 in cell1:
                cc = cd * c1
                for k2, c2 in cell2:
                    sparse_add_into(out, (k1, k2), cc * c2)
    return out


def coproduct(crows, v: dict) -> dict:
    """Delta v for a sparse v, Delta given by comult rows."""
    out: dict = {}
    for i, c in v.items():
        for jk, d in crows[i]:
            sparse_add_into(out, jk, c * d)
    return out


# -- the legs of a sparse 2-tensor X = {(a, b): coef} ----------------------------

def coproduct_leg(crows, X: dict, leg: int) -> dict:
    """(Delta (x) id)X for leg 0, (id (x) Delta)X for leg 1, as a sparse
    3-tensor {(x, y, z): coef}; Delta given by comult rows."""
    out: dict = {}
    for (a, b), c in X.items():
        for (j, k), d in crows[b if leg else a]:
            sparse_add_into(out, (a, j, k) if leg else (j, k, b), c * d)
    return out


def functional_leg(f: dict, X: dict, leg: int) -> dict:
    """(f (x) id)X for leg 0, (id (x) f)X for leg 1, for a sparse functional
    f {index: coef}."""
    out: dict = {}
    for (a, b), c in X.items():
        if leg:
            a, b = b, a
        d = f.get(a)
        if d is not None:
            sparse_add_into(out, b, c * d)
    return out


def contract(mrows, A: list[dict], B: list[dict], X: dict) -> dict:
    """m(A (x) B)X = sum c A(e_a) B(e_b) over the terms c e_a (x) e_b of X,
    for linear maps A and B given by their sparse columns."""
    out: dict = {}
    for (a, b), c in X.items():
        for k, d in mult_vectors(mrows, A[a], B[b]).items():
            sparse_add_into(out, k, c * d)
    return out


def sparse_sub(u: dict, v: dict, c: CycloNum | None = None) -> dict:
    """u - c v for sparse vectors (c = 1 when omitted); zero sums are dropped
    and u is left unchanged."""
    out = dict(u)
    for k, a in v.items():
        sparse_add_into(out, k, -a if c is None else -(c * a))
    return out


def sparse_dot(u: dict, v: dict, M: int) -> CycloNum:
    """sum_i u_i v_i for sparse vectors."""
    return sum((c * v[i] for i, c in u.items() if i in v), CycloNum.zero(M))


def ratio(v: dict, w: dict) -> CycloNum | None:
    """c with w = c v, for a nonzero sparse vector v, or None if w is not a
    multiple of v."""
    k = next(iter(v))
    if k not in w:
        return None if w else CycloNum.zero(v[k].M)
    c = w[k] / v[k]
    return c if w == {i: c * a for i, a in v.items()} else None


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


def zero_free(v: dict) -> dict:
    """v with zero coefficients dropped, so equal vectors are equal dicts."""
    return {i: c for i, c in v.items() if not c.is_zero()}


def zero_free_columns(cols) -> tuple[dict, ...]:
    """`cols` with zero coefficients dropped, so equal maps have equal columns."""
    return tuple(zero_free(col) for col in cols)


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
        Bk = B[k]
        if not Bk:
            continue
        for a, ca in A[j].items():
            cca = c * ca
            for b, cb in Bk.items():
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


# -- the dense boundary: the .hopf format and the command line -----------------

def dense_to_sparse(v) -> dict:
    return {i: c for i, c in enumerate(v) if not c.is_zero()}


def sparse_to_dense(d: dict, n: int, M: int) -> list[CycloNum]:
    v = [CycloNum.zero(M)] * n
    for i, c in d.items():
        v[i] = c
    return v


# -- associative algebra invariants ----------------------------------------------

def algebra_radical(mult: SparseTensor3, M: int) -> Subspace:
    """Jacobson radical via the trace form (x,y) -> Tr(L_{xy}); char 0 only.

    Assumes the multiplication is associative and unital (caller-verified).
    """
    n = mult.dims[0]
    T: dict = {}  # T[m] = Tr(L_{e_m})
    for (i, j, k), c in mult.entries:
        if j == k:
            sparse_add_into(T, i, c)
    gram: list[dict] = [{} for _ in range(n)]
    for (i, j, k), c in mult.entries:
        t = T.get(k)
        if t is not None:
            sparse_add_into(gram[i], j, c * t)
    return kernel(gram, n, M)


def ideal_closure(rows, n: int, M: int, generators, multipliers=None) -> Subspace:
    """Smallest subspace containing generators, closed under left and right
    multiplication by each multiplier (by default the basis, which gives
    the two-sided ideal the generators span)."""
    if multipliers is None:
        multipliers = identity_columns(n, M)
    eb = EchelonBasis(n, M)
    work = [g for g in generators if eb.insert(g)]
    while work:
        v = work.pop()
        for g in multipliers:
            for prod in (mult_vectors(rows, v, g), mult_vectors(rows, g, v)):
                if eb.insert(prod):
                    work.append(prod)
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


def commutator_generators(rows, gens) -> list[dict]:
    """The nonzero commutators [a, b] = ab - ba of pairs a before b in the
    sparse vectors `gens`."""
    out = []
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            acc = sparse_sub(mult_vectors(rows, a, b), mult_vectors(rows, b, a))
            if acc:
                out.append(acc)
    return out


def quotient_by_radical(mult: SparseTensor3, rad: Subspace) -> SparseTensor3:
    """Multiplication of A/rad on the canonical complement of the radical.

    A itself when the radical is zero (then no quotient is built).
    """
    if not rad.dim:
        return mult
    return quotient_mult(mult.rows_ij(), rad, rad.projection_columns())


def commutative_quotient_dim(mult: SparseTensor3, M: int, gens=None) -> int:
    """dim of A modulo the two-sided ideal I generated by its commutators.

    `gens` are sparse vectors that generate A as a unital algebra (default:
    the basis).  I is taken as the closure of the [a, b], a, b in gens,
    under left and right multiplication by gens.  It is a two-sided ideal:
    {a : aI in I, Ia in I} is a subalgebra that contains 1 and gens, hence
    every word in them, and these words span A.  A/I is generated by the
    pairwise commuting images of gens, so it is commutative, and each
    [a, b] lies in [A, A]; so I is the commutator ideal.
    """
    n = mult.dims[0]
    rows = mult.rows_ij()
    gens = identity_columns(n, M) if gens is None else gens
    return n - ideal_closure(rows, n, M, commutator_generators(rows, gens),
                             gens).dim


def center(mult: SparseTensor3, M: int, gens=None) -> Subspace:
    """Z(A): the common kernel of z -> gz - zg over the sparse vectors
    `gens`, which generate A as a unital algebra (default: the basis).

    That suffices: the centraliser {a : az = za} of any z is a subalgebra
    that contains 1, since (ab)z = a(zb) = (az)b = z(ab) for a, b in it, so
    once it contains gens it contains every word in them, and these words
    span A.  Its dimension is the block count of A when A is semisimple
    over a splitting field.
    """
    n = mult.dims[0]
    rows = mult.rows_ij()
    basis = identity_columns(n, M)
    gens = basis if gens is None else gens
    return intersect_kernels(
        ([sparse_sub(mult_vectors(rows, g, e), mult_vectors(rows, e, g))
          for e in basis] for g in gens), n, M)
