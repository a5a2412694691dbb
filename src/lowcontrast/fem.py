"""P1 finite-element assembly: stiffness/mass pairs, element averages and
gradients.

Nodal fields are plain float arrays of length ``mesh.n_nodes``; element
fields have length ``mesh.n_elems``.  Assembly returns full matrices
(all nodes); Dirichlet conditions are applied by restriction to free
nodes when building a :class:`SparsePencil`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


def element_average(mesh, nodal: np.ndarray) -> np.ndarray:
    """Per-element average of the three vertex values."""
    nodal = _check_nodal(mesh, nodal)
    return nodal[mesh.triangles].mean(axis=1)


def _check_nodal(mesh, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_nodes,):
        raise ValueError(f"nodal field has length {f.shape}, mesh has {mesh.n_nodes} nodes")
    return f


def _check_elem(mesh, e) -> np.ndarray:
    e = np.asarray(e, dtype=float)
    if e.shape != (mesh.n_elems,):
        raise ValueError(f"element field has length {e.shape}, mesh has {mesh.n_elems} elements")
    return e


def assemble_stiffness(mesh, coeff) -> sparse.csr_matrix:
    """Assemble the full stiffness matrix for the form ∫ coeff ∇u·∇v.

    ``coeff`` is an element field, required nonnegative.  Row sums of the
    returned matrix vanish (constants lie in the kernel) until Dirichlet
    restriction is applied.
    """
    coeff = _check_elem(mesh, coeff)
    if (coeff < 0).any():
        raise ValueError("stiffness coefficient must be nonnegative")
    g = mesh.elem_basis_grad  # (m, 3, 2)
    scale = (mesh.elem_area * coeff)[:, None, None]
    local = scale * np.einsum("tid,tjd->tij", g, g)  # (m, 3, 3)
    return _scatter(mesh, local)


def assemble_mass(mesh) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Assemble the full P1 mass matrix and its lumped (row-sum) diagonal.

    Local matrix is (area/12)·[[2,1,1],[1,2,1],[1,1,2]]; the lumped mass
    assigns area/3 of each triangle to its vertices, so lumped sums equal
    the domain measure.
    """
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = mesh.elem_area[:, None, None] * base[None, :, :]
    M = _scatter(mesh, local)
    lumped = np.asarray(M.sum(axis=1)).ravel()
    return M, lumped


def _scatter(mesh, local) -> sparse.csr_matrix:
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    A = sparse.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    return A.tocsr()


def element_gradient(mesh, f) -> np.ndarray:
    """Gradient of the P1 interpolant of ``f``: one 2-vector per triangle."""
    f = _check_nodal(mesh, f)
    return np.einsum("ti,tid->td", f[mesh.triangles], mesh.elem_basis_grad)


@dataclass(frozen=True)
class SparsePencil:
    """Symmetric (K, M) pair restricted to free (non-Dirichlet) nodes.

    Attributes:
        K: free-restricted stiffness, SPD for strictly positive coefficient.
        M: free-restricted mass, SPD.
        free: free node indices into the full node numbering, in the ground factorization's order.
        n_nodes: size of the full numbering (for extension by zero).
        lumped: lumped mass over all nodes (discrete integration weights).
    """

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    free: np.ndarray
    n_nodes: int
    lumped: np.ndarray

    @property
    def n_free(self) -> int:
        return self.free.size

    def restrict(self, nodal: np.ndarray) -> np.ndarray:
        return np.asarray(nodal, dtype=float)[self.free]

    def extend(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_nodes)
        out[self.free] = vec
        return out


def build_pencil(mesh, coeff) -> SparsePencil:
    """Assemble and restrict the (stiffness, mass) pencil for ``coeff``."""
    K_full = assemble_stiffness(mesh, coeff)
    M_full, lumped = assemble_mass(mesh)
    free = mesh.free_nodes
    if free.size == 0:
        raise ValueError("mesh has no free (interior) nodes")
    K = restrict_matrix(K_full, free)
    M = restrict_matrix(M_full, free)
    return SparsePencil(K=K, M=M, free=free, n_nodes=mesh.n_nodes, lumped=lumped)


def restrict_matrix(A: sparse.spmatrix, free: np.ndarray) -> sparse.csr_matrix:
    """Rows and columns ``free`` of A, in that order, as canonical CSR (sorted indices)."""
    A = A.tocsr()[free][:, free]
    A.sort_indices()
    return A


def add_on_pattern(A: sparse.csr_matrix, B: sparse.csr_matrix, c: float) -> sparse.csr_matrix:
    """A + c·B on A's stored pattern and index arrays, which B must share (:func:`share_pattern`)."""
    return sparse.csr_matrix((A.data + c * share_pattern(A, B).data, A.indices, A.indptr), shape=A.shape)


def share_pattern(A: sparse.csr_matrix, B: sparse.csr_matrix) -> sparse.csr_matrix:
    """B's values on A's own ``indptr`` and ``indices``, which must equal B's.

    Every matrix :func:`_scatter` assembles on a mesh, restricted by
    :func:`restrict_matrix`, stores every vertex pair of every triangle, exact
    zeros included, so a sum of two is one pass over their values.  A scipy sum
    would drop any entry that cancels to 0, and with it the fill-reducing order's pattern.
    """
    if A.shape != B.shape or not (
        np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
    ):
        raise ValueError("matrices do not share a stored pattern")
    return sparse.csr_matrix((B.data, A.indices, A.indptr), shape=A.shape)
