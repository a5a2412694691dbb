"""P1 finite-element assembly: stiffness/mass pairs, element averages and
gradients.

Nodal fields are plain float arrays of length ``mesh.n_nodes``; element
fields have length ``mesh.n_elems``.  Assembly returns full matrices (all
nodes, one stored pattern per mesh, exact zeros included); a
:class:`SparsePencil` gathers their values onto its free nodes (``pick``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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

    Each local matrix is built from its 6 symmetric entries
    area·coeff·(gᵢ·gⱼ), each dot product summed from +0.0 as
    ``einsum("tid,tjd->tij")`` sums it, so every value, signed zeros
    included, is that of the 3×3 ``einsum`` formula.
    """
    coeff = _check_elem(mesh, coeff)
    if (coeff < 0).any():
        raise ValueError("stiffness coefficient must be nonnegative")
    g = mesh.basis_gradients()  # (m, 3, 2)
    scale = mesh.elem_area * coeff
    local = np.empty((mesh.n_elems, 3, 3))
    for i in range(3):
        for j in range(i, 3):
            entry = np.zeros(mesh.n_elems)  # +0.0 + (-0.0) is +0.0, as in einsum
            entry += g[:, i, 0] * g[:, j, 0]
            entry += g[:, i, 1] * g[:, j, 1]
            entry *= scale
            local[:, i, j] = local[:, j, i] = entry
    del g, entry  # freed before _scatter's index arrays
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


def element_gradient(mesh, f, grads=None) -> np.ndarray:
    """Gradient of the P1 interpolant of ``f``: one 2-vector per triangle.

    ``grads`` is ``mesh.basis_gradients()``, formed here if not given.
    """
    f = _check_nodal(mesh, f)
    if grads is None:
        grads = mesh.basis_gradients()
    return np.einsum("ti,tid->td", f[mesh.triangles], grads)


@dataclass(frozen=True)
class SparsePencil:
    """Symmetric (K, M) pair restricted to free (non-Dirichlet) nodes.

    Attributes:
        K: free-restricted stiffness, SPD for strictly positive coefficient.
        M: free-restricted mass, SPD, on K's own index arrays.
        free: free node indices into the full node numbering; on ``disc.pencil`` in the ground LU's order.
        n_nodes: size of the full numbering (for extension by zero).
        lumped: lumped mass over all nodes (discrete integration weights).
        pick: int32, the position of each stored entry of K in a full assembly's values.
    """

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    free: np.ndarray
    n_nodes: int
    lumped: np.ndarray
    pick: np.ndarray

    @property
    def n_free(self) -> int:
        return self.free.size

    def restrict(self, nodal: np.ndarray) -> np.ndarray:
        return np.asarray(nodal, dtype=float)[self.free]

    def extend(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_nodes)
        out[self.free] = vec
        return out

    def gather(self, full: sparse.csr_matrix) -> sparse.csr_matrix:
        """The full-node assembly ``full`` on free nodes: its values at ``pick`` on K's index arrays."""
        return _on_pattern(self.K, full.data[self.pick])

    def renumbered(self, perm: np.ndarray) -> SparsePencil:
        """The pencil with position i holding free node ``free[perm[i]]``; every value keeps its bits."""
        q, K = _restricted(self.K, perm)
        return replace(self, K=K, M=_on_pattern(K, self.M.data[q]), free=self.free[perm], pick=self.pick[q])


def build_pencil(mesh, coeff) -> SparsePencil:
    """Assemble and restrict the (stiffness, mass) pencil for ``coeff``."""
    free = mesh.free_nodes
    if free.size == 0:
        raise ValueError("mesh has no free (interior) nodes")
    K_full = assemble_stiffness(mesh, coeff)
    M_full, lumped = assemble_mass(mesh)
    pick, K = _restricted(K_full, free)
    del K_full
    return SparsePencil(K, _on_pattern(K, M_full.data[pick]), free, mesh.n_nodes, lumped, pick)


def _restricted(A: sparse.csr_matrix, rows: np.ndarray) -> tuple[np.ndarray, sparse.csr_matrix]:
    """``(q, B)``: B = restrict_matrix(A, rows), found on the positions of A's entries; B.data is A.data[q]."""
    q = restrict_matrix(_on_pattern(A, np.arange(A.nnz, dtype=np.int32)), rows)
    return q.data, _on_pattern(q, A.data[q.data])


def _on_pattern(A: sparse.csr_matrix, values: np.ndarray) -> sparse.csr_matrix:
    """``values`` on A's own ``indices`` and ``indptr``."""
    return sparse.csr_matrix((values, A.indices, A.indptr), shape=A.shape)


def restrict_matrix(A: sparse.spmatrix, free: np.ndarray) -> sparse.csr_matrix:
    """Rows and columns ``free`` of A, in that order, as canonical CSR (sorted indices)."""
    A = A.tocsr()[free][:, free]
    A.sort_indices()
    return A


def add_on_pattern(A: sparse.csr_matrix, B: sparse.csr_matrix, c: float) -> sparse.csr_matrix:
    """A + c·B on the index arrays A and B both hold (an O(1) check); entries that cancel to 0 stay stored."""
    if A.shape != B.shape or not (np.shares_memory(A.indptr, B.indptr) and np.shares_memory(A.indices, B.indices)):
        raise ValueError("matrices do not share a stored pattern")
    return _on_pattern(A, A.data + c * B.data)
