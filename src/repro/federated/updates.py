"""Client update containers.

Each selected client uploads the gradient of the shared item matrix: a
sparse set of item-embedding gradient rows (only the rows of items the client
touched are non-zero, which is what the paper's ``kappa`` constraint counts).

Three representations exist:

* :class:`ClientUpdate` — one client's upload, the unit the attack
  implementations (and the per-client reference round in ``tests/oracles``)
  produce.
* :class:`SparseRoundUpdates` — a whole round's uploads in one CSR-style
  structure (concatenated ``item_ids`` / ``grad_rows`` plus ``client_offsets``
  delimiting each client's segment).  The aggregators consume it without ever
  materialising a dense ``(num_clients, num_items, k)`` tensor.
* :class:`FactoredRoundUpdates` — the *lazy factored* form the batched round
  trainer emits.  A benign BPR gradient row is the rank-1 product
  ``c_bj * u_b`` (plus an optional shared ridge term), so the round is fully
  described by the folded coefficients in CSR layout plus the small
  stacked user matrix; ``sum`` / ``mean`` aggregation and norm bounding reduce
  it with one sparse-matrix product and never materialise the ``(nnz, k)``
  gradient-row array.  Robust aggregators (and anything else that needs the
  rows) transparently convert through :meth:`FactoredRoundUpdates.materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse as _sparse

from repro.exceptions import FederationError
from repro.models.losses import segment_sum

__all__ = [
    "ClientUpdate",
    "SparseRoundUpdates",
    "FactoredRoundUpdates",
    "scatter_rows",
]


def _row_clip_scales(row_norms: np.ndarray, max_norm: float) -> np.ndarray:
    """Per-row scale factors that bound L2 norms by ``max_norm`` (Eq. 23)."""
    return np.minimum(1.0, max_norm / np.maximum(row_norms, 1e-12))


def scatter_rows(
    item_ids: np.ndarray, grad_rows: np.ndarray, num_items: int, num_factors: int
) -> np.ndarray:
    """Sum sparse gradient rows into a dense ``(num_items, k)`` matrix.

    Duplicated item ids accumulate.  Backed by the sparse indicator-matrix
    product of :func:`repro.models.losses.segment_sum`, which is much faster
    than ``np.add.at`` for the tens of thousands of rows a full round
    produces.
    """
    if item_ids.shape[0] == 0:
        return np.zeros((num_items, num_factors), dtype=np.float64)
    return segment_sum(grad_rows, item_ids, num_items)


@dataclass
class ClientUpdate:
    """Gradients uploaded by one client in one round.

    Attributes
    ----------
    client_id:
        Id of the uploading client.
    item_ids:
        Ids of the items whose embedding rows carry non-zero gradient.
    item_gradients:
        The gradient rows aligned with ``item_ids``, shape ``(len, k)``.
    loss:
        The client's local training loss (used for the Figure 3 curves).
    is_malicious:
        Whether the upload came from an attacker-controlled client.  The
        server never reads this flag (it is metadata for analysis/defense
        evaluation only).
    """

    client_id: int
    item_ids: np.ndarray
    item_gradients: np.ndarray
    loss: float = 0.0
    is_malicious: bool = False

    def __post_init__(self) -> None:
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        self.item_gradients = np.asarray(self.item_gradients, dtype=np.float64)
        if self.item_ids.ndim != 1:
            raise FederationError("item_ids must be a 1-D array")
        if self.item_gradients.ndim != 2 or self.item_gradients.shape[0] != self.item_ids.shape[0]:
            raise FederationError(
                "item_gradients must have one row per item id, got "
                f"{self.item_gradients.shape} for {self.item_ids.shape[0]} ids"
            )

    @property
    def num_nonzero_rows(self) -> int:
        """Number of item rows carrying a non-zero gradient."""
        if self.item_gradients.size == 0:
            return 0
        norms = np.linalg.norm(self.item_gradients, axis=1)
        return int(np.sum(norms > 0.0))

    @property
    def max_row_norm(self) -> float:
        """Largest L2 norm among the uploaded gradient rows."""
        if self.item_gradients.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.item_gradients, axis=1)))

    def to_dense(self, num_items: int, num_factors: int) -> np.ndarray:
        """Scatter the sparse rows into a dense ``(num_items, k)`` gradient."""
        dense = np.zeros((num_items, num_factors), dtype=np.float64)
        if self.item_ids.shape[0] > 0:
            np.add.at(dense, self.item_ids, self.item_gradients)
        return dense

    def copy(self) -> "ClientUpdate":
        """Deep copy of the update."""
        return ClientUpdate(
            client_id=self.client_id,
            item_ids=self.item_ids.copy(),
            item_gradients=self.item_gradients.copy(),
            loss=self.loss,
            is_malicious=self.is_malicious,
        )


@dataclass
class SparseRoundUpdates:
    """One round's client uploads in a single CSR-style sparse structure.

    Client ``i``'s item gradient lives in
    ``item_ids[client_offsets[i]:client_offsets[i + 1]]`` /
    ``grad_rows[client_offsets[i]:client_offsets[i + 1]]``; per-client scalar
    metadata (loss, malicious flag) is stored in aligned arrays of length
    ``num_clients``.

    Attributes
    ----------
    client_ids:
        Ids of the uploading clients, shape ``(B,)``.
    item_ids:
        Concatenated touched-item ids of all clients, shape ``(nnz,)``.
    grad_rows:
        Gradient rows aligned with ``item_ids``, shape ``(nnz, k)``.
    client_offsets:
        CSR offsets into ``item_ids`` / ``grad_rows``, shape ``(B + 1,)``.
    losses:
        Per-client local training losses, shape ``(B,)``.
    malicious_mask:
        Per-client attacker flags (analysis metadata only), shape ``(B,)``.
    """

    client_ids: np.ndarray
    item_ids: np.ndarray
    grad_rows: np.ndarray
    client_offsets: np.ndarray
    losses: np.ndarray
    malicious_mask: np.ndarray

    def __post_init__(self) -> None:
        self.client_ids = np.asarray(self.client_ids, dtype=np.int64)
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        self.grad_rows = np.asarray(self.grad_rows, dtype=np.float64)
        self.client_offsets = np.asarray(self.client_offsets, dtype=np.int64)
        self.losses = np.asarray(self.losses, dtype=np.float64)
        self.malicious_mask = np.asarray(self.malicious_mask, dtype=bool)
        num_clients = self.client_ids.shape[0]
        if self.client_offsets.shape[0] != num_clients + 1:
            raise FederationError("client_offsets must have num_clients + 1 entries")
        if self.grad_rows.ndim != 2 or self.grad_rows.shape[0] != self.item_ids.shape[0]:
            raise FederationError("grad_rows must have one row per item id")
        if self.losses.shape[0] != num_clients or self.malicious_mask.shape[0] != num_clients:
            raise FederationError("losses and malicious_mask must have one entry per client")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.client_ids.shape[0])

    @property
    def num_clients(self) -> int:
        """Number of clients that uploaded this round."""
        return int(self.client_ids.shape[0])

    @property
    def num_factors(self) -> int:
        """Feature dimensionality ``k`` of the gradient rows."""
        return int(self.grad_rows.shape[1]) if self.grad_rows.ndim == 2 else 0

    def segment(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Client ``index``'s ``(item_ids, grad_rows)`` slice."""
        start, stop = self.client_offsets[index], self.client_offsets[index + 1]
        return self.item_ids[start:stop], self.grad_rows[start:stop]

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_client_updates(
        cls, updates: Sequence[ClientUpdate], num_factors: int | None = None
    ) -> "SparseRoundUpdates":
        """Pack a list of per-client updates into one sparse round structure."""
        updates = list(updates)
        if num_factors is None:
            num_factors = updates[0].item_gradients.shape[1] if updates else 0
        counts = [u.item_ids.shape[0] for u in updates]
        offsets = np.zeros(len(updates) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if updates:
            item_ids = np.concatenate([u.item_ids for u in updates])
            grad_rows = (
                np.concatenate([u.item_gradients for u in updates], axis=0)
                if int(offsets[-1]) > 0
                else np.empty((0, num_factors), dtype=np.float64)
            )
        else:
            item_ids = np.empty(0, dtype=np.int64)
            grad_rows = np.empty((0, num_factors), dtype=np.float64)
        return cls(
            client_ids=np.array([u.client_id for u in updates], dtype=np.int64),
            item_ids=item_ids,
            grad_rows=grad_rows,
            client_offsets=offsets,
            losses=np.array([u.loss for u in updates], dtype=np.float64),
            malicious_mask=np.array([u.is_malicious for u in updates], dtype=bool),
        )

    def to_client_updates(self) -> list[ClientUpdate]:
        """Materialise the round as a list of per-client :class:`ClientUpdate`.

        The returned updates hold *views* into this structure's arrays (no
        per-segment copies), so the conversion is cheap even for large rounds;
        treat them as read-only, exactly like any upload handed to
        observers.
        """
        updates: list[ClientUpdate] = []
        for index in range(self.num_clients):
            ids, rows = self.segment(index)
            updates.append(
                ClientUpdate(
                    client_id=int(self.client_ids[index]),
                    item_ids=ids,
                    item_gradients=rows,
                    loss=float(self.losses[index]),
                    is_malicious=bool(self.malicious_mask[index]),
                )
            )
        return updates

    def extended(self, extra: Iterable[ClientUpdate]) -> "SparseRoundUpdates":
        """A new round structure with ``extra`` client updates appended."""
        extra = list(extra)
        if not extra:
            return self
        other = SparseRoundUpdates.from_client_updates(
            extra, num_factors=self.num_factors if self.grad_rows.size else None
        )
        if self.grad_rows.size == 0:
            grad_rows = other.grad_rows
        elif other.grad_rows.size == 0:
            grad_rows = self.grad_rows
        else:
            grad_rows = np.concatenate([self.grad_rows, other.grad_rows], axis=0)
        return SparseRoundUpdates(
            client_ids=np.concatenate([self.client_ids, other.client_ids]),
            item_ids=np.concatenate([self.item_ids, other.item_ids]),
            grad_rows=grad_rows,
            client_offsets=np.concatenate(
                [self.client_offsets, self.client_offsets[-1] + other.client_offsets[1:]]
            ),
            losses=np.concatenate([self.losses, other.losses]),
            malicious_mask=np.concatenate([self.malicious_mask, other.malicious_mask]),
        )

    # ------------------------------------------------------------------ #
    # Aggregation helpers
    # ------------------------------------------------------------------ #
    def sum_item_gradient(self, num_items: int, num_factors: int) -> np.ndarray:
        """Dense sum of all clients' item gradients (one scatter, Eq. 7)."""
        return scatter_rows(self.item_ids, self.grad_rows, num_items, num_factors)

    def clipped_sum_item_gradient(
        self, num_items: int, num_factors: int, max_norm: float
    ) -> np.ndarray:
        """Dense gradient sum with every row clipped to L2 norm ``max_norm``."""
        grad_rows = self.grad_rows
        if grad_rows.shape[0] > 0:
            norms = np.linalg.norm(grad_rows, axis=1)
            grad_rows = grad_rows * _row_clip_scales(norms, max_norm)[:, None]
        return scatter_rows(self.item_ids, grad_rows, num_items, num_factors)

    def dense_over_union(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-client dense tensor restricted to the union of touched rows.

        Returns ``(tensor, union)`` where ``union`` is the sorted array of
        distinct touched item ids and ``tensor`` has shape
        ``(num_clients, len(union), k)``.  Rows outside the union are zero for
        every client, so robust coordinate-wise statistics computed on this
        tensor match the full dense computation at a fraction of the memory.
        """
        union, columns = np.unique(self.item_ids, return_inverse=True)
        num_clients = self.num_clients
        num_factors = self.num_factors
        width = union.shape[0]
        if width == 0:
            return np.zeros((num_clients, 0, num_factors)), union
        rows = np.repeat(
            np.arange(num_clients, dtype=np.int64), np.diff(self.client_offsets)
        )
        flat_ids = rows * width + columns
        tensor = scatter_rows(flat_ids, self.grad_rows, num_clients * width, num_factors)
        return tensor.reshape(num_clients, width, num_factors), union


@dataclass
class FactoredRoundUpdates:
    """One round's benign uploads in lazy factored "coefficients + users" form.

    Every benign gradient row is the rank-1 product of a scalar BPR
    coefficient and the client's private vector:

        grad_row(b, j) = coefficients[r] * user_vectors[b] + ridge * V[j]

    where ``r`` runs over client ``b``'s CSR segment and the ridge term (with
    ``ridge = 2 * l2_reg`` against the round's item matrix ``V``) only exists
    under L2 regularisation.  Storing the factors instead of the rows makes
    ``sum`` / ``mean`` aggregation a single sparse-matrix product ``C^T @ U``
    — the ``(nnz, k)`` row array of :class:`SparseRoundUpdates` is never
    materialised — and per-row norm bounding a rescaling of the coefficients.

    Malicious uploads appended by :meth:`extended` are arbitrary dense rows,
    so they live in a small CSR-style ``tail`` that every reduction adds on
    top of the factored sum.  Consumers that genuinely need gradient rows
    (robust aggregators, observers, defenses) call :meth:`materialize` and get
    the exact :class:`SparseRoundUpdates` the round would otherwise have been.

    Attributes
    ----------
    client_ids:
        Ids of the factored (benign) uploading clients, shape ``(B,)``.
    item_ids:
        Concatenated touched-item ids, shape ``(nnz,)``, sorted per client.
    coefficients:
        Folded per-(client, item) BPR coefficients aligned with ``item_ids``.
    client_offsets:
        CSR offsets delimiting each client's segment, shape ``(B + 1,)``.
    user_vectors:
        The clients' stacked private vectors *before* the local step, shape
        ``(B, k)`` — the right factor of every gradient row.
    losses, malicious_mask:
        Per-client losses and attacker flags with the same meaning as on
        :class:`SparseRoundUpdates`.
    ridge:
        Scalar weight of the shared ridge term (``2 * l2_reg``; 0 disables).
    ridge_matrix:
        The item matrix the ridge term is taken against (required when
        ``ridge != 0``).
    tail:
        Optional dense CSR tail of appended (typically malicious) uploads.
    """

    client_ids: np.ndarray
    item_ids: np.ndarray
    coefficients: np.ndarray
    client_offsets: np.ndarray
    user_vectors: np.ndarray
    losses: np.ndarray
    malicious_mask: np.ndarray
    ridge: float = 0.0
    ridge_matrix: np.ndarray | None = None
    tail: SparseRoundUpdates | None = None

    def __post_init__(self) -> None:
        self.client_ids = np.asarray(self.client_ids, dtype=np.int64)
        self.item_ids = np.asarray(self.item_ids, dtype=np.int64)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        self.client_offsets = np.asarray(self.client_offsets, dtype=np.int64)
        self.user_vectors = np.asarray(self.user_vectors, dtype=np.float64)
        self.losses = np.asarray(self.losses, dtype=np.float64)
        self.malicious_mask = np.asarray(self.malicious_mask, dtype=bool)
        self.ridge = float(self.ridge)
        num_clients = self.client_ids.shape[0]
        if self.client_offsets.shape[0] != num_clients + 1:
            raise FederationError("client_offsets must have num_clients + 1 entries")
        if self.coefficients.shape != self.item_ids.shape:
            raise FederationError("coefficients must align with item_ids")
        if self.user_vectors.ndim != 2 or self.user_vectors.shape[0] != num_clients:
            raise FederationError("user_vectors must have one row per client")
        if self.losses.shape[0] != num_clients or self.malicious_mask.shape[0] != num_clients:
            raise FederationError("losses and malicious_mask must have one entry per client")
        if self.ridge != 0.0 and self.ridge_matrix is None:
            raise FederationError("a non-zero ridge requires ridge_matrix")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_clients

    @property
    def num_clients(self) -> int:
        """Total clients this round (factored part plus dense tail)."""
        total = int(self.client_ids.shape[0])
        if self.tail is not None:
            total += self.tail.num_clients
        return total

    @property
    def num_factored_clients(self) -> int:
        """Clients stored in the factored (benign) part only."""
        return int(self.client_ids.shape[0])

    @property
    def num_factors(self) -> int:
        """Feature dimensionality ``k``."""
        return int(self.user_vectors.shape[1]) if self.user_vectors.ndim == 2 else 0

    @property
    def owners(self) -> np.ndarray:
        """For every coefficient, the index of the client row owning it."""
        return np.repeat(
            np.arange(self.num_factored_clients, dtype=np.int64),
            np.diff(self.client_offsets),
        )

    # ------------------------------------------------------------------ #
    # Lazy reductions (never materialise gradient rows)
    # ------------------------------------------------------------------ #
    def sum_item_gradient(self, num_items: int, num_factors: int) -> np.ndarray:
        """Dense gradient sum ``C^T @ U`` (+ ridge + tail) without row arrays."""
        total = self._base_sum_item_gradient(num_items, num_factors)
        if self.tail is not None:
            total += self.tail.sum_item_gradient(num_items, num_factors)
        return total

    def clipped_sum_item_gradient(
        self, num_items: int, num_factors: int, max_norm: float
    ) -> np.ndarray:
        """Gradient sum with per-row L2 clipping, still in factored form.

        Without a ridge term a row's norm is ``|c| * ||u_owner||``, so the
        clip is a per-coefficient rescale.  With a ridge term rows are no
        longer rank-1 and the computation falls back to the CSR path.
        """
        if self.ridge != 0.0:
            return self.materialize().clipped_sum_item_gradient(
                num_items, num_factors, max_norm
            )
        clipped = self.clipped_rows(max_norm)
        total = clipped._base_sum_item_gradient(num_items, num_factors)
        if clipped.tail is not None:
            total += clipped.tail.sum_item_gradient(num_items, num_factors)
        return total

    def _base_sum_item_gradient(self, num_items: int, num_factors: int) -> np.ndarray:
        if self.item_ids.shape[0] == 0:
            return np.zeros((num_items, num_factors), dtype=np.float64)
        # The (num_items, clients) transpose of the coefficient CSR, built
        # directly: the same three arrays read column-major.
        coefficient_matrix = _sparse.csc_matrix(
            (self.coefficients, self.item_ids, self.client_offsets),
            shape=(num_items, self.num_factored_clients),
        )
        total = np.asarray(coefficient_matrix @ self.user_vectors)
        if self.ridge != 0.0:
            counts = np.bincount(self.item_ids, minlength=num_items).astype(np.float64)
            total += self.ridge * counts[:, None] * self.ridge_matrix
        return total

    def clipped_rows(self, max_norm: float) -> "FactoredRoundUpdates":
        """A copy with every factored row clipped to L2 norm ``max_norm``.

        Only valid without a ridge term (rows must be rank-1 for the clip to
        reduce to a coefficient rescale); the tail is clipped row-wise.
        """
        if self.ridge != 0.0:
            raise FederationError("cannot clip factored rows with a ridge term")
        user_norms = np.linalg.norm(self.user_vectors, axis=1)
        row_norms = np.abs(self.coefficients) * user_norms[self.owners]
        scales = _row_clip_scales(row_norms, max_norm)
        tail = self.tail
        if tail is not None and tail.grad_rows.shape[0] > 0:
            tail_norms = np.linalg.norm(tail.grad_rows, axis=1)
            tail = SparseRoundUpdates(
                client_ids=tail.client_ids,
                item_ids=tail.item_ids,
                grad_rows=tail.grad_rows * _row_clip_scales(tail_norms, max_norm)[:, None],
                client_offsets=tail.client_offsets,
                losses=tail.losses,
                malicious_mask=tail.malicious_mask,
            )
        return FactoredRoundUpdates(
            client_ids=self.client_ids,
            item_ids=self.item_ids,
            coefficients=self.coefficients * scales,
            client_offsets=self.client_offsets,
            user_vectors=self.user_vectors,
            losses=self.losses,
            malicious_mask=self.malicious_mask,
            ridge=0.0,
            ridge_matrix=None,
            tail=tail,
        )

    # ------------------------------------------------------------------ #
    # Conversions (materialise only when a consumer needs actual rows)
    # ------------------------------------------------------------------ #
    def materialize(self) -> SparseRoundUpdates:
        """The exact :class:`SparseRoundUpdates` this factored round encodes."""
        grad_rows = self.user_vectors[self.owners]
        grad_rows *= self.coefficients[:, None]
        if self.ridge != 0.0:
            grad_rows = grad_rows + self.ridge * self.ridge_matrix[self.item_ids]
        base = SparseRoundUpdates(
            client_ids=self.client_ids,
            item_ids=self.item_ids,
            grad_rows=grad_rows,
            client_offsets=self.client_offsets,
            losses=self.losses,
            malicious_mask=self.malicious_mask,
        )
        if self.tail is None:
            return base
        return base.extended(self.tail.to_client_updates())

    def to_client_updates(self) -> list[ClientUpdate]:
        """Materialise the round as per-client :class:`ClientUpdate` objects."""
        return self.materialize().to_client_updates()

    def dense_over_union(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-client dense tensor over the union of touched rows (CSR path)."""
        return self.materialize().dense_over_union()

    def extended(self, extra: Iterable[ClientUpdate]) -> "FactoredRoundUpdates":
        """A new factored round with ``extra`` dense client updates appended.

        The factored part is shared (no copies); the extra updates land in the
        dense tail, so attack rounds keep the lazy benign representation.
        """
        extra = list(extra)
        if not extra:
            return self
        if self.tail is None:
            tail = SparseRoundUpdates.from_client_updates(extra, num_factors=self.num_factors)
        else:
            tail = self.tail.extended(extra)
        return FactoredRoundUpdates(
            client_ids=self.client_ids,
            item_ids=self.item_ids,
            coefficients=self.coefficients,
            client_offsets=self.client_offsets,
            user_vectors=self.user_vectors,
            losses=self.losses,
            malicious_mask=self.malicious_mask,
            ridge=self.ridge,
            ridge_matrix=self.ridge_matrix,
            tail=tail,
        )
