"""Top-K recommendation service over immutable factor snapshots.

The service answers ``top_k`` / ``top_k_batch`` queries against the current
:class:`~repro.serving.snapshot.FactorSnapshot` through two cache layers,
both guarded by one re-entrant lock and both invalidated atomically by
:meth:`RecommenderService.swap_snapshot`:

* a **block-score cache** holding the *raw* (unmasked) score rows of whole
  canonical user blocks (:func:`~repro.metrics.evaluation.user_blocks`) —
  scoring whole blocks is what makes every served float bit-identical to
  :func:`~repro.metrics.evaluation.evaluate_snapshot` at the same block
  size (BLAS results are not row-stable across GEMM shapes), and caching
  the raw rows means one GEMM serves every user of the block, every ``k``
  and the exposure hook alike;
* a **per-user memo** of finished :class:`Recommendation` objects keyed by
  ``(user, min(k, n_items))``, so repeat queries skip masking and selection
  entirely; it keeps at most ``n_users`` entries (least recently used
  evicted first), so a client-chosen ``k`` cannot grow it without bound.

Batch queries group users by block so each block is scored by a single
stacked pass, then run the *same* per-row selection helper as single
queries — batch and single responses are bit-identical by construction,
not by testing luck.

Top-K selection uses the evaluation engine's threshold rule: an item makes
the list iff its masked score reaches the block's K-th-largest masked score
(one ``np.partition`` per row — the optimistic-rank membership rule of
``metrics/evaluation.py``), with boundary ties broken deterministically in
favour of the lowest item id by a stable sort.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ServingError
from repro.metrics.evaluation import DEFAULT_BLOCK_SIZE, ScoreBlockFunction, user_blocks
from repro.serving.snapshot import FactorSnapshot

if TYPE_CHECKING:
    from repro.data.dataset import InteractionDataset
    from repro.data.store import InteractionStore

__all__ = ["Recommendation", "RecommenderService"]


@dataclass(frozen=True)
class Recommendation:
    """One answered top-K query (arrays read-only, safe to memoise)."""

    user: int
    items: np.ndarray
    scores: np.ndarray
    snapshot_version: int

    def to_json_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (used by the HTTP front end)."""
        return {
            "user": self.user,
            "items": [int(item) for item in self.items],
            "scores": [float(score) for score in self.scores],
            "snapshot_version": self.snapshot_version,
        }


class RecommenderService:
    """Thread-safe top-K query service over one factor snapshot.

    Parameters
    ----------
    snapshot:
        The immutable factors to serve.  Swappable at runtime through
        :meth:`swap_snapshot`.
    train:
        Training interactions whose positives are excluded from
        recommendations (required unless ``exclude_seen=False``); also the
        mask source of :func:`~repro.serving.exposure.exposure_under_serving`.
    top_k:
        Default list length when a query does not specify ``k``.
    exclude_seen:
        Whether a user's training positives are masked out of their list
        (the evaluation protocol's convention; default True).
    block_size:
        Users per scoring block.  Must match the ``block_size`` of any
        :func:`~repro.metrics.evaluation.evaluate_snapshot` call whose
        floats the service's are expected to coincide with (both default to
        :data:`~repro.metrics.evaluation.DEFAULT_BLOCK_SIZE`).
    max_cached_blocks:
        Upper bound on cached score blocks (LRU eviction); ``None`` caches
        every block (the full raw score matrix at steady state).
    """

    def __init__(
        self,
        snapshot: FactorSnapshot,
        train: "InteractionDataset | None" = None,
        *,
        top_k: int = 10,
        exclude_seen: bool = True,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_cached_blocks: int | None = None,
    ) -> None:
        if top_k <= 0:
            raise ServingError(f"top_k must be positive, got {top_k}")
        if block_size <= 0:
            raise ServingError(f"block_size must be positive, got {block_size}")
        if max_cached_blocks is not None and max_cached_blocks <= 0:
            raise ServingError(
                f"max_cached_blocks must be positive or None, got {max_cached_blocks}"
            )
        if exclude_seen and train is None:
            raise ServingError(
                "exclude_seen=True requires the training interactions "
                "(pass train=... or exclude_seen=False)"
            )
        if train is not None and (
            train.num_users != snapshot.n_users or train.num_items != snapshot.n_items
        ):
            raise ServingError(
                f"train covers ({train.num_users}, {train.num_items}) users/items "
                f"but the snapshot covers ({snapshot.n_users}, {snapshot.n_items})"
            )
        self._lock = threading.RLock()
        self._snapshot = snapshot
        self._model = snapshot.model()
        self._train = train
        self._store: InteractionStore | None = (
            train.interaction_store() if train is not None else None
        )
        self._top_k = int(top_k)
        self._exclude_seen = bool(exclude_seen)
        self._block_size = int(block_size)
        self._max_cached_blocks = max_cached_blocks
        self._blocks = user_blocks(snapshot.n_users, self._block_size)
        self._block_scores: OrderedDict[int, np.ndarray] = OrderedDict()
        self._memo: OrderedDict[tuple[int, int], Recommendation] = OrderedDict()
        self._queries = 0
        self._memo_hits = 0
        self._blocks_scored = 0
        self._snapshot_swaps = 0
        self._failed_swaps = 0

    @property
    def snapshot(self) -> FactorSnapshot:
        """The snapshot currently being served."""
        with self._lock:
            return self._snapshot

    @property
    def train(self) -> "InteractionDataset | None":
        """The training interactions backing ``exclude_seen`` masking."""
        return self._train

    @property
    def block_size(self) -> int:
        """Users per scoring block (the bit-reproducibility contract knob)."""
        return self._block_size

    def stats(self) -> dict[str, int]:
        """Monotone counters: queries, memo hits, blocks scored, swaps."""
        with self._lock:
            return {
                "queries": self._queries,
                "memo_hits": self._memo_hits,
                "blocks_scored": self._blocks_scored,
                "cached_blocks": len(self._block_scores),
                "memo_entries": len(self._memo),
                "snapshot_swaps": self._snapshot_swaps,
                "failed_swaps": self._failed_swaps,
                "snapshot_version": self._snapshot.version,
            }

    def swap_snapshot(self, snapshot: FactorSnapshot) -> None:
        """Atomically replace the served snapshot and drop every cache entry.

        The new snapshot must cover the same user/item universe (the masking
        store and block partitioning are built for it); anything else is a
        deployment error, not a swap.

        The swap is all-or-nothing: the new snapshot's model is built *before*
        any service state is touched, so a snapshot whose model construction
        fails leaves the old snapshot, model and caches fully in place (the
        failure is counted in ``stats()['failed_swaps']`` and re-raised as a
        :class:`~repro.exceptions.ServingError`).
        """
        if (
            snapshot.n_users != self._snapshot.n_users
            or snapshot.n_items != self._snapshot.n_items
        ):
            with self._lock:
                self._failed_swaps += 1
            raise ServingError(
                f"swapped snapshot covers ({snapshot.n_users}, {snapshot.n_items}) "
                f"users/items but the service was built for "
                f"({self._snapshot.n_users}, {self._snapshot.n_items})"
            )
        try:
            model = snapshot.model()
        except Exception as error:
            with self._lock:
                self._failed_swaps += 1
            raise ServingError(
                f"snapshot swap rolled back: building the new snapshot's "
                f"model failed ({error}); the previous snapshot is still served"
            ) from error
        with self._lock:
            self._snapshot = snapshot
            self._model = model
            self._block_scores.clear()
            self._memo.clear()
            self._snapshot_swaps += 1

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def _block_index(self, user: int) -> int:
        return user // self._block_size

    def _block_rows(self, block_index: int) -> np.ndarray:
        """The raw (unmasked) score rows of one canonical block, cached.

        Caller must hold the lock.  The returned array is read-only and must
        never be handed out without copying.
        """
        cached = self._block_scores.get(block_index)
        if cached is not None:
            self._block_scores.move_to_end(block_index)
            return cached
        lo, hi = self._blocks[block_index]
        rows = np.asarray(
            self._model.score_block(np.arange(lo, hi, dtype=np.int64)),
            dtype=np.float64,
        )
        if rows.shape != (hi - lo, self._snapshot.n_items):
            raise ServingError(
                f"model produced a {rows.shape} block for users [{lo}, {hi}), "
                f"expected ({hi - lo}, {self._snapshot.n_items})"
            )
        rows.setflags(write=False)
        self._block_scores[block_index] = rows
        self._blocks_scored += 1
        if (
            self._max_cached_blocks is not None
            and len(self._block_scores) > self._max_cached_blocks
        ):
            self._block_scores.popitem(last=False)
        return rows

    def _raw_row(self, user: int) -> np.ndarray:
        """The user's raw score row (a read-only view into the block cache)."""
        block_index = self._block_index(user)
        lo, _ = self._blocks[block_index]
        return self._block_rows(block_index)[user - lo]

    def _select_top_k(self, user: int, raw_row: np.ndarray, k: int) -> Recommendation:
        """Rank one user's raw row under the evaluation threshold rule.

        Shared verbatim by single and batch queries — their bit-equality is
        by construction.  Ties at the K-th-largest boundary are broken in
        favour of the lowest item id (stable sort over ascending candidate
        ids).
        """
        num_items = raw_row.shape[0]
        masked = raw_row.copy()
        if self._exclude_seen and self._store is not None:
            masked[self._store.positives(user)] = -np.inf
        effective_k = min(k, num_items)
        threshold = np.partition(masked, num_items - effective_k)[num_items - effective_k]
        candidates = np.flatnonzero(masked >= threshold)
        order = np.argsort(-masked[candidates], kind="stable")[:effective_k]
        items = candidates[order]
        scores = raw_row[items].copy()
        items.setflags(write=False)
        scores.setflags(write=False)
        return Recommendation(
            user=int(user),
            items=items,
            scores=scores,
            snapshot_version=self._snapshot.version,
        )

    def _checked_user(self, user: int) -> int:
        resolved = int(user)
        if not 0 <= resolved < self._snapshot.n_users:
            raise ServingError(
                f"user {resolved} out of range [0, {self._snapshot.n_users})"
            )
        return resolved

    def _checked_k(self, k: int | None) -> int:
        resolved = self._top_k if k is None else int(k)
        if resolved <= 0:
            raise ServingError(f"k must be positive, got {resolved}")
        return resolved

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _answer(self, user: int, k: int) -> Recommendation:
        """One memoised answer; the caller holds the lock.

        Every ``k`` at or past the catalog size asks for the same
        full-catalog list, so the memo key caps ``k`` at ``n_items``; the
        memo evicts its least recently used entry beyond ``n_users``.
        """
        self._queries += 1
        memo_key = (user, min(k, self._snapshot.n_items))
        hit = self._memo.get(memo_key)
        if hit is not None:
            self._memo_hits += 1
            self._memo.move_to_end(memo_key)
            return hit
        recommendation = self._select_top_k(user, self._raw_row(user), memo_key[1])
        self._memo[memo_key] = recommendation
        if len(self._memo) > self._snapshot.n_users:
            self._memo.popitem(last=False)
        return recommendation

    def top_k(self, user: int, k: int | None = None) -> Recommendation:
        """The user's top-K recommendation list (memoised)."""
        resolved_user = self._checked_user(user)
        resolved_k = self._checked_k(k)
        with self._lock:
            return self._answer(resolved_user, resolved_k)

    def top_k_batch(
        self, users: "np.ndarray | list[int]", k: int | None = None
    ) -> list[Recommendation]:
        """Answer many queries with one blocked scoring pass per block.

        Users are grouped by canonical block so each block's GEMM runs at
        most once for the whole batch; selection then runs the same per-row
        helper as :meth:`top_k`, so batched responses are bit-identical to
        the equivalent single queries (and are memoised identically).
        """
        requested = np.asarray(users, dtype=np.int64)
        if requested.ndim != 1:
            raise ServingError(
                f"users must be a 1-D sequence of ids, got shape {requested.shape}"
            )
        resolved_k = self._checked_k(k)
        resolved_users = [self._checked_user(int(user)) for user in requested]
        with self._lock:
            for block_index in sorted({self._block_index(u) for u in resolved_users}):
                self._block_rows(block_index)
            return [self._answer(user, resolved_k) for user in resolved_users]

    def score_block_function(self) -> ScoreBlockFunction:
        """A block-score callback serving *copies* of the cached raw rows.

        This is the bridge to :func:`~repro.metrics.evaluation.evaluate_snapshot`
        (and the :func:`~repro.serving.exposure.exposure_under_serving` hook):
        evaluation masks score matrices in place, so the callback hands out
        owned copies while the cache keeps its read-only originals.  When the
        requested users align with the canonical partitioning (which
        ``evaluate_snapshot`` at this service's ``block_size`` guarantees),
        every float returned comes straight from the cached whole-block GEMMs.
        """

        def score_block(users: np.ndarray) -> np.ndarray:
            requested = np.asarray(users, dtype=np.int64)
            with self._lock:
                out = np.empty(
                    (requested.shape[0], self._snapshot.n_items), dtype=np.float64
                )
                for position, user in enumerate(requested):
                    out[position] = self._raw_row(self._checked_user(int(user)))
                return out

        return score_block
