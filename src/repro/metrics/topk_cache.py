"""Incremental full-rank evaluation between training epochs.

Full-rank evaluation rescans every user's whole catalog row each epoch even
though, between two evaluation epochs, only the ``U``-rows of the clients
that actually trained changed (and ``V``/``Theta`` only when a non-empty
round was applied).  :class:`TopKCache` exploits that: it keeps the
per-block top-K threshold outcomes — the
:class:`~repro.metrics.evaluation._BlockMetrics` units
:func:`~repro.metrics.evaluation.evaluate_snapshot` reduces over — between
calls and rescores **only the canonical blocks containing a dirty user**.  When the item factors changed, every
score row changed, so the cache drops to a full pass.

Bit-identity to a cold :func:`~repro.metrics.evaluation.evaluate_snapshot`
holds *by construction*, not by luck:

* rescored blocks run the exact per-block pipeline of
  :func:`~repro.metrics.evaluation.evaluate_snapshot`
  (:func:`~repro.metrics.evaluation._measure_block` over
  :func:`~repro.metrics.evaluation._score_block_checked` blocks of the
  canonical :func:`~repro.metrics.evaluation.user_blocks` partitioning),
* clean blocks reuse metrics computed from scores a cold pass would
  reproduce bit-for-bit (unchanged ``U``-rows times unchanged ``V`` through
  the same whole-block call — BLAS results are shape-stable for identical
  inputs),
* the reduction is the evaluation's own
  :func:`~repro.metrics.evaluation._reduce_blocks`.

The dirty bookkeeping is fed from
:meth:`~repro.federated.history.TrainingHistory.consume_dirty`, which the
simulation populates per applied round — see ``docs/architecture.md`` for
the invalidation contract (what marks a user dirty, when the cache must
drop to a full pass).  Over-reporting dirty rows costs wall clock only;
*under*-reporting would serve stale metrics, so every producer marks
conservatively.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError
from repro.metrics.accuracy import _validate_test_items
from repro.metrics.evaluation import (
    DEFAULT_BLOCK_SIZE,
    EvaluationResult,
    ScoreSource,
    _BlockMetrics,
    _measure_block,
    _reduce_blocks,
    _score_block_checked,
    _threshold_cutoffs,
    resolve_score_block,
    user_blocks,
)
from repro.metrics.exposure import _validate_targets
from repro.metrics.ranking import cumulative_discounts

__all__ = ["TopKCache"]


class TopKCache:
    """Per-block full-rank evaluation cache with dirty-row invalidation.

    Parameters
    ----------
    train:
        Training interactions; fixed for the cache's lifetime (the masks
        and the canonical block partitioning derive from it).
    test_items:
        Per-user held-out items for HR@k / NDCG@k (``-1`` skips a user);
        ``None`` disables accuracy.  Fixed per cache — changing the split
        means changing every block's metrics, i.e. a new cache.
    target_items:
        Attack targets for the exposure metrics; ``None`` disables them.
    k:
        Accuracy cutoff.
    block_size:
        Canonical block size — must match the ``evaluate_snapshot`` calls
        the cache claims bit-identity with.

    The cache covers the **full-ranking protocol only** (``num_negatives``
    would draw RNG, and a cached block cannot replay a stream it never
    consumed).  Use :meth:`evaluate` per epoch with the drained dirty state;
    the first call scores everything.
    """

    def __init__(
        self,
        train: InteractionDataset,
        *,
        test_items: np.ndarray | None = None,
        target_items: np.ndarray | None = None,
        k: int = 10,
        block_size: int = DEFAULT_BLOCK_SIZE,
        exposure_ks: tuple[int, int] = (5, 10),
        exposure_ndcg_k: int = 10,
    ) -> None:
        if block_size <= 0:
            raise ModelError(f"block_size must be positive, got {block_size}")
        store = train.interaction_store()
        self._store = store
        self._num_users = store.num_users
        self._num_items = store.num_items
        self._k = int(k)
        self._block_size = int(block_size)
        self._exposure_ks = exposure_ks
        self._exposure_ndcg_k = int(exposure_ndcg_k)
        self._ideal = cumulative_discounts(exposure_ndcg_k)
        self._test_items = (
            _validate_test_items(test_items, self._num_users, self._k)
            if test_items is not None
            else None
        )
        self._target_items = (
            _validate_targets(target_items, self._num_items)
            if target_items is not None
            else None
        )
        self._cutoffs = _threshold_cutoffs(
            self._test_items, self._target_items, None, self._k,
            self._exposure_ks, self._exposure_ndcg_k, self._num_items,
        )
        self._blocks = user_blocks(self._num_users, self._block_size)
        self._cached: list[_BlockMetrics | None] = [None] * len(self._blocks)

    @property
    def num_blocks(self) -> int:
        """Number of canonical blocks the cache partitions users into."""
        return len(self._blocks)

    def invalidate(self) -> None:
        """Drop every cached block (the next call is a full pass)."""
        self._cached = [None] * len(self._blocks)

    def evaluate(
        self,
        source: ScoreSource,
        *,
        dirty_users: np.ndarray | None = None,
        item_factors_changed: bool = True,
    ) -> EvaluationResult:
        """Evaluate, rescoring only the blocks that could have changed.

        Parameters
        ----------
        source:
            The scoring source (protocol object or block callback) over the
            *current* factors.
        dirty_users:
            User ids whose ``U``-rows changed since the previous call.
            Ignored when ``item_factors_changed`` forces a full pass.
            ``None`` means "unknown" and also forces a full pass — the safe
            default for callers without dirty bookkeeping.
        item_factors_changed:
            Whether ``V`` (or the shared scorer ``Theta``) changed since
            the previous call: every score row depends on them, so the
            whole cache is stale.  Defaults to ``True`` — a caller must
            explicitly claim the item factors are clean.
        """
        if self._test_items is None and self._target_items is None:
            return EvaluationResult(accuracy=None, exposure=None)
        resolved = resolve_score_block(source)
        if item_factors_changed or dirty_users is None:
            stale = np.ones(len(self._blocks), dtype=bool)
        else:
            dirty = np.asarray(dirty_users, dtype=np.int64).reshape(-1)
            if dirty.size and (
                int(dirty.min()) < 0 or int(dirty.max()) >= self._num_users
            ):
                raise ModelError(f"dirty user ids out of range [0, {self._num_users})")
            stale = np.zeros(len(self._blocks), dtype=bool)
            # The canonical partitioning is uniform, so a user's block index
            # is a division; a whole block rescores even for one dirty row —
            # BLAS floats are only guaranteed stable for identical whole-block
            # calls, never for row subsets.
            stale[np.unique(dirty // self._block_size)] = True
        for index, (lo, hi) in enumerate(self._blocks):
            if not stale[index] and self._cached[index] is not None:
                continue
            scores = _score_block_checked(resolved, lo, hi, self._num_items)
            self._cached[index] = _measure_block(
                scores, lo, hi, self._store, self._test_items,
                self._target_items, self._k, self._cutoffs,
                self._exposure_ks, self._exposure_ndcg_k, self._ideal,
            )
        blocks = [block for block in self._cached if block is not None]
        return _reduce_blocks(
            blocks, self._test_items, self._target_items, self._exposure_ks
        )
