"""Seasonal vocabulary of the benchmark and the tests: a schedule of
per-block data summaries, and two aliases of the model's own names.  A fit
does not import this module; its block reader stacks the blocks' scatters
into one ``model.DataSummary``, and a schedule is the same summary, stacked
from per-block summaries: one (T, ...) stack of the scatters, in the one
form that the blocks' shape picks (``model.dense_contraction``).

Blocks are time ordered: cycle c, season s sits at t = S*(c-1) + s, and the
weights evolve through one transition A shared by every step,
omega_{t+1} = A omega_t, starting from the season-1 weights (so block t
uses t-1 applications of A).  Columns of A summing to one is exactly the
condition that keeps the weights on the simplex; the fit builds A by
normalizing the columns of a positive K x K gamma matrix, once per state,
when ``StateLayout`` decodes it.  The static model is the one-block case,
so the seasonal layout and posterior are the model's own:
``SDLayout`` is ``StateLayout`` and ``sd_log_posterior_grad`` is
``log_posterior_grad``, which reads a schedule as it reads any summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DataSummary, StateLayout, log_posterior_grad

SDLayout = StateLayout
sd_log_posterior_grad = log_posterior_grad


@dataclass(frozen=True, init=False)
class SeasonSchedule(DataSummary):
    """Per-block data summaries in time order (season fastest), which share
    their mode dimensions and scatter form; as a :class:`DataSummary`, the
    schedule is their scatters concatenated once into the (T, ...) stack the
    posterior reads, and their total observation count.  ``n_seasons`` and
    ``n_cycles`` only check that there is one block per (cycle, season)
    pair; the schedule keeps the blocks alone."""

    blocks: tuple[DataSummary, ...]

    def __init__(self, n_seasons: int, n_cycles: int, blocks: tuple[DataSummary, ...]):
        if len(blocks) != n_seasons * n_cycles:
            raise ValueError("need one data block per (cycle, season) pair")
        forms = {(b.d1, b.d2, b.rearranged) for b in blocks}
        if len(forms) != 1:
            raise ValueError("all blocks must share the mode dimensions and the scatter form")
        d1, d2, rearranged = forms.pop()
        super().__init__(sum(b.n_obs for b in blocks), d1, d2,
                         np.concatenate([b.scatters for b in blocks]), rearranged)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)
