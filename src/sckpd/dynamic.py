"""Seasonal vocabulary of the benchmark and the tests: a schedule of
per-block data summaries, and two aliases of the model's own names.  A fit
does not import this module; its block reader stacks the blocks' scatters
into one ``model.DataSummary``.

Blocks are time ordered: cycle c, season s sits at t = S*(c-1) + s, and the
weights evolve through one transition A shared by every step,
omega_{t+1} = A omega_t, starting from the season-1 weights (so block t
uses t-1 applications of A).  Columns of A summing to one is exactly the
condition that keeps the weights on the simplex; the fit builds A by
normalizing the columns of a positive K x K gamma matrix, once per state,
when ``StateLayout`` decodes it.  The static model is the one-block case,
so the seasonal layout and posterior are the model's own:
``SDLayout`` is ``StateLayout`` and ``sd_log_posterior_grad`` is
``log_posterior_grad``, which reads a schedule's ``scatters`` and
``n_obs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DataSummary, StateLayout, log_posterior_grad

SDLayout = StateLayout
sd_log_posterior_grad = log_posterior_grad


@dataclass(frozen=True)
class SeasonSchedule:
    """Per-block data summaries in time order (season fastest), with their
    rearranged scatters concatenated once into the (T, d1^2, d2^2) array
    the posterior reads and their total observation count."""

    n_seasons: int
    n_cycles: int
    blocks: tuple[DataSummary, ...]
    scatters: np.ndarray = field(init=False, repr=False, compare=False)
    dense: np.ndarray = field(init=False, repr=False, compare=False)
    n_obs: int = field(init=False)

    def __post_init__(self):
        if len(self.blocks) != self.n_seasons * self.n_cycles:
            raise ValueError("need one data block per (cycle, season) pair")
        d1, d2 = self.blocks[0].d1, self.blocks[0].d2
        if any(b.d1 != d1 or b.d2 != d2 for b in self.blocks):
            raise ValueError("all blocks must share the mode dimensions")
        for name in ("scatters", "dense"):
            object.__setattr__(self, name, np.concatenate([getattr(b, name) for b in self.blocks]))
        object.__setattr__(self, "n_obs", sum(b.n_obs for b in self.blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)
