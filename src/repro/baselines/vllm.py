"""vLLM baseline: iteration-level scheduling plus PagedAttention.

vLLM's iteration-level mode behaves like ORCA (one prefill mixed into each
decoding iteration, early termination of completed queries) but manages the
KV cache in fixed-size blocks, so no memory is wasted on reservations and
larger running batches fit.  Its executor overhead is the highest of the
compared systems -- the paper attributes FT's win over vLLM to exactly that
Python-side overhead (Section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.orca import Orca
from repro.core.config import require_count
from repro.engine.kv_manager import KVCacheError, PagedKVCache


@dataclass
class Vllm(Orca):
    """vLLM: ORCA-style scheduling with a paged KV cache."""

    iteration_overhead_s: float = 0.0015
    name: str = "vllm"
    block_tokens: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        require_count("block_tokens", self.block_tokens)

    def reserved_tokens_per_request(self) -> int:
        """Paged allocation only consumes the tokens actually generated."""
        expected = self.input_distribution.mean + self.output_distribution.mean
        rounded = self.block_tokens * (int(expected) // self.block_tokens + 1)
        return max(rounded, self.block_tokens)

    def _make_kv_cache(self) -> PagedKVCache:
        return PagedKVCache(
            model=self.model,
            num_layers=self.model.num_decoder_layers,
            capacity_bytes=self.kv_capacity(),
            block_tokens=self.block_tokens,
        )

    def _admit(self, cache: PagedKVCache, pool, rid: int) -> bool:
        try:
            cache.ensure(pool.request_id_of(rid), pool.input_len_of(rid) + 1)
        except KVCacheError:
            return False
        return True
