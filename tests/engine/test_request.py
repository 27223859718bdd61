"""Tests for the per-object request state of the reference pool."""

import pytest

from reference.pool import RequestState
from repro.workloads.trace import RequestSpec


def _state(input_len=16, output_len=4) -> RequestState:
    return RequestState(spec=RequestSpec(0, input_len=input_len, output_len=output_len))


class TestRequestState:
    def test_initial_state(self):
        state = _state()
        assert state.remaining == 4
        assert not state.done

    def test_advance_to_completion(self):
        state = _state(output_len=3)
        state.advance()
        state.advance(2)
        assert state.done
        assert state.remaining == 0

    def test_advancing_past_length_rejected(self):
        state = _state(output_len=2)
        state.advance(2)
        with pytest.raises(ValueError):
            state.advance()

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            _state().advance(-1)

    def test_context_length_decoder_only(self):
        state = _state(input_len=10, output_len=5)
        assert state.context_length(decoder_only=True) == 10
        state.advance(2)
        assert state.context_length(decoder_only=True) == 12

    def test_context_length_encoder_decoder(self):
        state = _state(input_len=10, output_len=5)
        assert state.context_length(decoder_only=False) == 1
        state.advance(3)
        assert state.context_length(decoder_only=False) == 3
