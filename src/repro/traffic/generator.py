"""Traffic generation: the reproduction's TRex/trafgen stand-in.

Generates packet streams over a set of flows with a chosen locality
pattern. All experiments in the paper use 512-byte packets (§5.1); flow
locality controls cache hit rates (Zipf concentrates traffic on few flows,
uniform spreads it).

Flow-index generation is vectorized: the selection patterns return numpy
arrays drawn in one shot.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.nic.packet import DEFAULT_PACKET_BYTES, Packet
from repro.traffic.flows import FlowSpec, synth_flows


class TrafficGenerator:
    """Deterministic (seeded) packet stream generator."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._np_rng = np.random.default_rng(seed)

    # -- flow selection patterns -------------------------------------------------

    def uniform_indices(
        self, n_flows: int, n_packets: int
    ) -> np.ndarray:
        return self._np_rng.integers(
            0, n_flows, size=n_packets, dtype=np.int64
        )

    def zipf_indices(
        self, n_flows: int, n_packets: int, skew: float = 1.2
    ) -> np.ndarray:
        """Zipf-distributed flow choices (high traffic locality)."""
        ranks = np.arange(1, n_flows + 1, dtype=float)
        weights = ranks ** (-skew)
        weights /= weights.sum()
        return self._np_rng.choice(n_flows, size=n_packets, p=weights)

    def round_robin_indices(
        self, n_flows: int, n_packets: int
    ) -> np.ndarray:
        return np.arange(n_packets, dtype=np.int64) % n_flows

    # -- streams -------------------------------------------------------------------

    def stream(
        self,
        flows: Sequence[FlowSpec],
        n_packets: int,
        locality: str = "uniform",
        zipf_skew: float = 1.2,
        size_bytes: int = DEFAULT_PACKET_BYTES,
    ) -> Iterator[Packet]:
        """Yield packets drawn from ``flows`` with the given locality."""
        if not flows:
            return
        if locality == "uniform":
            indices = self.uniform_indices(len(flows), n_packets)
        elif locality == "zipf":
            indices = self.zipf_indices(len(flows), n_packets, zipf_skew)
        elif locality == "round_robin":
            indices = self.round_robin_indices(len(flows), n_packets)
        else:
            raise ValueError(f"Unknown locality {locality!r}")
        for index in indices.tolist():
            yield flows[index].packet(size_bytes)

    def mixed_stream(
        self,
        flow_groups: Sequence[tuple[Sequence[FlowSpec], float]],
        n_packets: int,
        size_bytes: int = DEFAULT_PACKET_BYTES,
    ) -> Iterator[Packet]:
        """Draw from weighted flow groups (e.g. 25% droppable traffic).

        ``flow_groups`` is a list of ``(flows, weight)``; weights are
        normalised. Used to hit configured ACL drop rates. Group choice
        is a single ``searchsorted`` over the precomputed CDF instead of
        a per-packet linear scan.
        """
        groups = [g for g in flow_groups if g[0]]
        if not groups:
            return
        weights = np.array([w for _, w in groups], dtype=float)
        cdf = np.cumsum(weights / weights.sum())
        rolls = self._np_rng.random(n_packets)
        chosen = np.minimum(
            np.searchsorted(cdf, rolls, side="left"), len(groups) - 1
        )
        # Per-group flow picks drawn in bulk (order within a group is
        # irrelevant to the distribution).
        picks = np.zeros(n_packets, dtype=np.int64)
        for group_index, (flows, _) in enumerate(groups):
            mask = chosen == group_index
            count = int(mask.sum())
            if count:
                picks[mask] = self._np_rng.integers(
                    0, len(flows), size=count, dtype=np.int64
                )
        for group_index, flow_index in zip(
            chosen.tolist(), picks.tolist()
        ):
            yield groups[group_index][0][flow_index].packet(size_bytes)


def drop_rate_stream(
    generator: TrafficGenerator,
    n_packets: int,
    drop_rate: float,
    dropped_flows: Optional[Sequence[FlowSpec]] = None,
    passing_flows: Optional[Sequence[FlowSpec]] = None,
) -> Iterable[Packet]:
    """A stream where ``drop_rate`` of packets come from droppable flows."""
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError("drop_rate must be in [0, 1]")
    dropped_flows = dropped_flows or synth_flows(64, dport=6666)
    passing_flows = passing_flows or synth_flows(64, dport=80)
    return generator.mixed_stream(
        [(dropped_flows, drop_rate), (passing_flows, 1.0 - drop_rate)],
        n_packets,
    )
