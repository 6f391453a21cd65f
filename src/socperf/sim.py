"""Discrete-event simulation of multi-component co-execution.

A single stream of numbered frames feeds one shared ready queue. Every
engaged component, the moment it is idle, claims the lowest-numbered
unclaimed frame and finishes it one service time later; with a single
producer this shared-queue formulation is observationally equivalent to
per-worker deques with stealing, and it is deterministic. Completed
frames pass through a reorder buffer that releases them strictly in
sequence order.

Service time per frame on a component is 1/rate + dispatch overhead,
where rate is the measured isolated throughput scaled by an availability
factor. Factors model host-cluster contention: they default to 1.0, can
be set explicitly per component, or derived from an opt-in per-hosted-
accelerator derating. Optional lognormal jitter (given coefficient of
variation and seed, 0 unless set, so jittered runs repeat too) perturbs
the processing part of the service time.

The event loop is single threaded; identical scenarios yield bit-identical
results. Independent scenarios can safely run concurrently since nothing
here shares mutable state.
"""

import heapq
import math
import random
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, NamedTuple, Optional

from .dataset import network_by_id, platform_by_id
from .errors import MalformedDocument
from .profiles import (NetworkProfile, Platform, _set, count, ids, keys, number,
                       obj, one_of, reads_document, text, unique, unwrap)


# The largest jitter cv whose square, which simulate takes, is finite.
_MAX_JITTER_CV = 1e154
# The most frames one run takes, refused before anything is allocated.
# simulate allocates 1 byte per frame up front and costs about 730 ns per
# frame (some 7 s at the cap). A run that records events allocates 9 more
# bytes per frame for its log below 257 engaged components (about 100 MB
# at the cap) and costs about 950 ns per frame.
_MAX_FRAMES = 10 ** 7


@dataclass(frozen=True)
class Scenario:
    """Input of one co-execution run.

    Numbers are stored as floats and contention as a read-only copy.
    """

    platform_id: str
    network_id: str
    engaged: tuple[str, ...]
    frame_count: int
    dispatch_overhead_s: float = 0.0
    contention: dict[str, float] = field(default_factory=dict)
    host_contention_default: Optional[float] = None
    jitter_seed: int = 0
    jitter_cv: float = 0.0

    def __post_init__(self):
        text(self.platform_id, "platform", "scenario")
        text(self.network_id, "network", "scenario")
        _set(self, "engaged", ids(self.engaged, "components", "scenario"))
        unique(self.engaged, "component", "scenario")
        count(self.frame_count, "frames", "scenario", high=_MAX_FRAMES)
        _set(self, "dispatch_overhead_s", number(
            self.dispatch_overhead_s, "dispatch_overhead_s", "scenario",
            include_low=True))
        _set(self, "contention", MappingProxyType({
            one_of(comp_id, self.engaged, "component", "scenario contention"):
            number(factor, comp_id, "scenario contention", high=1.0)
            for comp_id, factor
            in obj(self.contention, "contention", "scenario").items()}))
        if self.host_contention_default is not None:
            _set(self, "host_contention_default", number(
                self.host_contention_default, "host_contention_default",
                "scenario", high=1.0))
        count(self.jitter_seed, "seed", "scenario jitter", low=0)
        _set(self, "jitter_cv", number(self.jitter_cv, "cv", "scenario jitter",
                                       high=_MAX_JITTER_CV, include_low=True))


# Scenario document keys, with the value an absent key takes.
_SCENARIO_DOC = {
    "platform": None, "network": None, "components": None, "frames": None,
    "dispatch_overhead_s": 0.0, "contention": {}, "host_contention_default": None,
    "jitter": {}}
_JITTER_DOC = {"seed": 0, "cv": 0.0}


@reads_document
def load_scenario(doc) -> Scenario:
    """Parse a scenario document, bare or under a "scenario" key."""
    if isinstance(doc, dict) and "scenario" in doc:
        body = unwrap(doc, "scenario", _SCENARIO_DOC)
    else:
        body = keys(doc, _SCENARIO_DOC, "scenario", "")
    jitter = keys(body["jitter"], _JITTER_DOC, "jitter", "scenario")
    return Scenario(
        body["platform"], body["network"], body["components"], body["frames"],
        body["dispatch_overhead_s"], body["contention"],
        body["host_contention_default"], jitter["seed"], jitter["cv"])


class ReorderBuffer:
    """Holds out-of-order completions, releases the sequence 0,1,2,...

    simulate applies this release rule inline; the class replays a
    recorded completion order on its own. Occupancy is counted with the
    just-arrived frame included, so a frame passing straight through still
    registers. high_water is the largest occupancy seen; with components of
    very different speeds it grows well beyond the component count while a
    slow frame blocks the head.
    """

    __slots__ = ("next_expected", "held", "high_water")

    def __init__(self):
        self.next_expected = 0
        self.held: set[int] = set()
        self.high_water = 0

    def push(self, seq: int) -> list[int]:
        if seq < self.next_expected or seq in self.held:
            raise MalformedDocument(f"frame {seq} completed twice")
        held = self.held
        held.add(seq)
        if len(held) > self.high_water:
            self.high_water = len(held)
        released = []
        nxt = self.next_expected
        while nxt in held:
            held.remove(nxt)
            released.append(nxt)
            nxt += 1
        self.next_expected = nxt
        return released


class SimEvent(NamedTuple):
    time: float
    kind: str  # claim | complete | release
    component_id: str
    frame: int


class EventLog:
    """The claims, completions and releases of a recorded run, derived
    from its frame log each time it is iterated.

    The log holds, per frame, the rank of the component that ran it and
    its completion time. Frame r < k (k engaged components) is claimed by
    rank r at time 0; the i-th completion lets its component claim frame
    k + i at once, so it completes the frame that component ran before
    frame k + i, and the last k completions follow in (time, rank) order,
    the order the heap pops them. A completion of the lowest unreleased
    frame releases it and every completed frame after it.
    """

    __slots__ = ("_ids", "_ranks", "_times")

    def __init__(self, ids: list[str], ranks: array, times: array):
        self._ids, self._ranks, self._times = ids, ranks, times

    def __eq__(self, other):
        # The log fixes the events and the events fix the log, so equal
        # recorded runs compare equal without deriving either.
        if not isinstance(other, EventLog):
            return NotImplemented
        return ((self._ids, self._ranks, self._times)
                == (other._ids, other._ranks, other._times))

    def __iter__(self):
        ids, ranks, times = self._ids, self._ranks, self._times
        event = tuple.__new__  # builds a SimEvent without its Python __new__
        n_frames = len(times)
        running = list(range(min(len(ids), n_frames)))  # frame held by rank
        for frame in running:
            yield event(SimEvent, (0.0, "claim", ids[frame], frame))

        def completions():  # (frame completed, frame claimed next or None)
            for claim in range(len(running), n_frames):
                rank = ranks[claim]
                yield running[rank], claim
                running[rank] = claim
            for frame in sorted(running, key=lambda f: (times[f], ranks[f])):
                yield frame, None

        done = bytearray(n_frames + 1)  # a spare 0 stops the release scan
        next_expected = 0
        for frame, claim in completions():
            now, cid = times[frame], ids[ranks[frame]]
            yield event(SimEvent, (now, "complete", cid, frame))
            if frame == next_expected:
                next_expected += 1
                while done[next_expected]:
                    next_expected += 1
                for seq in range(frame, next_expected):
                    yield event(SimEvent, (now, "release", cid, seq))
            else:
                done[frame] = 1
            if claim is not None:
                yield event(SimEvent, (now, "claim", cid, claim))


@dataclass(frozen=True)
class SimResult:
    """Output of one co-execution run.

    events is None unless the run was recorded. A recorded run's events are
    an EventLog: iterating it yields every claim, completion and release as
    a SimEvent, in the order the run made them, derived from a log of 9
    bytes per frame. Nothing is cached: each pass derives the events
    again, costs about twice as much as the recorded run itself (some
    2 us per frame) and allocates 1 byte per frame while it lasts.
    """

    scenario: Scenario
    makespan_s: float
    throughput: float
    frames_per_component: dict[str, int]
    composition: dict[str, float]
    busy_time_s: dict[str, float]
    energy_per_component_j: dict[str, float]
    energy_j: float
    energy_efficiency: float
    reorder_high_water: int
    events: Optional[Iterable[SimEvent]] = None


def effective_rates(scenario: Scenario, platform: Platform,
                    network: NetworkProfile) -> dict[str, float]:
    """Images/s of each engaged component, in engagement order: measured
    isolated throughput times an availability factor.

    An explicit contention factor wins. Otherwise, with the opt-in host
    derating set, a component hosting n engaged accelerators gets
    host_contention_default ** n (** 0 is 1.0); else the factor is 1.0.
    An unknown id raises UnknownComponent before any UnsupportedPair.
    """
    components = [platform.component(cid) for cid in scenario.engaged]
    derating = scenario.host_contention_default
    rates = {}
    for comp in components:
        factor = scenario.contention.get(comp.id)
        if factor is None:
            factor = 1.0 if derating is None else derating ** sum(
                c.host_cluster == comp.id for c in components)
        rates[comp.id] = network.rate(comp.id) * factor
    return rates


def simulate(scenario: Scenario, platform: Optional[Platform] = None,
             network: Optional[NetworkProfile] = None,
             record_events: bool = False) -> SimResult:
    """Run one co-execution scenario to completion.

    platform and network default to the bundled dataset entries named by
    the scenario. With jitter_cv = 0 the run is fully deterministic; ties
    between simultaneous completions resolve in component-id order.
    """
    if platform is None:
        platform = platform_by_id(scenario.platform_id)
    if network is None:
        network = network_by_id(scenario.network_id)
    for kind, named, got in (("platform", scenario.platform_id, platform.id),
                             ("network", scenario.network_id, network.id)):
        if got != named:
            raise MalformedDocument(
                f"scenario names {kind} {named!r} but got {got!r}")

    # Components are indexed by rank, their position in id order. Heap
    # entries are (completion time, rank, frame); ranks are unique, so
    # simultaneous completions pop in id order.
    order = sorted(scenario.engaged)
    rates = effective_rates(scenario, platform, network)
    # Checked once per run: a derating or an overhead that is valid on
    # its own can still underflow a rate or overflow a time.
    processing = [1.0 / number(rates[cid], cid, "scenario effective rate")
                  for cid in order]
    overhead = scenario.dispatch_overhead_s
    service = [number(base + overhead, cid, "scenario service time")
               for cid, base in zip(order, processing)]
    jitter = scenario.jitter_cv > 0
    if jitter:
        lognormvariate = random.Random(scenario.jitter_seed).lognormvariate
        sigma = math.sqrt(math.log(1.0 + scenario.jitter_cv ** 2))
        mu = -0.5 * sigma * sigma

    n_frames = scenario.frame_count
    frames_done = [0] * len(order)
    busy = [0.0] * len(order)
    if record_events:
        # The frame log: the rank that ran each frame, in the narrowest
        # unsigned type that holds every rank, and its completion time.
        code = next(code for code in "BHIQ"
                    if len(order) <= 256 ** array(code).itemsize)
        ranks = array(code, [0]) * n_frames
        times = array("d", [0.0]) * n_frames

    # Reorder buffer: done[f] flags a completed frame held behind the
    # lowest unreleased frame next_expected; the spare last byte stays 0
    # and stops the release scan.
    done = bytearray(n_frames + 1)
    next_expected = held = high_water = 0

    # At time 0 the component of rank r claims frame r.
    heap: list[tuple[float, int, int]] = []
    for rank in range(min(len(order), n_frames)):
        draw = (processing[rank] * lognormvariate(mu, sigma) + overhead
                if jitter else service[rank])
        busy[rank] += draw
        heap.append((draw, rank, rank))
    heapq.heapify(heap)
    next_frame = len(heap)

    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    while heap:
        now, rank, frame = heap[0]
        frames_done[rank] += 1
        if record_events:
            ranks[frame] = rank
            times[frame] = now
        if frame == next_expected:
            # occupancy counts the arriving head frame
            if held >= high_water:
                high_water = held + 1
            nxt = frame + 1
            while done[nxt]:
                nxt += 1
            held -= nxt - frame - 1
            next_expected = nxt
        elif frame < next_expected or done[frame]:
            raise MalformedDocument(f"frame {frame} completed twice")
        else:
            done[frame] = 1
            held += 1
            if held > high_water:
                high_water = held
        if next_frame < n_frames:
            draw = (processing[rank] * lognormvariate(mu, sigma) + overhead
                    if jitter else service[rank])
            busy[rank] += draw
            heapreplace(heap, (now + draw, rank, next_frame))
            next_frame += 1
        else:
            heappop(heap)
    makespan = now  # the last completion
    throughput = n_frames / makespan
    for key, value in (("makespan_s", makespan), ("throughput", throughput)):
        number(value, key, "scenario result")  # a sum or ratio can overflow

    if next_expected != n_frames:
        raise MalformedDocument(
            f"simulation ended with {next_expected} of {n_frames} "
            f"frames released"
        )

    frames_per_component = dict(zip(order, frames_done))
    busy_time = dict(zip(order, busy))
    # Active energy: active power times busy time, summed over the engaged
    # components; idle power is excluded by construction of the active
    # power values.
    energy_per_component = {
        cid: platform.component(cid).active_power_w * busy_time[cid]
        for cid in order}
    energy = number(sum(energy_per_component.values()), "energy_j",
                    "scenario result")  # may under- or overflow
    efficiency = number(n_frames / energy, "energy_efficiency",
                        "scenario result")
    return SimResult(
        scenario=scenario,
        makespan_s=makespan,
        throughput=throughput,
        frames_per_component=frames_per_component,
        composition={cid: frames_per_component[cid] / n_frames for cid in order},
        busy_time_s=busy_time,
        energy_per_component_j=energy_per_component,
        energy_j=energy,
        energy_efficiency=efficiency,
        reorder_high_water=high_water,
        events=EventLog(order, ranks, times) if record_events else None,
    )
