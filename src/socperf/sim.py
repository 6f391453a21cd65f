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
the processing part of the service time. Its factors are Kinderman-Monahan
draws, identical to those of random.Random(seed).lognormvariate.

A plain run (no jitter, no recorded events, more frames than components
and at least _SUMS_MIN_FRAMES) skips the event loop: its frame counts,
busy times and makespan follow from each component's running sums
(_last_claim), and its reorder high water from a walk of the components
that can set it (_high_water), bit for bit. The event loop runs every
other run, and a plain one whose walk would cost more than the loop.

The event loop is single threaded; identical scenarios yield bit-identical
results. Independent scenarios can safely run concurrently since nothing
here shares mutable state.
"""

import heapq
import math
import random
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from types import MappingProxyType
from typing import NamedTuple, Optional

from .dataset import network_by_id, platform_by_id
from .errors import MalformedDocument
from .profiles import (NetworkProfile, Platform, _set, count, ids, keys, number,
                       obj, one_of, reads_document, shown, text, unique, unwrap)


# The largest jitter cv whose square, which simulate takes, is finite.
_MAX_JITTER_CV = 1e154
# The most frames one run takes, refused before anything is allocated.
# simulate allocates nothing per frame. A plain run of the four kirin970
# components costs about 25 ns per frame from the running sums (some
# 0.25 s at the cap); one in the event loop costs about 450 ns (some 4.5 s),
# or about 1,380 ns with jitter (some 14 s). A run that records events
# allocates 9 bytes per frame for its log below 257 engaged components
# (about 90 MB at the cap) and costs about 655 ns per frame.
_MAX_FRAMES = 10 ** 7
# A plain run takes the running sums from this many frames on: at 240
# frames the sums and the event loop cost about the same, and at 1,000 the
# sums cost about half. Past this many walk steps per frame for the high
# water the event loop runs instead; a step is one float addition, and a
# rank visit counts as four.
_SUMS_MIN_FRAMES = 1000
_WALK_STEPS_PER_FRAME = 4


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

    simulate does not use it: it takes the high water from the completion
    count. The class is kept only for the benchmark's replay probe and goes
    with that probe (ROADMAP item 4). Occupancy is counted with the
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


@dataclass(frozen=True, slots=True, repr=False)
class EventLog:
    """The frame log of a recorded run: ids holds the engaged ids in rank
    (id) order, and ids[ranks[f]] ran frame f and completed it at times[f].
    The columns are the run's own arrays and must not be written; repr
    shows none of them, so a recorded result's repr stays short.

    Iterating the log derives the run's claims, completions and releases.
    Frame r < k (k engaged components) is claimed by rank r at time 0; the
    i-th completion lets its component claim frame k + i at once, so it
    completes the frame that component ran before frame k + i, and the
    last k completions follow in (time, rank) order, the order the heap
    pops them. A completion of the lowest unreleased frame releases it and
    every completed frame after it.
    """

    ids: tuple[str, ...]
    ranks: array
    times: array

    def __iter__(self):
        ids, ranks, times = self.ids, self.ranks, self.times
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

    events is None unless the run was recorded, and then the run's
    EventLog: events.ids, events.ranks and events.times say which component
    ran each frame and when it completed, in 9 bytes per frame. Iterating
    it yields every claim, completion and release as a SimEvent, in the
    order the run made them. Nothing is cached: each pass derives the
    events again, costs more than twice as much as the recorded run itself
    (some 1.5 us per frame) and allocates 1 byte per frame while it lasts.
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
    events: Optional[EventLog] = None


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


def _lognormal(seed: int, cv: float):
    """Yield lognormal factors of mean 1 and coefficient of variation cv,
    the same floats random.Random(seed).lognormvariate(mu, sigma) returns
    one call after another: its Kinderman-Monahan rejection loop, with the
    same uniforms and the same arithmetic, without its two nested calls
    per draw."""
    uniform = random.Random(seed).random
    sigma = math.sqrt(math.log(1.0 + cv ** 2))
    mu = -0.5 * sigma * sigma
    magic, log, exp = random.NV_MAGICCONST, math.log, math.exp
    while True:
        u1 = uniform()
        u2 = 1.0 - uniform()
        z = magic * (u1 - 0.5) / u2
        if z * z / 4.0 <= -log(u2):
            yield exp(mu + z * sigma)


def _last_claim(service: list[float],
                claims: int) -> tuple[list[int], list[float]]:
    """The frames each rank runs, and when it completes the last of them,
    in the jitter-free run whose last frame is claimed at completion
    number claims.

    Rank r completes its j-th frame at the j-fold float sum of its service
    time s_r, whatever the others do, and completions pop in (time, rank)
    order. Up to a time t, between t*sum(1/s_r) - k and t*sum(1/s_r)
    completions happen, up to rounding. The completions up to start =
    (claims - pad) / sum(1/s_r), pad > k, come first in (time, rank) order
    and number fewer than claims, so the walk counts them and merges
    forward from there. Each rank keeps only a window of its sums around
    start; if start overshoots or the count or the walk leaves a window,
    pad grows and the walk starts over. A start past the float range is
    refused as the makespan, which passes it too: the N completions by the
    makespan M number at most M*sum(1/s_r)/(1 - N*eps), so M is above
    start by a factor of at least (1 + (pad + k)/N)(1 - N*eps) > 1 + 5e-7
    at N <= 10^7.
    """
    scale = min(service)  # sum(scale / s) lies in [1, k], so it is finite
    rate_sum = sum(scale / s for s in service)
    pad = len(service) + 4
    while True:
        start = max(0, claims - pad) / rate_sum * scale
        if start == math.inf:
            number(start, "makespan_s", "scenario result")
        low = [max(0, int(start / s) - pad) for s in service]
        # sums[r][i]: when rank r completes its (low[r] + i + 1)-th frame.
        sums = [list(islice(accumulate(repeat(s)), lo, lo + 3 * pad))
                for s, lo in zip(service, low)]
        done = [sum(t <= start for t in grid) for grid in sums]
        todo = claims - sum(low) - sum(done)
        # Each count must end inside its window: past its first sum, unless
        # that is the first frame, and short of its last.
        if todo >= 0 and all((n > 0 or lo == 0) and n < len(grid)
                             for n, lo, grid in zip(done, low, sums)):
            heap = [(grid[n], r)
                    for r, (n, grid) in enumerate(zip(done, sums))]
            heapq.heapify(heap)
            for _ in range(todo):
                r = heap[0][1]
                done[r] += 1
                if done[r] == len(sums[r]):
                    break
                heapq.heapreplace(heap, (sums[r][done[r]], r))
            else:
                return ([lo + n + 1 for lo, n in zip(low, done)],
                        [grid[n] for n, grid in zip(done, sums)])
        pad *= 4


def _walk_plan(service: list[float], ran: list[int], busy: list[float]
               ) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """The largest c - f found without a walk, and the ranks whose bound
    beats it, slowest first, each with its bound, in the jitter-free run in
    which rank r runs ran[r] frames, the last completing at busy[r]; or
    None if walking them would take more than _WALK_STEPS_PER_FRAME steps
    per frame. Walking rank r takes up to N additions and ran[r] rounds of
    k - 1 rank visits, a visit costing about four additions. simulate asks
    this first of a run guessed from the rates, so an over-budget run goes
    to the event loop before any sums are taken.

    The bound. Every time is at most the makespan M, so each sum rounds
    by at most u/2, u = ulp(M): rank q's m-th completion is at least
    m*s_q - (m - 1)*u/2, and two consecutive ones of rank r lie at most
    s_r + u/2 apart. So q completes at most x = (s_r + u/2) / (s_q - u/2)
    frames before r's first completion, at s_r, and at most 1 + x between
    two of r's. The rounded (s_r + 2u) / (s_q - 2u) is at least x: its
    operands round by at most u, and its margin, above 1.5u/M, exceeds
    the rounding of the quotient. q completes ran[q] frames in all, and
    for s_q <= 2u nothing tighter holds. If s_q = s_r, q's sums are r's:
    one lies between two of r's, and before r's first lies one if q < r,
    none if q > r. Rank r's bound is the larger of 1 - r plus the counts
    before its first completion and 2 - k plus the counts between two.
    """
    k, frames, ulp = len(service), sum(ran), math.ulp(max(busy))

    def bound(r):
        s, first, later = service[r], 1 - r, 2 - k
        for q, sq in enumerate(service):
            if sq == s:
                first += q < r
                later += q != r
            else:
                # The quotient is capped as a float: it overflows where
                # s_q is subnormal beside a large s_r.
                most = (int(min(ran[q], (s + 2 * ulp) / (sq - 2 * ulp)))
                        if sq > 2 * ulp else ran[q])
                first += most
                later += min(ran[q], most + 1)
        return max(first, later)

    budget, steps = _WALK_STEPS_PER_FRAME * frames, k * k
    if steps > budget:
        return None
    slowest = sorted(range(k), key=service.__getitem__, reverse=True)
    best, todo = _gaps(service, busy, slowest[0], 1), []
    for r in slowest:
        most = bound(r)
        if most > best:
            steps += frames + 4 * k * ran[r]
            if steps > budget:
                return None
            todo.append((r, most))
    return best, todo


def _gaps(service: list[float], busy: list[float], r: int,
          completions: int) -> int:
    """The largest c - f over rank r's first completions completions, the
    other ranks' completions counted by the heap's own additions up to
    busy, ties in rank order."""
    k, s, t, c, gap = len(service), service[r], 0.0, 0, 0
    # Each other rank's next completion, service time, the float just
    # past its last completion, and whether it goes first on a tie.
    state = [[service[q], service[q], math.nextafter(busy[q], math.inf),
              q < r] for q in range(k) if q != r]
    for j in range(completions):
        t += s
        last = c
        c += 1
        tie = math.nextafter(t, math.inf) if r else t
        for st in state:
            u, sq, end, below = st
            stop = tie if below else t
            if end < stop:
                stop = end
            if u < stop:
                n = 0
                while u < stop:
                    u += sq
                    n += 1
                st[0] = u
                c += n
        if not j:
            first = c - r
        if c - last > gap:
            gap = c - last
    return max(first, gap - k + 1)


def _high_water(service: list[float], ran: list[int],
                busy: list[float]) -> Optional[int]:
    """The reorder high water of the jitter-free run in which rank r runs
    ran[r] frames, the last completing at busy[r]; or None, and the event
    loop runs, if _walk_plan finds the walk too long.

    The high water is the largest c - f over all completions (see
    simulate). Rank r's first completion completes frame r; its j-th,
    j > 1, completes the frame it claimed at its (j-1)-th, at position c',
    frame c' + k - 1, so c - f is the gap c - c' less k - 1. A gap is 1
    plus the other ranks' completions in between. After the first
    completion of the slowest rank, only ranks whose bound beats the best
    so far are walked.
    """
    plan = _walk_plan(service, ran, busy)
    if plan is None:
        return None
    best, todo = plan
    for r, most in todo:
        if most > best:
            best = max(best, _gaps(service, busy, r, ran[r]))
    return best


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
                f"scenario names {kind} {shown(named)} but got {shown(got)}")

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
        factor = _lognormal(scenario.jitter_seed, scenario.jitter_cv).__next__

    n_frames = scenario.frame_count
    # Frames release strictly in order, so the reorder buffer's high water
    # is the largest c - f over all completions, f the frame completed and
    # c its 1-based position in completion order. The c-th completion, with
    # e <= f the lowest unreleased frame, leaves c - e >= c - f frames held,
    # equal when f is the head; occupancy only rises between head arrivals,
    # and the run ends on one.
    high_water = None
    if (not jitter and not record_events and len(order) < n_frames
            and n_frames >= _SUMS_MIN_FRAMES):
        # Frame counts guessed from the rates first skip the sums where
        # the walk would not pay.
        least = min(service)
        weights = [least / s for s in service]
        total = sum(weights)  # in [1, k]
        # Every rank runs a frame, as n_frames > k: a weight can underflow.
        guess = [max(1, math.ceil(n_frames * w / total)) for w in weights]
        if _walk_plan(service, guess,
                      [n * s for n, s in zip(guess, service)]) is not None:
            frames_done, busy = _last_claim(service, n_frames - len(order))
            # Refused before the walk, whose ulp and end caps an infinite
            # makespan leaves meaningless.
            makespan = number(max(busy), "makespan_s", "scenario result")
            high_water = _high_water(service, frames_done, busy)
    if high_water is None:
        frames_done = [0] * len(order)
        busy = [0.0] * len(order)
        if record_events:
            # The frame log: the rank that ran each frame, in the narrowest
            # unsigned type that holds every rank, and its completion time.
            code = next(code for code in "BHIQ"
                        if len(order) <= 256 ** array(code).itemsize)
            ranks = array(code, [0]) * n_frames
            times = array("d", [0.0]) * n_frames

        # At time 0 the component of rank r claims frame r.
        heap: list[tuple[float, int, int]] = []
        for rank in range(min(len(order), n_frames)):
            draw = (processing[rank] * factor() + overhead
                    if jitter else service[rank])
            heap.append((draw, rank, rank))
        heapq.heapify(heap)
        # next_frame counts on through the drain, so it is c + started - 1
        # at every completion.
        next_frame = started = len(heap)
        lag = 0  # the largest next_frame - f so far

        heapreplace, heappop = heapq.heapreplace, heapq.heappop
        while heap:
            now, rank, frame = heap[0]
            frames_done[rank] += 1
            if record_events:
                ranks[frame] = rank
                times[frame] = now
            if next_frame - frame > lag:
                lag = next_frame - frame
            if next_frame < n_frames:
                draw = (processing[rank] * factor() + overhead
                        if jitter else service[rank])
                heapreplace(heap, (now + draw, rank, next_frame))
            else:
                # A component runs back to back from time 0, so its busy
                # time is the completion time of its last frame.
                busy[rank] = now
                heappop(heap)
            next_frame += 1
        makespan = now  # the last completion
        high_water = lag - started + 1
    throughput = n_frames / makespan
    for key, value in (("makespan_s", makespan), ("throughput", throughput)):
        number(value, key, "scenario result")  # a sum or ratio can overflow

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
        events=EventLog(tuple(order), ranks, times) if record_events else None,
    )
