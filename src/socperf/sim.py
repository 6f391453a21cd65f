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
factor. Factors model host-cluster contention: they default to 1.0 and
can be set explicitly per component. Optional lognormal jitter (given
coefficient of variation and seed, 0 unless set, so jittered runs repeat
too) perturbs the processing part of the service time. Its factors are
Kinderman-Monahan draws, identical to those of
random.Random(seed).lognormvariate. The event loop draws one per claim,
makes each claim at the completion it replaces on a heap of the k frames
in flight, and then drains the heap.

A jitter-free run, recorded or not, of N frames on k components with 8k^2
<= _WALK_STEPS_PER_FRAME * N skips the event loop: the running sums give
its counts, busy times and makespan (_plain_run, which also scores the
fit's candidates), a walk its reorder high water (_high_water), and a
merge of the sums its frame log (_frame_log), bit for bit
(test_plain_run_equals_the_heap_run_field_for_field and
test_recorded_plain_run_logs_what_the_heap_run_logs). The event loop runs
every jittered run, every run with N < 2k^2, and one whose walk needs more
than the 4N - 8k^2 steps left.

The event loop is single threaded; identical scenarios yield bit-identical
results (test_determinism_bit_identical), and independent scenarios can
safely run concurrently since nothing here shares mutable state.
"""

import heapq
import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from struct import pack_into
from types import MappingProxyType
from typing import NamedTuple, Optional

from .dataset import network_by_id, platform_by_id
from .errors import MalformedDocument
from .profiles import (NetworkProfile, Platform, _set, count, ids, keys, number,
                       obj, one_of, reads_document, shown, text, unique, unwrap)


# The largest jitter cv whose square, which simulate takes, is finite.
_MAX_JITTER_CV = 1e154
# The most frames one run takes, refused before anything is allocated.
# simulate allocates nothing per frame but a recorded run's log: 9 bytes a
# frame below 257 engaged components, about 90 MB at the cap. BENCH_33.json's
# long_stream medians (four kirin970 components, Python 3.11.7, 2 vCPUs)
# read stream_ns_per_frame 0.31 at 10^6 frames, and at 2*10^5 frames
# jitter_ns_per_frame 1,130 (11 s at the cap) and events_ns_per_frame 256.
_MAX_FRAMES = 10 ** 7
# A plain run's bounds and walk get this many steps per frame, a step
# being a quarter of an event-loop frame.
_WALK_STEPS_PER_FRAME = 4
# The claims per rank a recorded plain run merges at once: 9.27 bytes a
# frame at 10^5 kirin970 frames, where 96 takes 9.51 for up to 11% less time.
_CHUNK_FRAMES = 64


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
        count(self.jitter_seed, "seed", "scenario jitter", low=0)
        _set(self, "jitter_cv", number(self.jitter_cv, "cv", "scenario jitter",
                                       high=_MAX_JITTER_CV, include_low=True))


# Scenario document keys, with the value an absent key takes.
_SCENARIO_DOC = {
    "platform": None, "network": None, "components": None, "frames": None,
    "dispatch_overhead_s": 0.0, "contention": {}, "jitter": {}}
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
        body["dispatch_overhead_s"], body["contention"], jitter["seed"],
        jitter["cv"])


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
    events again, in a transient byte per frame and 6.5 to 7.1 times the
    time recording took (in process, four kirin970 components, 2*10^5
    frames, medians of 7 in 5 runs, Python 3.11.7 on a 2-vCPU host).
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
    isolated throughput times its contention factor, 1.0 unless set. An
    unknown id raises UnknownComponent before any UnsupportedPair.
    """
    for cid in scenario.engaged:
        platform.component(cid)
    factors = scenario.contention
    return {cid: network.rate(cid) * factors.get(cid, 1.0)
            for cid in scenario.engaged}


def _nth_sum(s: float, n: int) -> float:
    """The n-fold float sum 0.0 + s + ... + s, bit for bit (checked by
    test_nth_sum_equals_repeated_addition and
    test_nth_sum_equals_repeated_addition_on_seeded_exponents), in a few
    float steps per power of two it passes.

    Below 2^-1021 and within each [2^e, 2^(e+1)) above, floats are the
    multiples of one power of two u, and adding s to X*u gives (X + D)*u,
    D = s/u rounded to nearest, a tie to the even X + D: round(s/u) from
    an even X. A pass adds s once, which may cross a power of two or reach
    inf (D = 0 there, as where the sum stops growing), then, unless a tie
    left X odd, adds m*D at once, X + m*D < 2^53; s/u, x/u, m, n are exact.
    """
    head = min(n, 32)  # the first 32 additions cost less one by one, in C
    x = max(accumulate(repeat(s, head)), default=0.0)  # the last sum
    n, ulp = n - head, math.ulp
    while n:
        x += s
        n -= 1
        u = ulp(x)
        t, units = s / u, x / u
        if t % 1 == 0.5 and units % 2:
            continue
        step = round(t)
        if not step:
            break
        m = (2.0 ** 53 - 1 - units) // step
        if m >= n:
            return (units + n * step) * u
        x = (units + m * step) * u
        n -= m
    return x


def _plain_run(service: list[float],
               frames: int) -> tuple[list[int], list[float]]:
    """The frames each rank runs, and when it completes the last of them,
    in the jitter-free run of N = frames frames, bit for bit (checked by
    test_last_claim_equals_a_heap_walk and
    test_last_claim_equals_a_heap_walk_on_seeded_stress_cases). If N < k,
    the first N ranks run one frame each; else the last frame is claimed
    at completion number claims = N - k.

    Rank r completes its j-th frame at S_r(j), the j-fold float sum of its
    service time s_r, whatever the others do, and completions pop in
    (time, rank) order. Each rank's first low_r = max(0, int(start/s_r) -
    1) are counted at once, start = claims / sum(1/s_r); a merge pops the
    claims - sum(low_r) after them, drawing sums from S_r(low_r + 1) (by
    _nth_sum) one addition at a time.

    Why that count is right, for claims < N <= _MAX_FRAMES and each s_r
    at least 2^-1024, as the reciprocal of a finite rate is. An addition
    rounds by at most 2^-53 of its result, so |S_r(j) - j*s_r| is within
    1% of j(j + 1)/2 * s_r * 2^-53 at most, below s_r/64 for j <= N + 1.
    start/s_r is below claims + 1, so c_r, the count of S_r(j) <= start,
    is within 1 of n = floor(start/s_r). The float quotient int(start/s_r)
    is n, or n + 1 where the quotient rounds up to that integer: then
    start/s_r >= (n + 1)(1 - 2^-53), so S_r(n) < (n + 1/64)*s_r <= start
    and c_r >= n. Either way low_r <= c_r <= low_r + 2. And c_r -
    start/s_r is at most 1.01 * c_r(c_r + 1)/2 * 2^-53; as the c_r add up
    to at most N + 1, these excesses add up to under 0.006. The roundings
    of start and of the rate sum put start*sum(1/s_r) within
    claims*(k + 3)*2^-53 < 0.012 of claims (k <= N). So the c_r
    add up to under claims + 1, to at most claims: the counted ones, all
    up to start, are among the first claims, and the merge pops the rest
    in order. It pops at most 4k sums, as c_r - low_r <= 2 and the c_r
    add up to at least start*sum(1/s_r) - 2k.

    A start past the float range is refused as the makespan, which passes
    it too: the N completions by the makespan M number at most
    M*sum(1/s_r)/(1 - N*eps), so M is above start by a factor of at least
    (1 + k/claims)(1 - N*eps)(1 - (k + 3)*eps) > 1 + 9e-8 at N <= 10^7.
    """
    k, idle = len(service), len(service) - frames
    if idle > 0:
        return [1] * frames + [0] * idle, service[:frames] + [0.0] * idle
    scale = min(service)  # sum(scale / s) lies in [1, k], so it is finite
    rate_sum = sum(scale / s for s in service)
    start = (frames - k) / rate_sum * scale
    if start == math.inf:
        number(start, "makespan_s", "scenario result")
    ran = [max(0, int(start / s) - 1) + 1 for s in service]  # low_r + 1
    next_sum = [accumulate(repeat(s), initial=_nth_sum(s, n)).__next__
                for s, n in zip(service, ran)]
    heap = [(draw(), r) for r, draw in enumerate(next_sum)]
    heapq.heapify(heap)
    for _ in range(frames - sum(ran)):
        r = heap[0][1]
        ran[r] += 1
        heapq.heapreplace(heap, (next_sum[r](), r))
    return ran, [t for t, _ in sorted(heap, key=lambda entry: entry[1])]


def _gaps(service: list[float], busy: list[float], r: int,
          completions: int) -> int:
    """The largest c - f over rank r's first completions completions, the
    other ranks' completions counted by the heap's own additions up to
    busy, ties in rank order."""
    k, s, t, gap = len(service), service[r], 0.0, 0
    g = k - r  # the first gap, from a virtual completion at r - k + 1
    # Each other rank's next completion, service time, the float just
    # past its last completion, and whether it goes first on a tie.
    state = [[service[q], service[q], math.nextafter(busy[q], math.inf),
              q < r] for q in range(k) if q != r]
    for _ in range(completions):
        t += s
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
                g += n
        if g > gap:
            gap = g
        g = 1
    return gap - k + 1


def _high_water(service: list[float], ran: list[int], busy: list[float],
                budget: int) -> Optional[int]:
    """The reorder high water of the jitter-free run in which rank r runs
    ran[r] frames, the last completing at busy[r], or None if its walk
    would take more than budget steps.

    The high water is the largest c - f over all completions (see
    simulate). Rank r's j-th completion, j > 1, completes the frame it
    claimed at its (j-1)-th, at position c', frame c' + k - 1, so c - f is
    the gap c - c' less k - 1; its first completes frame r, as if c' were
    r - k + 1. A gap is 1 plus the other ranks' completions in between.
    The first completion of the slowest rank gives the best so far. Then,
    slowest first, only ranks whose bound beats it are walked, rank r in
    up to N additions and ran[r] rounds of k - 1 rank visits, four each.

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

    slowest = sorted(range(k), key=service.__getitem__, reverse=True)
    best, todo = _gaps(service, busy, slowest[0], 1), []
    # Charged rank by rank up to the first overrun: taking every bound
    # first made a 64-rank run over budget about 1.5 times slower.
    for r in slowest:
        most = bound(r)
        if most > best:
            budget -= frames + 4 * k * ran[r]
            if budget < 0:
                return None
            todo.append((r, most))
    for r, most in todo:
        if most > best:
            best = max(best, _gaps(service, busy, r, ran[r]))
    return best


def _frame_log(service: list[float], ran: list[int], makespan: float,
               ranks: array, times: array) -> None:
    """Fill ranks and times as the event loop does, bit for bit, for the
    jitter-free run in which rank r runs ran[r] frames: rank r claims at 0
    and at each sum S_r(j) but its last, the c-th claim in (time, rank)
    order takes frame c, and its rank completes it at its next sum. Chunk
    by chunk, a stable sort of each rank's sums up to an edge and the first
    past it (inf after the last), in rank order, puts the claims first, each
    followed in the list by its rank's next sum, and the k past it last."""
    done, horizon = 0, makespan / len(times) * _CHUNK_FRAMES * len(service)
    pending = [([0.0], chain(accumulate(repeat(s, n)), [math.inf]))
               for s, n in zip(service, ran)]  # sums to merge, then the rest
    while done < len(times):
        edge = min(min(p[0] for p, _ in pending) + horizon, makespan)
        keys, owners = [], []
        for r, (p, rest) in enumerate(pending):
            while p[-1] <= edge:
                p += islice(rest, _CHUNK_FRAMES)
            cut = bisect_right(p, edge)
            keys += p[:cut + 1]
            owners += repeat(r, cut + 1)
            del p[:cut]
        get = itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
        take = min(len(keys) - len(pending), len(times) - done)
        keys.append(keys.pop(0))  # keys[i] is now the sum after key i
        # array's codes are struct's native ones; pack_into writes 10-20%
        # faster than slice assignment (10^5 frames, 5 families, 3.11.7).
        pack_into(f"{take}{ranks.typecode}", ranks, done * ranks.itemsize,
                  *get(owners)[:take])
        pack_into(f"{take}d", times, done * times.itemsize, *get(keys)[:take])
        done += take


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
    # Checked once per run: a contention factor or an overhead that is
    # valid on its own can still underflow a rate or overflow a time.
    processing = [1.0 / number(rates[cid], cid, "scenario effective rate")
                  for cid in order]
    overhead = scenario.dispatch_overhead_s
    service = [number(base + overhead, cid, "scenario service time")
               for cid, base in zip(order, processing)]
    jitter = scenario.jitter_cv > 0
    if jitter:
        # random.Random(seed).lognormvariate's draws, made in the loop
        # below without its two nested calls. Its Kinderman-Monahan test
        # accepts z, u2 if z*z/4 <= -log(u2); two candidates in three pass
        # z*z <= 4.9999 - 5.1362*u2 first, with no log, which costs three
        # times exp on Python 3.11. As -4*log(u2) >= 5 - 4*e^(1/4)*u2 (the
        # tangent at u2 = e^(-1/4)), those lie 1e-4 inside the region, far
        # past any rounding of either side, so the exact test accepts them.
        uniform = random.Random(scenario.jitter_seed).random
        sigma = math.sqrt(math.log(1.0 + scenario.jitter_cv ** 2))
        mu = -0.5 * sigma * sigma
        magic, log, exp = random.NV_MAGICCONST, math.log, math.exp

    n_frames = scenario.frame_count
    # Frames release strictly in order, so the reorder buffer's high water
    # is the largest c - f over all completions, f the frame completed and
    # c its 1-based position in completion order. The c-th completion, with
    # e <= f the lowest unreleased frame, leaves c - e >= c - f frames held,
    # equal when f is the head; occupancy only rises between head arrivals,
    # and the run ends on one. A plain run's walk gets what is left of its
    # budget after k*k bound visits at 8 steps each; a budget >= 0 implies
    # k < N.
    budget = _WALK_STEPS_PER_FRAME * n_frames - 8 * len(order) ** 2
    high_water = None
    if record_events:
        # The frame log: each frame's rank (narrowest unsigned type) and time.
        code = next(c for c in "BHIQ" if len(order) <= 256 ** array(c).itemsize)
        ranks = array(code, [0]) * n_frames
        times = array("d", [0.0]) * n_frames
    if not jitter and budget >= 0:
        frames_done, busy = _plain_run(service, n_frames)
        # Refused before the walk, whose ulp and end caps an infinite
        # makespan leaves meaningless.
        makespan = number(max(busy), "makespan_s", "scenario result")
        high_water = _high_water(service, frames_done, busy, budget)
        if high_water is not None and record_events:
            _frame_log(service, frames_done, makespan, ranks, times)
    if high_water is None:
        frames_done = [0] * len(order)
        busy = [0.0] * len(order)

        # Rank r claims frame r at time 0, and every later claim replaces
        # the completion that frees its rank: after all time-0 claims, as a
        # zero-length jittered frame can complete at time 0.
        started = min(len(order), n_frames)
        heap = []
        lag = 0  # the largest c + started - 1 - f so far
        heappush, heapreplace = heapq.heappush, heapq.heapreplace
        for next_frame in range(n_frames):
            if next_frame < started:
                now, rank = 0.0, next_frame
            else:
                now, rank, frame = heap[0]
                if next_frame - frame > lag:
                    lag = next_frame - frame
            if jitter:
                while True:
                    u1 = uniform()
                    u2 = 1.0 - uniform()
                    z = magic * (u1 - 0.5) / u2
                    zz = z * z
                    if zz <= 4.9999 - 5.1362 * u2 or zz / 4.0 <= -log(u2):
                        break
                now += processing[rank] * exp(mu + z * sigma) + overhead
            else:
                now += service[rank]
            frames_done[rank] += 1
            if record_events:
                ranks[next_frame] = rank
                times[next_frame] = now
            (heappush if next_frame < started else heapreplace)(
                heap, (now, rank, next_frame))
        # The last k completions in heap order, at c + started - 1 = n_frames
        # on; a rank runs back to back, so its last one ends its busy time.
        for i, (now, rank, frame) in enumerate(sorted(heap), n_frames):
            lag = max(lag, i - frame)
            busy[rank] = now
        makespan = number(now, "makespan_s", "scenario result")
        high_water = lag - started + 1
    throughput = number(n_frames / makespan, "throughput", "scenario result")

    # Active energy: active power times busy time, summed over the engaged
    # components; idle power is excluded by construction of the active
    # power values.
    energy_per_component = {
        cid: platform.component(cid).active_power_w * time
        for cid, time in zip(order, busy)}
    energy = number(sum(energy_per_component.values()), "energy_j",
                    "scenario result")  # may under- or overflow
    efficiency = number(n_frames / energy, "energy_efficiency",
                        "scenario result")
    return SimResult(
        scenario=scenario,
        makespan_s=makespan,
        throughput=throughput,
        frames_per_component=dict(zip(order, frames_done)),
        composition={cid: n / n_frames for cid, n in zip(order, frames_done)},
        busy_time_s=dict(zip(order, busy)),
        energy_per_component_j=energy_per_component,
        energy_j=energy,
        energy_efficiency=efficiency,
        reorder_high_water=high_water,
        events=EventLog(tuple(order), ranks, times) if record_events else None,
    )
