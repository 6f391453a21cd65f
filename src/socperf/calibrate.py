"""Fit dispatch overhead and contention factors to measured co-execution.

The steady-state behavior of the simulator has a closed form: a component
with measured rate r, availability factor f, and per-frame overhead h
contributes 1/(1/(r*f) + h) images/s, and frame shares follow the
contributed rates. Calibration seeds itself from that closed form, runs a
deterministic coordinate search on it, then polishes the parameters
against full simulation runs and reports the simulated residuals.

The polish accepts a candidate only if its simulated score is strictly
below the best so far. Before simulating one it computes a floor under
that score from the end-of-stream tail (_score_floor): without jitter the
frames of each component and the makespan lie in intervals fixed by the
time of the last claim, and the objective's distance to those intervals
cannot exceed the simulated score. A candidate whose floor already
reaches the best score cannot win and is not simulated; every accepted
candidate, and so every returned result, still comes from simulate.

A target above the zero-overhead rate sum, or below the closed-form
throughput at the seed's overhead cap (about 1049 s, with CPU factors at
their floor when they are fitted), indicates inconsistent measurements
and raises InfeasibleTarget instead of silently fitting. A target
throughput must be finite and > 0, and a composition target maps engaged
components to shares in [0, 1].

Residuals are normalized so one unit equals 2% relative throughput error
or 3 percentage points of composition error, and the search minimizes the
worst normalized residual; a plain sum of squares parks the composition
residual of the tightest scenario exactly on its error budget, while the
minimax form centers it.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InfeasibleTarget
from .profiles import NetworkProfile, Platform, number, obj, one_of
from .sim import Scenario, SimResult, simulate

THROUGHPUT_SCALE = 0.02   # one residual unit = 2% relative throughput error
COMPOSITION_SCALE = 0.03  # one residual unit = 3 points of frame share

_MIN_FACTOR = 1e-3
# The largest overhead the seed tries, in s: 1 ms doubled until past 1e3 s.
_OVERHEAD_CAP = 1e-3 * 2.0 ** 20


@dataclass(frozen=True)
class CalibrationResult:
    platform_id: str
    network_id: str
    engaged: tuple[str, ...]
    dispatch_overhead_s: float
    contention: dict[str, float]
    objective: float
    residual_throughput_rel: float
    residual_composition: Optional[dict[str, float]]
    result: SimResult

    def scenario(self, frame_count: int = 10000) -> Scenario:
        return Scenario(
            platform_id=self.platform_id,
            network_id=self.network_id,
            engaged=self.engaged,
            frame_count=frame_count,
            dispatch_overhead_s=self.dispatch_overhead_s,
            contention=dict(self.contention),
        )


def _closed_form(rates: dict[str, float], factors: dict[str, float],
                 overhead: float) -> tuple[float, dict[str, float]]:
    """Steady-state throughput and shares for given parameters."""
    effective = {}
    for comp_id, rate in rates.items():
        scaled = rate * factors.get(comp_id, 1.0)
        effective[comp_id] = 1.0 / (1.0 / scaled + overhead)
    total = sum(effective.values())
    shares = {cid: eff / total for cid, eff in effective.items()}
    return total, shares


def _score_floor(rates: dict[str, float], factors: dict[str, float],
                 overhead: float, frames: int, target_throughput: float,
                 target_composition: Optional[dict[str, float]]) -> float:
    """A lower bound on the objective of the jitter-free simulation of
    these parameters, computed without running it.

    Component i completes its j-th frame at a repeated float sum of its
    service time s_i, which is j*s_i to within a relative (j/2)*2**-53.
    The last of the N frames is claimed at the (N-k)-th completion U, and
    then every one of the k components holds one frame, so component i
    runs between ceil(U/s_i) and floor(U/s_i) + 1 frames and the makespan
    is the largest frames_i*s_i. U is bracketed by bisecting the
    completion count sum_i floor(t/s_i), with every grid point widened by
    a relative slack that covers the summation error at N frames and the
    rounding of this function's own arithmetic. The floor is the distance
    from the targets to the resulting throughput and share intervals.
    """
    service = [1.0 / (rate * factors.get(cid, 1.0)) + overhead
               for cid, rate in rates.items()]
    claims = frames - len(service)  # completions before the last claim
    if claims <= 0:
        return 0.0
    slack = (frames + 16) * 2.0 ** -52
    early = [s * (1.0 - slack) for s in service]
    late = [s * (1.0 + slack) for s in service]
    # U > lo: fewer than `claims` completions can have happened by lo.
    lo, _ = _bracket(lambda t: sum(int(t / s) for s in early) >= claims,
                     claims * min(service), slack)
    # U <= hi: at least `claims` completions have surely happened by hi.
    _, hi = _bracket(lambda t: sum(int(t / s) for s in late) >= claims,
                     claims * min(service), slack)
    fewest = [max(1, math.ceil(lo / s)) for s in late]
    most = [int(hi / s) + 1 for s in early]
    makespan_lo = max(f * s for f, s in zip(fewest, early))
    makespan_hi = max(f * s for f, s in zip(most, late))
    worst = _gap(frames / makespan_hi, frames / makespan_lo,
                 target_throughput) / target_throughput / THROUGHPUT_SCALE
    if target_composition:
        share = dict(zip(rates, zip(fewest, most)))
        for comp_id, target in target_composition.items():
            low, high = share[comp_id]
            worst = max(worst, _gap(low / frames, high / frames, target)
                        / COMPOSITION_SCALE)
    return worst


def _bracket(reached, guess: float, slack: float) -> tuple[float, float]:
    """(lo, hi) around the smallest t > 0 where the monotone reached(t)
    turns true: reached(lo) is false, reached(hi) is true, and hi is
    within a relative slack of lo."""
    lo, hi = 0.0, guess
    while not reached(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > slack * hi:
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _gap(low: float, high: float, target: float) -> float:
    """Distance from target to the interval [low, high]."""
    return max(target - high, low - target, 0.0)


def _objective(throughput: float, shares: dict[str, float],
               target_throughput: float,
               target_composition: Optional[dict[str, float]]) -> float:
    worst = abs(throughput - target_throughput) / target_throughput / THROUGHPUT_SCALE
    if target_composition:
        for comp_id, share in target_composition.items():
            err = abs(shares.get(comp_id, 0.0) - share) / COMPOSITION_SCALE
            worst = max(worst, err)
    return worst


def calibrate(platform: Platform, network: NetworkProfile, observed: dict,
              engaged: tuple[str, ...], frames: int = 10000) -> CalibrationResult:
    """Fit (dispatch_overhead, contention factors) to observed behavior.

    observed holds "throughput" in images/s and optionally "composition"
    as a map of component id to frame-share fraction. Without composition
    targets only the overhead is fitted and all factors stay at 1.0; with
    them, availability factors of the engaged CPU clusters join the
    search (accelerator factors stay pinned at 1.0).
    """
    engaged = tuple(engaged)
    target_throughput = number(observed["throughput"], "target throughput", "")
    target_composition = observed.get("composition")
    if target_composition is not None:
        target_composition = {
            one_of(cid, engaged, "component", "target composition"):
            number(share, cid, "target composition", high=1.0, include_low=True)
            for cid, share in obj(target_composition, "composition", "target").items()}

    rates = {cid: network.rate(cid) for cid in engaged}
    bound = sum(rates.values())
    if target_throughput > bound * (1.0 + 1e-9):
        raise InfeasibleTarget(
            f"target {target_throughput} imgs/s exceeds the zero-overhead "
            f"bound {bound:.4g} imgs/s for {network.id!r} on "
            f"{platform.id!r} {engaged}; measurements and model disagree"
        )

    cpu_ids = sorted(
        cid for cid in engaged if platform.component(cid).is_cpu
    )
    fit_factors = bool(target_composition)
    slowest = {cid: _MIN_FACTOR if fit_factors else 1.0 for cid in cpu_ids}
    floor_throughput, _ = _closed_form(rates, slowest, _OVERHEAD_CAP)
    if target_throughput < floor_throughput:
        raise InfeasibleTarget(
            f"target {target_throughput} imgs/s is below the "
            f"{floor_throughput:.4g} imgs/s that {network.id!r} on "
            f"{platform.id!r} {engaged} reaches at the {_OVERHEAD_CAP:g} s "
            f"overhead cap; measurements and model disagree"
        )

    overhead = _seed_overhead(rates, target_throughput, target_composition)
    factors = {cid: 1.0 for cid in cpu_ids}
    if fit_factors:
        factors = _seed_factors(rates, cpu_ids, target_throughput,
                                target_composition, overhead)

    def cf_search(h0: float, fs0: dict[str, float],
                  cf_target: float) -> tuple[float, dict[str, float]]:
        """Coordinate descent on the closed form, shrinking steps each round."""
        def cf_objective(h: float, fs: dict[str, float]) -> float:
            total, shares = _closed_form(rates, fs, h)
            return _objective(total, shares, cf_target, target_composition)

        h, fs = h0, dict(fs0)
        h_step = max(h0, 1e-3)
        f_step = 0.1
        for _ in range(7):
            h = _line_search(
                lambda value: cf_objective(value, fs), h, h_step, 0.0, 0.25)
            if fit_factors:
                for cid in cpu_ids:
                    def eval_factor(value, cid=cid):
                        trial = dict(fs)
                        trial[cid] = value
                        return cf_objective(h, trial)
                    fs[cid] = _line_search(
                        eval_factor, fs[cid], f_step, _MIN_FACTOR, 1.0)
            h_step *= 0.25
            f_step *= 0.25
        return h, fs

    def sim_result(h: float, fs: dict[str, float]) -> SimResult:
        scenario = Scenario(
            platform_id=platform.id,
            network_id=network.id,
            engaged=engaged,
            frame_count=frames,
            dispatch_overhead_s=h,
            contention={cid: fs[cid] for cid in cpu_ids},
        )
        return simulate(scenario, platform, network)

    def sim_objective(res: SimResult) -> float:
        return _objective(res.throughput, res.composition,
                          target_throughput, target_composition)

    def floor(h: float, fs: dict[str, float]) -> float:
        return _score_floor(rates, fs, h, frames, target_throughput,
                            target_composition)

    overhead, factors = cf_search(overhead, factors, target_throughput)
    best = sim_result(overhead, factors)
    best_score = sim_objective(best)

    # The greedy end-of-stream tail puts simulated throughput slightly below
    # the closed form. Re-run the search against an offset-corrected target
    # so the simulated residuals, not the closed-form ones, end up centered.
    cf_total, _ = _closed_form(rates, factors, overhead)
    offset = cf_total - best.throughput
    if offset > 1e-9:
        h2, f2 = cf_search(overhead, factors, target_throughput + offset)
        trial = sim_result(h2, f2)
        score = sim_objective(trial)
        if score < best_score:
            best, best_score = trial, score
            overhead, factors = h2, f2

    # Final polish directly against simulation runs. A candidate whose
    # score floor already reaches best_score cannot be accepted, so it is
    # not simulated.
    h_step, f_step = 2e-4, 0.01
    for _ in range(2):
        for delta in (-2 * h_step, -h_step, h_step, 2 * h_step):
            h = max(0.0, overhead + delta)
            if h == overhead or floor(h, factors) >= best_score:
                continue
            trial = sim_result(h, factors)
            score = sim_objective(trial)
            if score < best_score:
                best, best_score, overhead = trial, score, h
        if fit_factors:
            for cid in cpu_ids:
                for delta in (-2 * f_step, -f_step, f_step, 2 * f_step):
                    value = min(1.0, max(_MIN_FACTOR, factors[cid] + delta))
                    if value == factors[cid]:
                        continue
                    trial_factors = dict(factors)
                    trial_factors[cid] = value
                    if floor(overhead, trial_factors) >= best_score:
                        continue
                    trial = sim_result(overhead, trial_factors)
                    score = sim_objective(trial)
                    if score < best_score:
                        best, best_score, factors = trial, score, trial_factors
        h_step *= 0.25
        f_step *= 0.25

    residual_comp = None
    if target_composition:
        residual_comp = {
            cid: best.composition.get(cid, 0.0) - share
            for cid, share in target_composition.items()
        }
    return CalibrationResult(
        platform_id=platform.id,
        network_id=network.id,
        engaged=engaged,
        dispatch_overhead_s=overhead,
        contention={cid: factors[cid] for cid in cpu_ids},
        objective=best_score,
        residual_throughput_rel=(best.throughput - target_throughput) / target_throughput,
        residual_composition=residual_comp,
        result=best,
    )


def _line_search(evaluate, current: float, step: float, lo: float,
                 hi: float) -> float:
    """Best value on a symmetric grid around current, clamped to [lo, hi]."""
    best = current
    best_score = evaluate(current)
    for k in (-3, -2, -1, 1, 2, 3):
        value = current + k * step
        if value < lo or value > hi:
            continue
        score = evaluate(value)
        if score < best_score:
            best, best_score = value, score
    return best


def _seed_overhead(rates: dict[str, float], target_throughput: float,
                   target_composition: Optional[dict[str, float]]) -> float:
    """Initial overhead estimate.

    With composition targets, invert the implied per-component rates of
    the fastest components (their factors are pinned at 1.0). Otherwise
    bisect the closed-form total, factors all 1.0.
    """
    if target_composition:
        implied_overheads = []
        for comp_id, share in target_composition.items():
            rate = rates.get(comp_id)
            if rate is None:
                continue
            implied = target_throughput * share
            if implied >= rate or implied <= 0:
                continue
            implied_overheads.append(1.0 / implied - 1.0 / rate)
        if implied_overheads:
            return max(0.0, min(implied_overheads))
        return 0.0
    factors = {cid: 1.0 for cid in rates}
    total0, _ = _closed_form(rates, factors, 0.0)
    if target_throughput >= total0:
        return 0.0
    lo, hi = 0.0, 1e-3
    while (hi < _OVERHEAD_CAP
           and _closed_form(rates, factors, hi)[0] > target_throughput):
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _closed_form(rates, factors, mid)[0] > target_throughput:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _seed_factors(rates: dict[str, float], cpu_ids: list[str],
                  target_throughput: float,
                  target_composition: dict[str, float],
                  overhead: float) -> dict[str, float]:
    """Invert each CPU cluster's implied rate at the seeded overhead."""
    factors = {}
    for cid in cpu_ids:
        share = target_composition.get(cid)
        if not share:  # no target, or a zero share: no rate to invert
            factors[cid] = 1.0
            continue
        implied = target_throughput * share
        inv = 1.0 / implied - overhead
        if inv <= 0:
            factors[cid] = 1.0
            continue
        factors[cid] = min(1.0, max(_MIN_FACTOR, 1.0 / (rates[cid] * inv)))
    return factors
