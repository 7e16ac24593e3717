"""Derived dependability metrics (Section 3.2 of the paper).

From a baseline run and the runs in the presence of the faultload, the
paper derives:

* **performance degradation** — SPCf, THRf, RTMf: the SPECWeb99 measures
  under fault injection (most useful relative to the baseline);
* **ADMf** — the need for administrator intervention, MIS + KNS + KCP;
* **ER%f** — error rate in the presence of the faultload.

:class:`DependabilityMetrics` packages the absolute values and the
relative views used by the paper's Figure 5.

The sequential campaign mode (DESIGN.md §14) estimates the same derived
metrics *while the campaign runs*: :class:`StreamingEstimator` keeps
Welford-style running moments per metric and :class:`StratumEstimator`
turns them into per-stratum confidence intervals — normal-approximation
once enough batches exist, a deterministic bootstrap fallback for small
strata — whose half-widths drive the stop-at-confidence decision.
"""

import math
from dataclasses import dataclass

__all__ = [
    "DependabilityMetrics",
    "SEQUENTIAL_TRACKED_METRICS",
    "StratumEstimator",
    "StreamingEstimator",
    "normal_quantile",
]

# The derived metrics the sequential stopping rule tracks, in report
# order.  ADMf is per-slot (interventions per injection slot) so strata
# of different sizes stay comparable.
SEQUENTIAL_TRACKED_METRICS = ("SPCf", "THRf", "RTMf", "ADMf", "ER%f")

# A stratum with fewer batches than this gets a percentile bootstrap
# interval of this many resamples instead of the normal approximation.
BOOTSTRAP_BELOW = 8
BOOTSTRAP_RESAMPLES = 200


def normal_quantile(p):
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Accurate to ~1e-9 over (0, 1) — far tighter than the stopping rule
    needs — and dependency-free, which keeps the container constraint
    (no scipy) honest.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients for the central and tail rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                * q + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q
                                + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                 * q + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q
                                 + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
            * r + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r
                                 + b[3]) * r + b[4]) * r + 1.0)


class StreamingEstimator:
    """Welford running mean/variance over a stream of observations."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self):
        """Sample variance (n-1 denominator); None below two points."""
        if self.count < 2:
            return None
        return self._m2 / (self.count - 1)

    @property
    def sd(self):
        variance = self.variance
        return None if variance is None else math.sqrt(max(variance, 0.0))


class StratumEstimator:
    """Interval estimators for one stratum's tracked derived metrics.

    Observations are *batch means*: each completed batch of injection
    slots contributes one value per tracked metric.  Half-widths use the
    normal approximation ``z * sd / sqrt(n)`` once ``n >=
    BOOTSTRAP_BELOW`` batches exist; below that a percentile bootstrap
    of the mean is used instead (small-sample normality is exactly what
    cannot be assumed for a stratum of a handful of batches).  The
    bootstrap draws from the :class:`~repro.sim.rng.SeededRng` passed to
    :meth:`half_widths`, so the stopping decision is a pure function of
    (observations, seed) — which is what lets two campaigns with the
    same stopping schedule make byte-identical decisions on any worker
    count.
    """

    def __init__(self, confidence=0.95):
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        self.confidence = confidence
        self._z = normal_quantile(0.5 + confidence / 2.0)
        self.estimators = {
            metric: StreamingEstimator()
            for metric in SEQUENTIAL_TRACKED_METRICS
        }
        self.observations = {
            metric: [] for metric in SEQUENTIAL_TRACKED_METRICS
        }

    @property
    def count(self):
        return self.estimators[SEQUENTIAL_TRACKED_METRICS[0]].count

    def observe(self, values):
        """Record one batch's metric values (a dict keyed by metric)."""
        for metric in SEQUENTIAL_TRACKED_METRICS:
            value = float(values[metric])
            self.estimators[metric].add(value)
            self.observations[metric].append(value)

    def means(self):
        return {
            metric: self.estimators[metric].mean
            for metric in SEQUENTIAL_TRACKED_METRICS
        }

    def _bootstrap_half_width(self, values, rng):
        count = len(values)
        resampled = []
        for _ in range(BOOTSTRAP_RESAMPLES):
            total = 0.0
            for _ in range(count):
                total += values[rng.randint(0, count - 1)]
            resampled.append(total / count)
        resampled.sort()
        alpha = 1.0 - self.confidence
        last = len(resampled) - 1
        low = resampled[int(math.floor(alpha / 2.0 * last))]
        high = resampled[int(math.ceil((1.0 - alpha / 2.0) * last))]
        return (high - low) / 2.0

    def half_widths(self, rng=None):
        """Current interval half-width per metric (None = undefined).

        ``rng`` feeds the small-sample bootstrap; when omitted, small
        strata fall back to the normal approximation (useful for tests,
        but campaigns always pass a derived stream).
        """
        widths = {}
        for metric in SEQUENTIAL_TRACKED_METRICS:
            estimator = self.estimators[metric]
            if estimator.count < 2:
                widths[metric] = None
                continue
            sd = estimator.sd
            if sd == 0.0:
                # Zero variance: the interval is a point, whatever the
                # sample size — a constant-metric stratum stops at the
                # slot floor instead of looping.
                widths[metric] = 0.0
            elif estimator.count < BOOTSTRAP_BELOW and rng is not None:
                widths[metric] = self._bootstrap_half_width(
                    self.observations[metric], rng
                )
            else:
                widths[metric] = (
                    self._z * sd / math.sqrt(estimator.count)
                )
        return widths


@dataclass(frozen=True)
class DependabilityMetrics:
    """Dependability measures of one server/OS pair."""

    server_name: str
    os_display: str
    spc_baseline: float
    thr_baseline: float
    rtm_baseline_ms: float
    spcf: float
    thrf: float
    rtmf_ms: float
    erf_percent: float
    mis: float
    kns: float
    kcp: float

    @classmethod
    def from_results(cls, result):
        """Build from a :class:`~repro.harness.results.BenchmarkResult`.

        The baseline is the profile-mode run when available (the paper
        compares against the injector-attached baseline, since the
        injector is part of the load), the plain baseline otherwise.
        """
        reference = result.profile_mode or result.baseline
        average = result.average_row()
        return cls(
            server_name=result.server_name,
            os_display=result.os_display,
            spc_baseline=reference.spc,
            thr_baseline=reference.thr,
            rtm_baseline_ms=reference.rtm_ms,
            spcf=average.get("SPC", 0.0),
            thrf=average.get("THR", 0.0),
            rtmf_ms=average.get("RTM", 0.0),
            erf_percent=average.get("ER%", 0.0),
            mis=average.get("MIS", 0.0),
            kns=average.get("KNS", 0.0),
            kcp=average.get("KCP", 0.0),
        )

    # ------------------------------------------------------------------
    # The relative views of Figure 5
    # ------------------------------------------------------------------
    @property
    def admf(self):
        """Administrator interventions per iteration (MIS+KNS+KCP)."""
        return self.mis + self.kns + self.kcp

    @property
    def spc_relative(self):
        """SPCf as a fraction of the baseline SPC (1.0 = no degradation)."""
        return self.spcf / self.spc_baseline if self.spc_baseline else 0.0

    @property
    def thr_relative(self):
        return self.thrf / self.thr_baseline if self.thr_baseline else 0.0

    @property
    def rtm_relative(self):
        """RTMf over baseline RTM (>1.0 = slower under faults)."""
        return (
            self.rtmf_ms / self.rtm_baseline_ms
            if self.rtm_baseline_ms else 0.0
        )

    def as_dict(self):
        return {
            "server": self.server_name,
            "os": self.os_display,
            "SPCf": self.spcf,
            "THRf": self.thrf,
            "RTMf": self.rtmf_ms,
            "ER%f": self.erf_percent,
            "ADMf": self.admf,
            "SPC_rel": self.spc_relative,
            "THR_rel": self.thr_relative,
            "RTM_rel": self.rtm_relative,
            "MIS": self.mis,
            "KNS": self.kns,
            "KCP": self.kcp,
        }
