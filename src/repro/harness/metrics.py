"""Derived dependability metrics (Section 3.2 of the paper).

From a baseline run and the runs in the presence of the faultload, the
paper derives:

* **performance degradation** — SPCf, THRf, RTMf: the SPECWeb99 measures
  under fault injection (most useful relative to the baseline);
* **ADMf** — the need for administrator intervention, MIS + KNS + KCP;
* **ER%f** — error rate in the presence of the faultload.

:class:`DependabilityMetrics` packages the absolute values and the
relative views used by the paper's Figure 5.
"""

from dataclasses import dataclass

__all__ = ["DependabilityMetrics"]


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
