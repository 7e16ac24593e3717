"""The methodology on a second domain: OLTP dependability benchmarking.

The paper closes by claiming its faultloads "can be used in other
experimental contexts, for example, DBMS dependability benchmarking".
This example does it: the same OS build and the same G-SWFIT engine
benchmark two transactional database engines — WalnutDB (write-ahead
logging, supervised) against BreezyDB (write-back cache, no WAL) — and
the client audits *integrity* on top of the performance measures: does a
crash lose transactions the engine had already acknowledged?

Each engine runs as one campaign (a baseline and two injection
iterations) on the harness's own engine: the target name picks the
machine, and each campaign prints its metrics digest.

Run with:  python examples/oltp_benchmark.py
"""

from dataclasses import replace

from repro.harness.campaign import ParallelCampaign
from repro.harness.config import ExperimentConfig
from repro.harness.telemetry import metrics_digest
from repro.oltp import ENGINES
from repro.pipeline import build_tuned_faultload
from repro.reporting.report import oltp_results


def main():
    # Step 1+2 of the methodology, re-done for this domain: profile the
    # database engines (not the web servers!) and fine-tune the faultload
    # to the API functions both engines actually exercise.
    base_config = ExperimentConfig.scaled(
        fault_sample=56, connections=10
    )
    base_config.rules = replace(base_config.rules, iterations=2)
    print("Fine-tuning the faultload for the OLTP domain...")
    tuned = build_tuned_faultload(
        base_config, servers=ENGINES, profile_seconds=20.0
    )
    print(f"  {len(tuned)} fault locations in the engines' common "
          f"API footprint: {', '.join(tuned.functions()[:6])}, ...")

    results = {}
    for engine in ENGINES:
        print(f"... benchmarking {engine}")
        results[engine] = ParallelCampaign(
            base_config.with_target(server_name=engine)
        ).run(faultload=tuned, include_profile_mode=False)
    print()
    print(oltp_results(results).render())
    print("metrics digests:")
    for engine, result in results.items():
        print(f"  {engine}: {metrics_digest(result)}")
    print(
        "\nReading: BreezyDB is faster when nothing goes wrong, but "
        "under the same software faultload it silently loses "
        "acknowledged transactions (the violations column), while "
        "WalnutDB's write-ahead log keeps integrity at zero — at the "
        "price of lower baseline throughput.  The faultload method is "
        "the paper's; only the benchmark targets changed."
    )


if __name__ == "__main__":
    main()
