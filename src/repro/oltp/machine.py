"""The OLTP System Under Benchmark: an engine machine.

:class:`OltpMachine` assembles OS build + engine + terminals the way
:class:`~repro.harness.machine.ServerMachine` does for web servers, on
the same :class:`~repro.harness.machine.Machine` base, so the harness's
phases and its campaign engine run it as they are:
:func:`~repro.harness.machine.machine_class` picks it for an engine
name, and a campaign merges and journals its result types.  Its
measures carry one extra column: the client's integrity violations.
"""

from repro.harness.machine import Machine
from repro.oltp.engines import create_engine
from repro.oltp.workload import OltpClient, OltpMetrics, OltpPartial
from repro.webservers.runtime import ServerRuntime

__all__ = ["OltpMachine"]


class OltpMachine(Machine):
    """One engine/OS combination plus its terminal farm."""

    # No slot-gap audit, and so no verified reboot.  The engines write
    # /db/<engine> while they serve, so the auditor flags
    # ``fileset-changed`` at every slot gap even with no fault injected
    # (24 of 24 gaps of a smoke-scale no-inject walk).  And a reboot
    # restores the post-warm-up image, which rolls the database and the
    # client's ledger back together: the transactions a fault lost
    # vanish from both.  With /db exempted from the audit, each engine's
    # smoke walk took two verified reboots and breezy's 9 lost
    # transactions read 0.
    audited = False

    metrics_type = OltpMetrics
    partial_type = OltpPartial

    def __init__(self, config, iteration=0):
        super().__init__(config, iteration)
        self.engine = create_engine(config.server_name)
        self.runtime = ServerRuntime(
            self.engine, self.os_instance, self.sim
        )
        self.client = OltpClient(
            self.sim,
            self.runtime.deliver,
            config.connections,
            self.engine.accounts,
            rng=self.sim.rng_for("oltp", iteration),
        )

    def boot(self):
        self.kernel.vfs.mkdir(f"/db/{self.engine.name}", parents=True)
        return self.runtime.start()

    def partial(self, windows):
        return self.client.partial(windows)
