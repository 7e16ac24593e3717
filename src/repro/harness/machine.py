"""The System Under Benchmark: one server machine, fully assembled.

A :class:`ServerMachine` is the paper's SUB: the simulated OS build booted
on a machine kernel, the fileset and the server's configuration/log files
materialized in the file system, the web server deployed under its
runtime, and the client-side transport wired up.  The benchmark target is
the web server; the fault injection target is the OS the machine booted.
The OLTP case study deploys a database engine on the same
:class:`Machine` base instead (:class:`~repro.oltp.machine.OltpMachine`);
:func:`machine_class` picks between the two by target name.
"""

from repro.ossim.builds import get_build
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.sim.kernel import Simulator
from repro.specweb.client import SpecWebClient
from repro.specweb.fileset import SpecWebFileset
from repro.specweb.metrics import MetricsPartial, SpecWebMetrics
from repro.specweb.rules import CONFORMANCE_SLOTS
from repro.webservers.registry import create_server
from repro.webservers.runtime import ServerRuntime

__all__ = [
    "INJECTOR_CPU_FRACTION",
    "Machine",
    "ServerMachine",
    "machine_class",
]

# Injector sharing the server machine: fraction of CPU it consumes while
# attached (profile mode and live injection alike).  The value models
# mutant preparation plus monitoring on the single-CPU server box of the
# paper's testbed.
INJECTOR_CPU_FRACTION = 0.05

_CONFIG_FILE_BYTES = 1536
_MIME_FILE_BYTES = 840


class Machine:
    """What every SUB shares: a seeded simulator and the OS build booted
    on a machine kernel.  Subclasses deploy a target under a
    :class:`ServerRuntime` (``runtime``) with a client driving it
    (``client``, with ``start``/``pause``/``resume``), and name the
    result types a campaign merges and journals: :meth:`partial` reduces
    measurement windows to a ``partial_type`` (``merge`` over partials,
    ``to_metrics(connections)``), which reduces to a ``metrics_type``."""

    # Whether the slot-gap integrity audit (DESIGN.md §10) applies to
    # this kind of machine.
    audited = True

    def __init__(self, config, iteration):
        self.config = config
        self.iteration = iteration
        self.sim = Simulator(seed=config.iteration_seed(iteration))
        self.kernel = SimKernel(time_source=self._now)
        self.build = get_build(config.os_codename)
        self.os_instance = OsInstance(self.build, self.kernel)

    def _now(self):
        return self.sim.now

    def partial(self, windows):
        """The client's measures over ``windows``, as a mergeable partial
        (``merge`` over partials, ``to_metrics(connections)``)."""
        raise NotImplementedError

    def run_for(self, seconds):
        """Advance the simulation by ``seconds``."""
        self.sim.run_until(self.sim.now + seconds)

    def attach_tracer(self, tracer):
        self.os_instance.attach_tracer(tracer)

    def attach_activation(self, tracker):
        self.os_instance.attach_activation(tracker)

    def set_injector_attached(self, attached):
        """Model the injector competing for machine CPU (Table 4)."""
        if attached:
            self.runtime.cpu_scale = 1.0 - INJECTOR_CPU_FRACTION
        else:
            self.runtime.cpu_scale = 1.0


class ServerMachine(Machine):
    """One deployed server/OS combination plus its client."""

    metrics_type = SpecWebMetrics
    partial_type = MetricsPartial

    def __init__(self, config, iteration=0):
        super().__init__(config, iteration)
        self.fileset = SpecWebFileset(
            directories=config.fileset_directories
        )
        self.server = create_server(config.server_name)
        self.runtime = ServerRuntime(
            self.server, self.os_instance, self.sim
        )
        self.client = SpecWebClient(
            self.sim,
            self.runtime.deliver,
            self.fileset,
            config.connections,
            rng=self.sim.rng_for("client", iteration),
        )
        self._environment_ready = False

    def partial(self, windows):
        return self.client.collector.compute_partial(
            windows, conformance_group=CONFORMANCE_SLOTS
        )

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def setup_environment(self):
        """Materialize the fileset, configs and log directories.

        Only the deployed server's files are created: dead config files
        for the other three servers would bloat every machine snapshot
        and integrity baseline with state nothing ever reads.  The mime
        map is materialized only for servers that load one — it must
        exist with its real size, or the server's open-always fallback
        would silently create an empty one and change behaviour.
        """
        if self._environment_ready:
            return
        vfs = self.kernel.vfs
        self.fileset.populate(vfs)
        vfs.mkdir("/etc", parents=True)
        vfs.mkdir("/logs", parents=True)
        vfs.mkdir("/postlog", parents=True)
        vfs.create_file(self.server.config_path, size=_CONFIG_FILE_BYTES)
        if self.server.uses_mime_map:
            vfs.create_file(
                f"/etc/{self.server.name}.mime", size=_MIME_FILE_BYTES
            )
        self._environment_ready = True

    def boot(self):
        """Set up the environment and start the server; returns success."""
        self.setup_environment()
        return self.runtime.start()

    def __repr__(self):
        return (
            f"ServerMachine({self.config.server_name} on "
            f"{self.build.display_name}, iteration={self.iteration})"
        )


def machine_class(server_name):
    """The machine that deploys ``server_name``: an OLTP engine's, else a
    web server's.  The one place a target name picks its machine."""
    # Imported here: the OLTP package builds on this module.
    from repro.oltp.engines import ENGINES
    from repro.oltp.machine import OltpMachine

    return OltpMachine if server_name in ENGINES else ServerMachine
