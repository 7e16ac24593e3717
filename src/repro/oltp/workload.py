"""OLTP workload: TPC-style terminals with an integrity audit.

The client drives ``terminals`` concurrent terminals, each running the
classic mix (mostly transfers, some balance checks, occasional scans).
On top of the performance measures it audits **durability**: a ledger of
acknowledged transfers is maintained client-side, and every balance
response is compared against it.  A mismatch on an account with no
in-flight or uncertain operations is an integrity violation — an
acknowledged transaction the system lost (or conjured).
"""

from dataclasses import dataclass, fields

__all__ = [
    "OltpClient",
    "OltpClientConfig",
    "OltpMetrics",
    "OltpPartial",
    "Transaction",
    "TxnResult",
]


class Transaction:
    """One client request to a database engine."""

    __slots__ = ("kind", "txn_id", "account_from", "account_to",
                 "amount", "connection_id")

    def __init__(self, kind, txn_id, account_from=0, account_to=0,
                 amount=0, connection_id=0):
        self.kind = kind
        self.txn_id = txn_id
        self.account_from = account_from
        self.account_to = account_to
        self.amount = amount
        self.connection_id = connection_id

    def __repr__(self):
        return (
            f"<Transaction #{self.txn_id} {self.kind} "
            f"{self.account_from}->{self.account_to} {self.amount}>"
        )


class TxnResult:
    """An engine's answer.  ``ok`` drives the shared process runtime."""

    __slots__ = ("ok", "value", "detail")

    def __init__(self, ok, value=None, detail=""):
        self.ok = ok
        self.value = value
        self.detail = detail

    def wire_size(self):
        return 160

    def __repr__(self):
        state = "ok" if self.ok else f"failed ({self.detail})"
        return f"<TxnResult {state} value={self.value}>"


@dataclass
class OltpClientConfig:
    terminals: int = 10
    accounts: int = 200
    initial_balance: int = 1_000
    transfer_fraction: float = 0.70
    balance_fraction: float = 0.25  # remainder is scans
    think_min: float = 0.004
    think_max: float = 0.020
    max_amount: int = 50
    txn_timeout: float = 6.0
    link_latency: float = 0.0003
    error_backoff: float = 0.35


@dataclass
class OltpMetrics:
    """Reduced measures for one OLTP run."""

    tps: float
    rtm_ms: float
    er_percent: float
    total_txns: int
    total_errors: int
    integrity_violations: int
    uncertain_accounts: int
    measured_seconds: float

    def __str__(self):
        return (
            f"TPS={self.tps:.1f} RTM={self.rtm_ms:.1f}ms "
            f"ER%={self.er_percent:.2f} "
            f"violations={self.integrity_violations}"
        )


@dataclass(frozen=True)
class OltpPartial:
    """Mergeable sums behind :class:`OltpMetrics`.

    The OLTP counterpart of :class:`~repro.specweb.metrics.MetricsPartial`:
    each machine epoch of a slot walk reduces its own windows to one,
    and the walk sums them in slot order.  The violation and uncertain
    account counts are the client's running totals when its machine
    was retired.
    """

    total_txns: int = 0
    total_errors: int = 0
    latency_sum: float = 0.0
    latency_count: int = 0
    integrity_violations: int = 0
    uncertain_accounts: int = 0
    measured_seconds: float = 0.0

    @classmethod
    def merge(cls, partials):
        """Sum partials field by field (callers pass them in slot order)."""
        partials = list(partials)
        return cls(**{
            spec.name: sum(getattr(partial, spec.name) for partial in partials)
            for spec in fields(cls)
        })

    def to_metrics(self, num_connections=None):
        """Reduce the sums to :class:`OltpMetrics` (the terminal count
        does not enter)."""
        seconds = self.measured_seconds
        return OltpMetrics(
            tps=self.total_txns / seconds if seconds > 0 else 0.0,
            rtm_ms=(1000.0 * self.latency_sum / self.latency_count
                    if self.latency_count else 0.0),
            er_percent=(100.0 * self.total_errors / self.total_txns
                        if self.total_txns else 0.0),
            total_txns=self.total_txns,
            total_errors=self.total_errors,
            integrity_violations=self.integrity_violations,
            uncertain_accounts=self.uncertain_accounts,
            measured_seconds=seconds,
        )


class _Responder:
    """Completion callback for one in-flight transaction: a class, not a
    closure, so that an in-flight transaction survives a machine
    snapshot, as the web client's requests do."""

    __slots__ = ("client", "terminal", "seq")

    def __init__(self, client, terminal, seq):
        self.client = client
        self.terminal = terminal
        self.seq = seq

    def __call__(self, result):
        client = self.client
        client.sim.schedule(
            client.config.link_latency, client._finish,
            self.terminal, self.seq, result,
        )


class _Terminal:
    __slots__ = ("index", "seq", "pending", "issued_at", "timeout_event",
                 "idle")

    def __init__(self, index):
        self.index = index
        self.seq = 0
        self.pending = None
        self.issued_at = 0.0
        self.timeout_event = None
        self.idle = True


class OltpClient:
    """Terminal driver plus ledger-based integrity audit."""

    def __init__(self, sim, transport, config=None, rng=None):
        self.sim = sim
        self.transport = transport
        self.config = config or OltpClientConfig()
        self.rng = rng or sim.rng_for("oltp-client")
        self.running = False
        self.terminals = [
            _Terminal(index) for index in range(self.config.terminals)
        ]
        self._txn_counter = 0
        # The audit state.
        self.ledger = {
            account: self.config.initial_balance
            for account in range(self.config.accounts)
        }
        self.pending_on_account = {
            account: 0 for account in range(self.config.accounts)
        }
        # Last simulated time a transfer touching the account was issued
        # or finished; balance reads overlapping such activity cannot be
        # audited (the read and the ledger may legitimately disagree).
        self.account_activity = {
            account: -1.0 for account in range(self.config.accounts)
        }
        self.uncertain = set()
        self.integrity_violations = 0
        self.violation_log = []
        # Raw records: (completed_at, ok, latency).
        self.records = []

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self):
        self.running = True
        for terminal in self.terminals:
            if terminal.idle:
                terminal.idle = False
                self.sim.schedule(
                    0.002 + 0.003 * terminal.index, self._issue, terminal
                )

    def pause(self):
        self.running = False

    def resume(self):
        self.running = True
        for terminal in self.terminals:
            if terminal.idle:
                terminal.idle = False
                self.sim.schedule(0.002, self._issue, terminal)

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def _draw_transaction(self, terminal):
        self._txn_counter += 1
        draw = self.rng.random()
        if draw < self.config.transfer_fraction:
            source = self.rng.randint(0, self.config.accounts - 1)
            target = self.rng.randint(0, self.config.accounts - 1)
            while target == source:
                target = self.rng.randint(0, self.config.accounts - 1)
            return Transaction(
                "transfer", self._txn_counter, source, target,
                amount=self.rng.randint(1, self.config.max_amount),
                connection_id=terminal.index,
            )
        if draw < (self.config.transfer_fraction
                   + self.config.balance_fraction):
            return Transaction(
                "balance", self._txn_counter,
                account_from=self.rng.randint(
                    0, self.config.accounts - 1
                ),
                connection_id=terminal.index,
            )
        return Transaction(
            "scan", self._txn_counter, connection_id=terminal.index
        )

    def _issue(self, terminal):
        if not self.running:
            terminal.idle = True
            return
        terminal.seq += 1
        seq = terminal.seq
        transaction = self._draw_transaction(terminal)
        terminal.pending = transaction
        terminal.issued_at = self.sim.now
        if transaction.kind == "transfer":
            self.pending_on_account[transaction.account_from] += 1
            self.pending_on_account[transaction.account_to] += 1
            now = self.sim.now
            self.account_activity[transaction.account_from] = now
            self.account_activity[transaction.account_to] = now
        self.sim.schedule(
            self.config.link_latency, self.transport, transaction,
            _Responder(self, terminal, seq),
        )
        terminal.timeout_event = self.sim.schedule(
            self.config.txn_timeout, self._on_timeout, terminal, seq
        )

    def _release_pending(self, transaction):
        if transaction.kind == "transfer":
            self.pending_on_account[transaction.account_from] -= 1
            self.pending_on_account[transaction.account_to] -= 1
            now = self.sim.now
            self.account_activity[transaction.account_from] = now
            self.account_activity[transaction.account_to] = now

    def _finish(self, terminal, seq, result):
        if terminal.seq != seq or terminal.pending is None:
            return
        transaction = terminal.pending
        terminal.pending = None
        if terminal.timeout_event is not None:
            self.sim.cancel(terminal.timeout_event)
            terminal.timeout_event = None
        self._release_pending(transaction)
        latency = self.sim.now - terminal.issued_at
        ok = result is not None and result.ok
        if transaction.kind == "transfer":
            if ok:
                self.ledger[transaction.account_from] -= (
                    transaction.amount
                )
                self.ledger[transaction.account_to] += transaction.amount
            elif result is None:
                # Connection reset: the commit may or may not have
                # happened; these accounts can no longer be audited.
                self.uncertain.add(transaction.account_from)
                self.uncertain.add(transaction.account_to)
        elif transaction.kind == "balance" and ok:
            self._audit_balance(
                transaction.account_from, result.value,
                read_issued_at=terminal.issued_at,
            )
        self.records.append((self.sim.now, ok, latency))
        delay = (
            self.rng.uniform(self.config.think_min,
                             self.config.think_max)
            if ok else self.config.error_backoff
        )
        self.sim.schedule(delay, self._issue, terminal)

    def _on_timeout(self, terminal, seq):
        if terminal.seq != seq or terminal.pending is None:
            return
        transaction = terminal.pending
        terminal.pending = None
        terminal.timeout_event = None
        self._release_pending(transaction)
        if transaction.kind == "transfer":
            self.uncertain.add(transaction.account_from)
            self.uncertain.add(transaction.account_to)
        latency = self.sim.now - terminal.issued_at
        self.records.append((self.sim.now, False, latency))
        self.sim.schedule(0.002, self._issue, terminal)

    # ------------------------------------------------------------------
    # The audit
    # ------------------------------------------------------------------
    def _audit_balance(self, account, reported, read_issued_at):
        if account in self.uncertain:
            return
        if self.pending_on_account[account] != 0:
            return
        if self.account_activity[account] >= read_issued_at:
            # A transfer overlapped this read's lifetime: the snapshot the
            # engine answered from may legitimately differ from the
            # ledger's current value.
            return
        expected = self.ledger[account]
        if reported != expected:
            self.integrity_violations += 1
            self.violation_log.append(
                (self.sim.now, account, expected, reported)
            )
            # Re-anchor so one lost transaction is counted once, not on
            # every later read of the account.
            self.ledger[account] = reported

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def partial(self, windows):
        """The mergeable sums behind :meth:`compute`."""
        total = 0
        errors = 0
        latency_sum = 0.0
        latency_count = 0
        for completed_at, ok, latency in self.records:
            if not any(start < completed_at <= end
                       for start, end in windows):
                continue
            total += 1
            if ok:
                latency_sum += latency
                latency_count += 1
            else:
                errors += 1
        return OltpPartial(
            total_txns=total,
            total_errors=errors,
            latency_sum=latency_sum,
            latency_count=latency_count,
            integrity_violations=self.integrity_violations,
            uncertain_accounts=len(self.uncertain),
            measured_seconds=sum(end - start for start, end in windows),
        )

    def compute(self, windows):
        """Reduce the records completed in ``windows`` to
        :class:`OltpMetrics`."""
        return self.partial(windows).to_metrics()
