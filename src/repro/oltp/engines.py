"""Two transactional database engines (the OLTP benchmark targets).

Both engines satisfy the same duck-typed contract the web servers do
(``startup(ctx)`` / ``handle(ctx, request)`` plus the supervision policy
attributes), so :class:`~repro.webservers.runtime.ServerRuntime`, the
watchdog and the slot harness apply unchanged.  All persistence flows
through the OS API — including the new scatter/record channel
(``NtWriteFile(..., record=...)`` / ``NtQueryFileRecords``) — so the
G-SWFIT faultload reaches every byte the engines consider durable.
"""

from repro.ossim.status import NtStatus
from repro.oltp.workload import TxnResult
from repro.webservers.base import ServerStartupError

__all__ = [
    "BaseDbEngine",
    "BreezyDb",
    "ENGINES",
    "WalnutDb",
    "create_engine",
]

_OPEN_ALWAYS = 4
_FILE_BEGIN = 0
_FILE_END = 2

RECORD_BYTES = 64
INITIAL_BALANCE = 1_000


class DbStartupError(ServerStartupError):
    """The engine could not bring its storage up.

    Subclasses :class:`ServerStartupError` so the shared process runtime
    treats a failed database startup exactly like a failed server start.
    """


class BaseDbEngine:
    """Shared skeleton: files, account table, request dispatch."""

    name = "basedb"
    version = "0.0"
    # Supervision-policy attributes (the ServerRuntime contract).
    worker_count = 2
    self_restart = False
    restart_delay = 0.5
    max_respawn_burst = 3
    crash_burst_limit = 3
    crash_burst_window = 4.0
    backlog = 64
    app_overhead_cycles = 1_500_000

    accounts = 200

    def __init__(self):
        self.data_path = f"/db/{self.name}/data.tbl"
        self.reset_process_state()

    def reset_process_state(self):
        self.table = {}
        self.data_handle = 0
        self.transactions_done = 0

    # ------------------------------------------------------------------
    # Shared storage helpers (all via the OS API)
    # ------------------------------------------------------------------
    def _open(self, ctx, path):
        handle = ctx.api.CreateFileW(path, "rw", _OPEN_ALWAYS)
        if handle == 0:
            raise DbStartupError(f"cannot open {path}")
        return handle

    def _load_table(self, ctx, handle):
        """Load the newest checkpoint records; None when unreadable."""
        size = ctx.api.GetFileSize(handle)
        if size < 0:
            return None
        status, records = ctx.api.NtQueryFileRecords(handle, 0, size)
        if status != NtStatus.SUCCESS or records is None:
            return None
        table = {}
        for _offset, record in records:
            if record[0] == "acct":
                table[record[1]] = record[2]
        return table

    def _write_account(self, ctx, handle, account, balance):
        status, written = ctx.api.NtWriteFile(
            handle, RECORD_BYTES, account * RECORD_BYTES,
            ("acct", account, balance),
        )
        return status == NtStatus.SUCCESS and written == RECORD_BYTES

    def _initialize_accounts(self, ctx):
        self.table = {
            account: INITIAL_BALANCE for account in range(self.accounts)
        }
        for account, balance in self.table.items():
            if not self._write_account(
                ctx, self.data_handle, account, balance
            ):
                raise DbStartupError("cannot initialize account table")

    # ------------------------------------------------------------------
    # Request dispatch (ServerRuntime contract)
    # ------------------------------------------------------------------
    def handle(self, ctx, request):
        self.transactions_done += 1
        if request.kind == "transfer":
            return self.do_transfer(ctx, request)
        if request.kind == "balance":
            return self.do_balance(ctx, request)
        if request.kind == "scan":
            return self.do_scan(ctx, request)
        return TxnResult(False, detail=f"unknown kind {request.kind!r}")

    def do_balance(self, ctx, request):
        ctx.charge(40_000)
        balance = self.table.get(request.account_from)
        if balance is None:
            return TxnResult(False, detail="no such account")
        return TxnResult(True, value=balance)

    def do_scan(self, ctx, request):
        ctx.charge(25_000 * min(len(self.table), 64))
        total = sum(self.table.values())
        return TxnResult(True, value=total)

    def do_transfer(self, ctx, request):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}/{self.version}>"


class WalnutDb(BaseDbEngine):
    """The careful engine: WAL, commit lock, checkpoints, recovery.

    A transfer is acknowledged only after its WAL record is durable; a
    checkpoint every ``CHECKPOINT_PERIOD`` commits rewrites the account
    table and truncates the log.  On startup the engine loads the newest
    checkpoint and replays the WAL — so a crash loses nothing that was
    acknowledged, which is exactly what the client's integrity audit
    checks.
    """

    name = "walnut"
    version = "2.1"
    worker_count = 4
    self_restart = True
    restart_delay = 0.4
    backlog = 96
    app_overhead_cycles = 2_200_000

    CHECKPOINT_PERIOD = 64

    def __init__(self):
        super().__init__()
        self.wal_path = f"/db/{self.name}/wal.log"

    def reset_process_state(self):
        super().reset_process_state()
        self.wal_handle = 0
        self.commits_since_checkpoint = 0

    def startup(self, ctx):
        self.data_handle = self._open(ctx, self.data_path)
        self.wal_handle = self._open(ctx, self.wal_path)
        table = self._load_table(ctx, self.data_handle)
        if table is None:
            raise DbStartupError("checkpoint unreadable")
        if table:
            self.table = table
        else:
            self._initialize_accounts(ctx)
        self._replay_wal(ctx)

    def _replay_wal(self, ctx):
        size = ctx.api.GetFileSize(self.wal_handle)
        if size < 0:
            raise DbStartupError("WAL unreadable")
        status, records = ctx.api.NtQueryFileRecords(
            self.wal_handle, 0, size
        )
        if status != NtStatus.SUCCESS or records is None:
            raise DbStartupError("WAL scan failed")
        for _offset, record in records:
            if record[0] != "txn":
                continue
            _tag, _txn_id, source, target, amount = record
            if source in self.table and target in self.table:
                self.table[source] -= amount
                self.table[target] += amount

    def do_transfer(self, ctx, request):
        api = ctx.api
        source = request.account_from
        target = request.account_to
        if source not in self.table or target not in self.table:
            return TxnResult(False, detail="no such account")
        api.RtlEnterCriticalSection("walnut.commit")
        try:
            # WAL first: the record must be durable before anything else.
            position = api.SetFilePointer(self.wal_handle, 0, _FILE_END)
            if position < 0:
                return TxnResult(False, detail="wal seek failed")
            status, written = api.NtWriteFile(
                self.wal_handle, RECORD_BYTES, None,
                ("txn", request.txn_id, source, target, request.amount),
            )
            if status != NtStatus.SUCCESS or written != RECORD_BYTES:
                return TxnResult(False, detail="wal append failed")
            self.table[source] -= request.amount
            self.table[target] += request.amount
            self.commits_since_checkpoint += 1
            if self.commits_since_checkpoint >= self.CHECKPOINT_PERIOD:
                if not self._checkpoint(ctx):
                    # The commit itself is safe in the WAL; the next
                    # checkpoint attempt will retry.
                    self.commits_since_checkpoint = (
                        self.CHECKPOINT_PERIOD
                    )
        finally:
            api.RtlLeaveCriticalSection("walnut.commit")
        return TxnResult(True, value=self.table[source])

    def _checkpoint(self, ctx):
        """Rewrite the account table, then truncate the WAL."""
        api = ctx.api
        for account, balance in self.table.items():
            if not self._write_account(
                ctx, self.data_handle, account, balance
            ):
                return False
        if api.SetFilePointer(self.wal_handle, 0, _FILE_BEGIN) != 0:
            return False
        if not api.SetEndOfFile(self.wal_handle):
            return False
        self.commits_since_checkpoint = 0
        return True


class BreezyDb(BaseDbEngine):
    """The fast-and-loose engine: write-back cache, no WAL, no checks.

    Transfers are acknowledged the moment memory is updated; dirty
    accounts reach the disk only every ``FLUSH_PERIOD`` commits, and the
    flush's return statuses go unchecked.  A crash between flushes loses
    acknowledged transactions — the durability violations the client's
    audit attributes to this engine.
    """

    name = "breezy"
    version = "0.9"
    worker_count = 2
    self_restart = False
    backlog = 48
    app_overhead_cycles = 1_100_000

    FLUSH_PERIOD = 16

    def reset_process_state(self):
        super().reset_process_state()
        self.dirty = set()
        self.commits_since_flush = 0

    def startup(self, ctx):
        self.data_handle = self._open(ctx, self.data_path)
        table = self._load_table(ctx, self.data_handle)
        if table:
            self.table = table
        else:
            self._initialize_accounts(ctx)

    def do_transfer(self, ctx, request):
        source = request.account_from
        target = request.account_to
        if source not in self.table or target not in self.table:
            return TxnResult(False, detail="no such account")
        self.table[source] -= request.amount
        self.table[target] += request.amount
        self.dirty.add(source)
        self.dirty.add(target)
        self.commits_since_flush += 1
        if self.commits_since_flush >= self.FLUSH_PERIOD:
            self._flush(ctx)
        return TxnResult(True, value=self.table[source])

    def _flush(self, ctx):
        """Write-back of dirty accounts; failures silently ignored."""
        ctx.api.RtlEnterCriticalSection("breezy.flush")
        try:
            for account in sorted(self.dirty):
                self._write_account(
                    ctx, self.data_handle, account, self.table[account]
                )
            self.dirty.clear()
            self.commits_since_flush = 0
        finally:
            ctx.api.RtlLeaveCriticalSection("breezy.flush")


# The OLTP targets, by name (``config.server_name``).
ENGINES = {"walnut": WalnutDb, "breezy": BreezyDb}


def create_engine(name):
    """Instantiate a fresh engine by name ('walnut' or 'breezy')."""
    cls = ENGINES.get(name)
    if cls is None:
        raise KeyError(
            f"unknown engine {name!r} (known: {sorted(ENGINES)})"
        )
    return cls()
