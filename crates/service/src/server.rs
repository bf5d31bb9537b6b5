//! The campaign service daemon: accept loops, the run scheduler and the
//! per-connection protocol handler.
//!
//! The daemon owns a small fixed worker pool (no async runtime — plain
//! threads, a [`Mutex`]ed run table and [`Condvar`]s). Each listener has an
//! accept thread blocked in `accept()`, so a connection is served as soon
//! as it is accepted; `shutdown` wakes those threads by connecting once to
//! each listener. Each accepted connection gets its own thread that parses
//! newline-JSON [`Request`]s and writes [`Response`] lines back, and every
//! new connection reaps the threads of connections that have finished, so
//! a long-lived daemon keeps only live connections' stacks mapped.
//! Campaign runs execute on the worker threads through the existing
//! experiment registry, with a [`DaySink`] publishing every completed day
//! into the run's progress record so any number of watchers can stream it.
//!
//! Budget isolation: a submission whose config asks for a
//! `global_event_budget` gets its **own fresh** [`SharedBudget`] (per-run
//! isolation — one greedy campaign cannot starve its neighbours), while
//! submissions without one fall back to the daemon-wide pool configured at
//! [`Daemon::start`] time, if any.
//!
//! Distributed campaigns: a `shard_submit` request executes one contiguous
//! AP range of a campaign **synchronously on its connection
//! thread** (bypassing the worker queue and the daemon-wide budget pool)
//! through [`serve_shard`], the path the `shard-worker` process shares, and
//! replies with the shard's mergeable partial-checkpoint document — so a
//! coordinator can fan a campaign out across daemons and merge the partials
//! into the byte-identical single-process artifact. The queue
//! itself can be bounded with [`ServeOptions::queue_limit`]; submissions
//! past the bound are rejected with a typed `queue_full` error.

use crate::protocol::{
    codes, Line, LineReader, Request, Response, RunOutcome, RunState, RunStatus,
};
use crate::shard::serve_shard;
use mp_netsim::sim::SharedBudget;
use parasite::experiments::{
    panic_message, run_campaign_with_checkpoint_ctx, Artifact, ArtifactData, CancelToken,
    DaySink, DayStats, ExperimentError, ExperimentId, FaultPlan, Registry, RunConfig, RunCtx,
    ShardPlan,
};
use parasite::json::ToJson;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection thread's read waits for a request before it
/// re-checks the shutdown flag: an idle connection closes within this long
/// of a `shutdown`.
const IDLE_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// How the daemon should listen and schedule.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Path of the unix socket to bind (removed again on clean shutdown).
    pub socket: PathBuf,
    /// Optional additional TCP listen address, e.g. `127.0.0.1:7071`.
    pub tcp: Option<String>,
    /// Worker threads executing runs concurrently (minimum 1).
    pub workers: usize,
    /// Daemon-wide event budget pool for submissions that do not carry their
    /// own `global_event_budget`; `0` means unlimited.
    pub global_event_budget: u64,
    /// Most submissions allowed to sit in the queue (not yet running) at
    /// once; further submissions are rejected with a `queue_full` error
    /// until a worker drains the queue. `0` means unbounded.
    pub queue_limit: usize,
}

impl ServeOptions {
    /// Options for a daemon on `socket` with two workers, no TCP listener,
    /// no daemon-wide budget and an unbounded queue.
    pub fn new(socket: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            socket: socket.into(),
            tcp: None,
            workers: 2,
            global_event_budget: 0,
            queue_limit: 0,
        }
    }
}

/// Everything a run accumulates while queued, running and done. Watchers
/// block on `cond` and re-read under the mutex.
#[derive(Debug, Default)]
struct RunProgress {
    state: RunState,
    days: Vec<DayStats>,
    outcome: Option<Finished>,
}

/// How a finished run ended, as its progress record keeps it for as long as
/// the daemon lives. A completed submission keeps its typed [`Artifact`]
/// (under a kilobyte for a campaign) rather than the JSON tree of its `done`
/// line (over four kilobytes); the tree is built each time a `done` line is
/// written.
/// Either form clones as a reference count, so a watcher takes it under the
/// progress lock without copying.
#[derive(Debug, Clone)]
enum Finished {
    /// A submitted run's artifact.
    Artifact(Arc<Artifact>),
    /// Any other outcome as it is sent: a shard's partial checkpoint, a
    /// cancellation or a failure.
    Sent(Arc<RunOutcome>),
}

impl Finished {
    fn sent(outcome: RunOutcome) -> Finished {
        Finished::Sent(Arc::new(outcome))
    }

    fn kind(&self) -> &'static str {
        match self {
            Finished::Artifact(_) => "ok",
            Finished::Sent(outcome) => outcome.kind(),
        }
    }

    /// The outcome object of the run's `done` line.
    fn to_outcome(&self) -> RunOutcome {
        match self {
            Finished::Artifact(artifact) => RunOutcome::Ok { artifact: artifact.to_json() },
            Finished::Sent(outcome) => RunOutcome::clone(outcome),
        }
    }
}

/// One submitted run: immutable submission data plus mutable progress.
#[derive(Debug)]
struct RunEntry {
    id: u64,
    experiment: ExperimentId,
    config: RunConfig,
    checkpoint: Option<PathBuf>,
    cancel: CancelToken,
    progress: Mutex<RunProgress>,
    cond: Condvar,
}

/// The mutable scheduler table.
#[derive(Debug, Default)]
struct State {
    next_run: u64,
    runs: BTreeMap<u64, Arc<RunEntry>>,
    queue: VecDeque<u64>,
}

/// The unix socket file the daemon bound: its path and the identity
/// (device, inode) of the file, so shutdown never mistakes a socket someone
/// else later bound at the same path for its own.
#[derive(Debug)]
struct SocketFile {
    path: PathBuf,
    id: (u64, u64),
}

impl SocketFile {
    /// Whether `path` still holds the socket file the daemon bound.
    fn is_ours(&self) -> bool {
        std::fs::symlink_metadata(&self.path).is_ok_and(|meta| (meta.dev(), meta.ino()) == self.id)
    }
}

/// Where `begin_shutdown` connects to wake an accept thread blocked in
/// `accept()`, and whether that connect succeeded.
#[derive(Debug)]
struct AcceptLoop {
    wake: Wake,
    woken: AtomicBool,
}

#[derive(Debug)]
enum Wake {
    Unix,
    Tcp(SocketAddr),
}

impl Wake {
    /// Connects once to the listener so that its accept thread, blocked in
    /// `accept()`, returns and sees the shutdown flag; the connection is
    /// dropped at once. A TCP listener bound to an unspecified address
    /// (`0.0.0.0`, `::`) is reached over loopback on the same port. Returns
    /// whether the connect succeeded.
    fn connect(&self, socket: &SocketFile) -> bool {
        match self {
            Wake::Unix => socket.is_ours() && UnixStream::connect(&socket.path).is_ok(),
            Wake::Tcp(addr) => {
                let mut addr = *addr;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr.ip() {
                        IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                        IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                    });
                }
                TcpStream::connect(addr).is_ok()
            }
        }
    }
}

/// State shared by accept threads, connection threads and workers.
struct Shared {
    state: Mutex<State>,
    queue_ready: Condvar,
    shutdown: AtomicBool,
    pool: Option<SharedBudget>,
    queue_limit: usize,
    socket: SocketFile,
    accept_loops: Vec<AcceptLoop>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running daemon. Dropping the handle does **not** stop it; send a
/// `shutdown` request (or call [`Daemon::wait`] after one) to stop cleanly.
pub struct Daemon {
    inner: Arc<Shared>,
    /// One per entry of `Shared::accept_loops`, in the same order.
    accept_threads: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
}

/// Binds the unix socket so that its path appears only once it is
/// listening: the listener is bound under a staging name in the same
/// directory and renamed onto `path`, so a client that waits for the file
/// to exist never finds it refusing connections. A socket file nobody
/// answers (the connect probe is refused) is a crashed daemon's leftover,
/// and the rename replaces it. A live daemon, or any non-socket file at the
/// path, is an `AddrInUse` error — a regular file is someone's data, not
/// ours to clobber.
fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    let in_use = |why: String| io::Error::new(io::ErrorKind::AddrInUse, why);
    match std::fs::symlink_metadata(path) {
        Ok(meta) if !meta.file_type().is_socket() => {
            return Err(in_use(format!("{} exists and is not a socket", path.display())));
        }
        Ok(_) => match UnixStream::connect(path) {
            Err(probe) if probe.kind() == io::ErrorKind::ConnectionRefused => {}
            Ok(_) => {
                return Err(in_use(format!(
                    "another daemon is already listening on {}",
                    path.display()
                )))
            }
            Err(probe) => return Err(in_use(format!("{} is in use: {probe}", path.display()))),
        },
        Err(error) if error.kind() == io::ErrorKind::NotFound => {}
        Err(error) => return Err(error),
    }
    static STAGED: AtomicU64 = AtomicU64::new(0);
    let staging = path.with_file_name(format!(
        ".staging-{}-{}",
        std::process::id(),
        STAGED.fetch_add(1, Ordering::Relaxed)
    ));
    let listener = UnixListener::bind(&staging)?;
    if let Err(error) = std::fs::rename(&staging, path) {
        let _ = std::fs::remove_file(&staging);
        return Err(error);
    }
    Ok(listener)
}

impl Daemon {
    /// Binds the listeners and spawns the accept and worker threads. The
    /// socket file appears only once the daemon is listening. A stale
    /// socket file from a crashed previous daemon is detected (nobody
    /// answers a connect probe) and replaced; a path where a daemon still
    /// listens, or that holds a non-socket file, refuses to bind.
    pub fn start(options: ServeOptions) -> io::Result<Daemon> {
        let unix = bind_unix(&options.socket)?;
        let meta = std::fs::symlink_metadata(&options.socket)?;
        let socket = SocketFile { path: options.socket.clone(), id: (meta.dev(), meta.ino()) };
        let tcp = options.tcp.as_ref().map(TcpListener::bind).transpose()?;
        let tcp_addr = tcp.as_ref().map(|listener| listener.local_addr()).transpose()?;

        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            queue_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            pool: (options.global_event_budget > 0)
                .then(|| SharedBudget::new(options.global_event_budget)),
            queue_limit: options.queue_limit,
            socket,
            accept_loops: std::iter::once(Wake::Unix)
                .chain(tcp_addr.map(Wake::Tcp))
                .map(|wake| AcceptLoop { wake, woken: AtomicBool::new(false) })
                .collect(),
            conn_threads: Mutex::new(Vec::new()),
        });

        // The daemon's listener/worker pool is a sanctioned thread pool:
        // every thread is joined on shutdown (an accept thread shutdown could
        // not wake is detached instead) and no simulation state is shared
        // across them except through the run queue.
        let mut accept_threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            // mp-lint: allow(thread-spawn)
            accept_threads.push(std::thread::spawn(move || {
                accept_loop(&shared, unix.incoming(), Connection::unix)
            }));
        }
        if let Some(listener) = tcp {
            let shared = Arc::clone(&shared);
            // mp-lint: allow(thread-spawn)
            accept_threads.push(std::thread::spawn(move || {
                accept_loop(&shared, listener.incoming(), Connection::tcp)
            }));
        }
        let workers = (0..options.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                // mp-lint: allow(thread-spawn)
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Daemon { inner: shared, accept_threads, workers, tcp_addr })
    }

    /// The bound TCP address, when a TCP listener was requested (useful with
    /// a `:0` ephemeral port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Blocks until the daemon shuts down (a client sent `shutdown`), then
    /// joins every thread and removes the socket file if it is still the
    /// one the daemon bound. An accept thread that shutdown could not wake
    /// (someone unlinked the socket file, say) stays blocked in `accept()`
    /// and is detached rather than joined, so this always returns.
    pub fn wait(self) -> io::Result<()> {
        // Workers see the shutdown flag only under the state lock, which
        // `begin_shutdown` holds until it has tried every wake-up.
        for handle in self.workers {
            let _ = handle.join();
        }
        for (handle, accept) in self.accept_threads.into_iter().zip(&self.inner.accept_loops) {
            if accept.woken.load(Ordering::SeqCst) {
                let _ = handle.join();
            }
        }
        let connections = std::mem::take(&mut *self.inner.conn_threads.lock().unwrap());
        for handle in connections {
            let _ = handle.join();
        }
        if !self.inner.socket.is_ours() {
            return Ok(());
        }
        match std::fs::remove_file(&self.inner.socket.path) {
            Ok(()) => Ok(()),
            Err(error) if error.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(error) => Err(error),
        }
    }
}

/// Serves every connection a listener accepts until shutdown: blocks in
/// `accept()`, and stops at the first connection accepted after the
/// shutdown flag is set — the one `begin_shutdown` makes to wake it. A
/// failed accept (an aborted connection, or no file descriptor left) is
/// skipped and `accept()` is called again at once.
fn accept_loop<S>(
    shared: &Arc<Shared>,
    incoming: impl Iterator<Item = io::Result<S>>,
    connection: fn(S) -> io::Result<Connection>,
) {
    for stream in incoming {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(stream) = stream {
            spawn_connection(shared, connection(stream));
        }
    }
}

/// A socket pair abstracting unix and TCP streams behind `Read`/`Write`
/// trait objects, configured for blocking reads with a short timeout so the
/// handler can notice daemon shutdown between requests.
struct Connection {
    reader: BufReader<Box<dyn io::Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Connection {
    fn unix(stream: UnixStream) -> io::Result<Connection> {
        stream.set_read_timeout(Some(IDLE_READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
        })
    }

    fn tcp(stream: TcpStream) -> io::Result<Connection> {
        stream.set_read_timeout(Some(IDLE_READ_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(writer),
        })
    }

    fn write_line(&mut self, response: &Response) -> io::Result<()> {
        writeln!(self.writer, "{}", response.to_json())?;
        self.writer.flush()
    }

    /// Writes a pre-rendered line: the shard path's reply, which a garble
    /// fault may have deliberately truncated.
    fn write_raw_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }
}

/// Spawns the connection's thread, first joining the threads of
/// connections that have finished: an exited thread keeps its stack mapped
/// until it is joined.
fn spawn_connection(shared: &Arc<Shared>, connection: io::Result<Connection>) {
    let Ok(connection) = connection else { return };
    let shared_for_thread = Arc::clone(shared);
    let mut threads = shared.conn_threads.lock().unwrap();
    for finished in threads.extract_if(.., |handle| handle.is_finished()) {
        let _ = finished.join();
    }
    // Per-connection thread of the sanctioned daemon pool, tracked in
    // conn_threads and joined on shutdown. mp-lint: allow(thread-spawn)
    threads.push(std::thread::spawn(move || handle_connection(&shared_for_thread, connection)));
}

fn handle_connection(shared: &Arc<Shared>, mut connection: Connection) {
    let mut lines = LineReader::default();
    loop {
        let keep_reading = match lines.read(&mut connection.reader) {
            Ok(Line::Text(text)) => serve_line(shared, &mut connection, &text),
            Ok(Line::Rejected(message)) => connection
                .write_line(&Response::Error { message, code: coded(codes::BAD_REQUEST) })
                .is_ok(),
            Ok(Line::Eof) => false,
            // Idle. Any bytes of a partial request that arrived before the
            // timeout stay buffered in `lines` — the rest of the line is
            // still in flight.
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                !shared.shutdown.load(Ordering::SeqCst)
            }
            Err(_) => false,
        };
        if !keep_reading {
            break;
        }
    }
}

/// Parses and dispatches one request line; returns whether the connection
/// should keep reading.
fn serve_line(shared: &Arc<Shared>, connection: &mut Connection, line: &str) -> bool {
    match Request::parse_line(line) {
        Ok(request) => {
            let is_shutdown = matches!(request, Request::Shutdown);
            dispatch(shared, connection, request).is_ok() && !is_shutdown
        }
        Err(message) => connection
            .write_line(&Response::Error { message, code: coded(codes::BAD_REQUEST) })
            .is_ok(),
    }
}

/// Wraps a protocol error-code constant for a [`Response::Error`].
fn coded(code: &str) -> Option<String> {
    Some(code.to_string())
}

fn dispatch(
    shared: &Arc<Shared>,
    connection: &mut Connection,
    request: Request,
) -> io::Result<()> {
    match request {
        Request::Submit { experiment, config, checkpoint, watch } => {
            match submit(shared, experiment, *config, checkpoint) {
                Ok(run) => {
                    connection.write_line(&Response::Accepted { run, experiment })?;
                    if watch {
                        stream_run(shared, connection, run)?;
                    }
                    Ok(())
                }
                Err((message, code)) => {
                    connection.write_line(&Response::Error { message, code: coded(code) })
                }
            }
        }
        Request::Status { run } => {
            let runs = status(shared, run);
            match (run, runs.is_empty()) {
                (Some(run), true) => connection.write_line(&Response::Error {
                    message: format!("unknown run {run}"),
                    code: coded(codes::BAD_REQUEST),
                }),
                _ => connection.write_line(&Response::Status { runs }),
            }
        }
        Request::Watch { run } => {
            if entry_for(shared, run).is_some() {
                stream_run(shared, connection, run)
            } else {
                connection.write_line(&Response::Error {
                    message: format!("unknown run {run}"),
                    code: coded(codes::BAD_REQUEST),
                })
            }
        }
        Request::Cancel { run } => match entry_for(shared, run) {
            Some(entry) => {
                entry.cancel.cancel();
                // Wake the run's watchers and the workers: a queued run must
                // resolve to `cancelled` without ever executing.
                entry.cond.notify_all();
                shared.queue_ready.notify_all();
                connection.write_line(&Response::Cancelling { run })
            }
            None => connection.write_line(&Response::Error {
                message: format!("unknown run {run}"),
                code: coded(codes::BAD_REQUEST),
            }),
        },
        Request::Shutdown => {
            let active_runs = begin_shutdown(shared);
            connection.write_line(&Response::ShuttingDown { active_runs })
        }
        Request::ShardSubmit { config, first_ap, aps } => {
            connection.write_raw_line(&shard_submit(shared, *config, ShardPlan { first_ap, aps }))
        }
    }
}

/// A rejected submission: the error message plus its machine-readable
/// [`codes`] constant — every daemon-originated error is typed.
type SubmitError = (String, &'static str);

/// Validates and enqueues a submission, returning the new run id. An invalid
/// configuration is rejected here, before it gets a run id.
fn submit(
    shared: &Arc<Shared>,
    experiment: ExperimentId,
    config: RunConfig,
    checkpoint: Option<PathBuf>,
) -> Result<u64, SubmitError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err((
            "daemon is shutting down; submission rejected".to_string(),
            codes::UNAVAILABLE,
        ));
    }
    let valid = match checkpoint {
        Some(_) => config.validate_checkpointed(experiment),
        None => config.validate(),
    };
    valid.map_err(|error| (ExperimentError::from(error).to_string(), codes::BAD_REQUEST))?;
    let mut state = shared.state.lock().unwrap();
    if shared.queue_limit > 0 && state.queue.len() >= shared.queue_limit {
        return Err((
            format!("submission queue is full (limit {})", shared.queue_limit),
            codes::QUEUE_FULL,
        ));
    }
    let run = register(&mut state, experiment, config, checkpoint).id;
    state.queue.push_back(run);
    drop(state);
    shared.queue_ready.notify_one();
    Ok(run)
}

/// Adds a fresh run to the table under the next run id.
fn register(
    state: &mut State,
    experiment: ExperimentId,
    config: RunConfig,
    checkpoint: Option<PathBuf>,
) -> Arc<RunEntry> {
    state.next_run += 1;
    let entry = Arc::new(RunEntry {
        id: state.next_run,
        experiment,
        config,
        checkpoint,
        cancel: CancelToken::new(),
        progress: Mutex::new(RunProgress::default()),
        cond: Condvar::new(),
    });
    state.runs.insert(entry.id, Arc::clone(&entry));
    entry
}

/// Marks a run as executing and wakes its watchers.
fn set_running(entry: &Arc<RunEntry>) {
    entry.progress.lock().unwrap().state = RunState::Running;
    entry.cond.notify_all();
}

/// The context a run executes under: its cancel token, a day sink that
/// publishes every completed day to the run's watchers, and `budget`.
fn run_ctx(entry: &Arc<RunEntry>, budget: Option<SharedBudget>) -> RunCtx {
    let sink_entry = Arc::clone(entry);
    RunCtx {
        shared_budget: budget,
        cancel: entry.cancel.clone(),
        day_sink: Some(DaySink::new(move |stats: &DayStats| {
            sink_entry.progress.lock().unwrap().days.push(*stats);
            sink_entry.cond.notify_all();
        })),
    }
}

/// Executes one campaign shard **synchronously** on the calling connection
/// thread under a fresh run id, returning the reply line [`serve_shard`]
/// rendered. The deterministic fault plan (`MP_FAULT_PLAN`, see PROTOCOL.md)
/// covers this path too, so a coordinator fanning out over daemons can be
/// chaos-tested.
///
/// Shards deliberately bypass both the worker queue (a coordinator fans
/// shards out across daemons and wants each connection to block until its
/// shard is done) and the daemon-wide budget pool (a shard sees only its
/// own APs, so a shared pool would make the merged result depend on
/// scheduling — the merge's determinism contract forbids that). The run
/// still gets a table entry, so `status` reports it and `cancel` stops it
/// at its next day boundary.
fn shard_submit(shared: &Arc<Shared>, config: RunConfig, plan: ShardPlan) -> String {
    if shared.shutdown.load(Ordering::SeqCst) {
        let message = "daemon is shutting down; submission rejected".to_string();
        return Response::Error { message, code: coded(codes::UNAVAILABLE) }.to_json().to_string();
    }
    let mut state = shared.state.lock().unwrap();
    let entry = register(&mut state, ExperimentId::CampaignFleet, config, None);
    drop(state);
    set_running(&entry);
    let ctx = run_ctx(&entry, None);
    let reply = serve_shard(entry.id, &entry.config, plan, &ctx, FaultPlan::global());
    finish(&entry, Finished::sent(reply.outcome));
    reply.line
}

fn entry_for(shared: &Arc<Shared>, run: u64) -> Option<Arc<RunEntry>> {
    shared.state.lock().unwrap().runs.get(&run).cloned()
}

fn status(shared: &Arc<Shared>, filter: Option<u64>) -> Vec<RunStatus> {
    let state = shared.state.lock().unwrap();
    state
        .runs
        .values()
        .filter(|entry| filter.is_none_or(|run| entry.id == run))
        .map(|entry| {
            let progress = entry.progress.lock().unwrap();
            RunStatus {
                run: entry.id,
                experiment: entry.experiment,
                state: progress.state,
                days: progress.days.len() as u32,
                outcome: progress.outcome.as_ref().map(|o| o.kind().to_string()),
            }
        })
        .collect()
}

/// Replays a run's completed days to `connection`, follows it live, and ends
/// with the `done` message once the run finishes.
fn stream_run(shared: &Arc<Shared>, connection: &mut Connection, run: u64) -> io::Result<()> {
    let Some(entry) = entry_for(shared, run) else {
        return connection.write_line(&Response::Error {
            message: format!("unknown run {run}"),
            code: coded(codes::BAD_REQUEST),
        });
    };
    let mut cursor = 0usize;
    loop {
        // Collect whatever is new under the lock, write it outside the lock.
        let (fresh, outcome) = {
            let mut progress = entry.progress.lock().unwrap();
            while progress.days.len() == cursor && progress.outcome.is_none() {
                progress = entry.cond.wait(progress).unwrap();
            }
            let fresh: Vec<DayStats> = progress.days[cursor..].to_vec();
            (fresh, progress.outcome.clone())
        };
        for stats in &fresh {
            connection.write_line(&Response::Day { run, stats: *stats })?;
        }
        cursor += fresh.len();
        if let Some(outcome) = outcome {
            return connection.write_line(&Response::Done { run, outcome: outcome.to_outcome() });
        }
    }
}

/// Flags shutdown, wakes the accept threads, cancels every unfinished run
/// and wakes all sleepers. Returns how many runs were still queued or
/// running.
fn begin_shutdown(shared: &Arc<Shared>) -> u64 {
    let state = shared.state.lock().unwrap();
    // Both under the state lock, so no worker exits — and `Daemon::wait`
    // reads no `woken` flag — before every wake-up has been tried.
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        for accept in &shared.accept_loops {
            accept.woken.store(accept.wake.connect(&shared.socket), Ordering::SeqCst);
        }
    }
    let mut active = 0;
    for entry in state.runs.values() {
        let progress = entry.progress.lock().unwrap();
        if progress.state != RunState::Done {
            active += 1;
            entry.cancel.cancel();
        }
    }
    drop(state);
    shared.queue_ready.notify_all();
    active
}

/// Worker thread: pop runs off the queue and execute them. During shutdown
/// the queue is drained first so every queued run resolves (to `cancelled`)
/// before the thread exits — watchers never hang on an abandoned run.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let entry = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(run) = state.queue.pop_front() {
                    break state.runs.get(&run).cloned();
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                state = shared.queue_ready.wait(state).unwrap();
            }
        };
        if let Some(entry) = entry {
            execute(shared, &entry);
        }
    }
}

/// Runs one submission to completion and records its outcome.
fn execute(shared: &Arc<Shared>, entry: &Arc<RunEntry>) {
    // A run cancelled while still queued never executes: resolve it
    // deterministically with zero completed days.
    if entry.cancel.is_cancelled() {
        finish(entry, Finished::sent(RunOutcome::Cancelled { days_completed: 0 }));
        return;
    }
    set_running(entry);

    // Per-run budget isolation: a config-level budget gets its own fresh
    // pool; only budget-less submissions share the daemon-wide pool.
    let shared_budget = if entry.config.global_event_budget > 0 {
        Some(SharedBudget::new(entry.config.global_event_budget))
    } else {
        shared.pool.clone()
    };
    let ctx = run_ctx(entry, shared_budget);

    let result = catch_unwind(AssertUnwindSafe(|| match &entry.checkpoint {
        Some(path) => run_campaign_with_checkpoint_ctx(&entry.config, path, &ctx).map(|result| {
            Artifact {
                id: ExperimentId::CampaignFleet,
                config: entry.config,
                data: ArtifactData::CampaignFleet(result),
            }
        }),
        None => Registry::get(entry.experiment).try_run_ctx(&entry.config, &ctx),
    }));

    let outcome = match result {
        Ok(Ok(artifact)) => Finished::Artifact(Arc::new(artifact)),
        Ok(Err(ExperimentError::Cancelled { completed_days })) => {
            Finished::sent(RunOutcome::Cancelled { days_completed: completed_days })
        }
        Ok(Err(error)) => Finished::sent(RunOutcome::Failed { message: error.to_string() }),
        Err(panic) => Finished::sent(RunOutcome::Failed {
            message: format!("run panicked: {}", panic_message(panic)),
        }),
    };
    finish(entry, outcome);
}

fn finish(entry: &Arc<RunEntry>, outcome: Finished) {
    let mut progress = entry.progress.lock().unwrap();
    progress.state = RunState::Done;
    progress.outcome = Some(outcome);
    drop(progress);
    entry.cond.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Endpoint};

    #[test]
    fn finished_connection_threads_are_reaped() {
        let dir = std::env::temp_dir().join(format!("mp-server-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("daemon.sock");
        let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
        let endpoint = Endpoint::Unix(socket.clone());
        for _ in 0..64 {
            let mut client = Client::connect(&endpoint).expect("connect");
            let reply = client.request(&Request::Status { run: None }).expect("status");
            assert!(matches!(reply, Response::Status { .. }), "got {reply:?}");
        }
        let held = daemon.inner.conn_threads.lock().unwrap().len();
        assert!(held <= 8, "{held} connection handles held after 64 closed connections");
        let reply = Client::connect(&endpoint).expect("connect").request(&Request::Shutdown);
        assert!(matches!(reply, Ok(Response::ShuttingDown { .. })), "got {reply:?}");
        daemon.wait().expect("daemon joins cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
