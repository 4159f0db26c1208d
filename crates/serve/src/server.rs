//! The TCP server: transport front ends (epoll reactor or
//! thread-per-connection) over the shared job scheduler + worker pool
//! that executes every client's work.
//!
//! There is no batching dispatcher and no per-window grouping: each
//! connection expands requests into typed [`Job`]s and admits them into
//! one [`JobScheduler`] shared by every connection; a pool of worker
//! threads drains it in priority/aging order, streaming each job's
//! frame back to its requester the moment it resolves. Heterogeneous
//! work — mixed windows, machine styles, policies, priorities,
//! deadlines — interleaves freely in a single queue pass.
//!
//! Two transports feed that queue (selected by
//! [`ServeConfig::transport`], default [`Transport::Reactor`] on
//! Linux):
//!
//! * **Reactor** — one event-loop thread multiplexes every connection
//!   over epoll (see [`crate::reactor`]): nonblocking sockets,
//!   edge-triggered readiness, bounded per-connection outbound queues,
//!   per-connection in-flight quotas. Scales to hundreds of mostly
//!   idle connections without a thread per socket.
//! * **Threads** — the original blocking model: one reader thread per
//!   connection, blocking writes with stall timeouts. Kept as the
//!   portable fallback (`GALS_MCD_SERVE_TRANSPORT=threads`).
//!
//! Both transports share the request expansion, admission, and
//! completion paths below, so the wire contract — including the
//! drains-or-expires shutdown guarantee — is transport-independent.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gals_core::{McdConfig, SyncConfig};
use gals_explore::sched::Completion;
use gals_explore::{Job, JobOutcome, JobScheduler, MeasureItem, ResultCache, SweepEngine};
use gals_workloads::suite;

use crate::protocol::{BoundedLineReader, LineRead, Request, RequestKind, Response, MAX_LINE_LEN};

/// Poll granularity for connection readers checking the shutdown flag
/// (threads transport).
const READ_POLL: Duration = Duration::from_millis(100);

/// How long one response write may stall on a non-reading client before
/// that client's connection is abandoned (both transports; the reactor
/// measures it as time-since-last-flush-progress).
pub(crate) const WRITE_STALL_LIMIT: Duration = Duration::from_secs(10);

/// Which connection front end moves bytes for the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One epoll event-loop thread multiplexing every connection
    /// (Linux; the default there).
    Reactor,
    /// One blocking reader thread per connection (portable fallback).
    Threads,
}

impl Transport {
    /// The platform default: the reactor on Linux, threads elsewhere.
    pub fn default_for_target() -> Transport {
        if cfg!(target_os = "linux") {
            Transport::Reactor
        } else {
            Transport::Threads
        }
    }
}

/// Server configuration (bind address, parallelism, default window).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Scheduler worker threads (0 = available parallelism).
    pub workers: usize,
    /// Window applied when a request passes `window: 0` or none.
    pub default_window: u64,
    /// Result-cache file (`None` = in-memory only).
    pub cache_path: Option<String>,
    /// Scheduler aging step: a queued job is bypassed by at most
    /// `priority_level_difference × aging_step` later admissions
    /// before it runs (see [`JobScheduler`]).
    pub aging_step: u64,
    /// Connection front end (see [`Transport`]).
    pub transport: Transport,
    /// Reactor backpressure bound: bytes of un-flushed response frames
    /// one connection may queue before it is declared dead (a slow
    /// reader must not buffer unboundedly).
    pub max_outbound_bytes: usize,
    /// Reactor fairness quota: jobs one connection may have admitted
    /// but unresolved before its further requests wait (and, with its
    /// socket unread, backpressure the client). A single request
    /// larger than the quota still admits alone — the quota bounds
    /// concurrency, not request size.
    pub conn_inflight_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            default_window: 10_000,
            cache_path: None,
            aging_step: JobScheduler::DEFAULT_AGING_STEP,
            transport: Transport::default_for_target(),
            max_outbound_bytes: 4 << 20,
            conn_inflight_limit: 2048,
        }
    }
}

impl ServeConfig {
    /// Reads `GALS_SERVE_ADDR`, `GALS_SERVE_WORKERS`,
    /// `GALS_SERVE_WINDOW`, `GALS_SERVE_CACHE`, `GALS_SERVE_AGING`,
    /// `GALS_MCD_SERVE_TRANSPORT` (`reactor` / `threads`),
    /// `GALS_SERVE_MAX_OUTBOUND`, and `GALS_SERVE_CONN_INFLIGHT` over
    /// the defaults. An *unset* `GALS_SERVE_CACHE` selects the
    /// standard file (`target/gals-serve-cache.json`); an *empty* one
    /// selects in-memory-only operation.
    pub fn from_env() -> Self {
        use gals_common::env::{parse_env_or, var};
        let mut cfg = ServeConfig::default();
        if let Some(addr) = var("GALS_SERVE_ADDR") {
            cfg.addr = addr;
        }
        cfg.workers = parse_env_or("GALS_SERVE_WORKERS", cfg.workers);
        cfg.default_window = parse_env_or("GALS_SERVE_WINDOW", cfg.default_window);
        cfg.aging_step = parse_env_or("GALS_SERVE_AGING", cfg.aging_step);
        cfg.cache_path = match var("GALS_SERVE_CACHE") {
            Some(path) if path.is_empty() => None,
            Some(path) => Some(path),
            None => Some("target/gals-serve-cache.json".to_string()),
        };
        match var("GALS_MCD_SERVE_TRANSPORT").as_deref() {
            None => {}
            Some("reactor") => cfg.transport = Transport::Reactor,
            Some("threads") => cfg.transport = Transport::Threads,
            Some(other) => eprintln!(
                "warning: ignoring GALS_MCD_SERVE_TRANSPORT={other:?}: \
                 expected reactor or threads; using default"
            ),
        }
        cfg.max_outbound_bytes = parse_env_or("GALS_SERVE_MAX_OUTBOUND", cfg.max_outbound_bytes);
        cfg.conn_inflight_limit = parse_env_or("GALS_SERVE_CONN_INFLIGHT", cfg.conn_inflight_limit);
        cfg
    }
}

/// Where one connection's response frames go. The worker pool resolves
/// jobs for every connection; each transport supplies its own sink —
/// blocking mutex-guarded writes (threads) or a bounded queue the
/// reactor flushes (reactor). A sink never blocks the caller beyond
/// the threads transport's bounded write stall.
pub(crate) trait FrameSink: Send + Sync {
    /// Queues or writes one encoded frame line (without the newline).
    fn send_frame(&self, line: &str);
}

/// The threads transport's sink: a mutex-serialized blocking writer
/// with the connection's dead flag.
pub(crate) struct ThreadsSink {
    writer: Mutex<TcpStream>,
    /// Shared per connection and set on the first failed frame write
    /// (client stalled past `WRITE_STALL_LIMIT` or hung up): every
    /// later frame to that connection — across all its pipelined
    /// requests — is skipped, so one dead connection costs the worker
    /// pool at most one write-stall total.
    dead: Arc<AtomicBool>,
}

impl FrameSink for ThreadsSink {
    /// Writes one frame unless the connection is already dead,
    /// poisoning it on the first failure. The flag is re-checked
    /// *after* acquiring the writer lock: workers already queued on the
    /// mutex behind the one discovering the stall must bail out
    /// immediately instead of each paying `WRITE_STALL_LIMIT` in turn.
    fn send_frame(&self, line: &str) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let ok = guard.write_all(line.as_bytes()).is_ok()
            && guard.write_all(b"\n").is_ok()
            && guard.flush().is_ok();
        if !ok {
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

/// Per-request progress: counts the request's jobs down to the `done`
/// frame. Job completions (from any worker) send their frame, bump
/// the tallies, and whoever resolves the last job emits `done`.
struct RequestState {
    id: String,
    sink: Arc<dyn FrameSink>,
    remaining: AtomicUsize,
    results: AtomicU64,
    expired: AtomicU64,
    /// The owning connection's dead flag (shared with its jobs as the
    /// cancellation token; see [`ThreadsSink::dead`] for the threads
    /// transport's write-failure semantics).
    dead: Arc<AtomicBool>,
}

impl RequestState {
    /// Records one job's outcome: sends its frame, and the `done`
    /// frame after the request's last job.
    fn complete_one(&self, key: &str, outcome: JobOutcome, inner: &Inner) {
        let frame = match outcome {
            JobOutcome::Completed { runtime_ns, cached } => {
                self.results.fetch_add(1, Ordering::Relaxed);
                Response::Partial {
                    id: self.id.clone(),
                    key: key.to_string(),
                    runtime_ns,
                    cached,
                }
            }
            // A panicked simulation reports 0 (unusable by convention,
            // matching the explorer's validity rule).
            JobOutcome::Panicked => {
                self.results.fetch_add(1, Ordering::Relaxed);
                Response::Partial {
                    id: self.id.clone(),
                    key: key.to_string(),
                    runtime_ns: 0.0,
                    cached: false,
                }
            }
            JobOutcome::Expired => {
                self.expired.fetch_add(1, Ordering::Relaxed);
                // Keep the operator-facing signals honest: a job that
                // expired because its connection died is disconnect
                // churn, not deadline pressure.
                if self.dead.load(Ordering::Relaxed) {
                    inner.cancelled.fetch_add(1, Ordering::Relaxed);
                } else {
                    inner.expired.fetch_add(1, Ordering::Relaxed);
                }
                Response::Expired {
                    id: self.id.clone(),
                    key: key.to_string(),
                }
            }
        };
        self.sink.send_frame(&frame.to_line());
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let done = Response::Done {
                id: self.id.clone(),
                results: self.results.load(Ordering::Relaxed),
                expired: self.expired.load(Ordering::Relaxed),
            };
            self.sink.send_frame(&done.to_line());
        }
    }
}

/// Shared server state.
pub(crate) struct Inner {
    pub(crate) engine: SweepEngine,
    pub(crate) sched: JobScheduler<'static>,
    pub(crate) default_window: u64,
    pub(crate) shutdown: AtomicBool,
    pub(crate) requests: AtomicU64,
    pub(crate) admitted_jobs: AtomicU64,
    pub(crate) expired: AtomicU64,
    /// Jobs dropped because their connection died (distinct from
    /// deadline expiries).
    pub(crate) cancelled: AtomicU64,
}

/// The `gals-serve` server: a long-lived, multi-tenant front end over
/// the job scheduler and the sweep engine's sharded result cache.
///
/// Concurrency model: a transport front end (epoll reactor or
/// per-connection reader threads) parses request lines, expands them
/// into jobs tagged with the request id, and admits them — atomically
/// per request — into the single shared [`JobScheduler`]. Worker
/// threads pull jobs in priority/aging order regardless of which
/// connection admitted them and stream `partial` / `expired` frames
/// back per job; the last job of a request emits its `done` frame.
/// Duplicate configurations are simulated once (in-flight dedupe plus
/// the shared cache) — and because the simulator is deterministic, a
/// result served through the server is bit-identical to the same
/// configuration run directly through [`gals_explore::Explorer`],
/// regardless of scheduling order or transport.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    transport: Transport,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    #[cfg(target_os = "linux")]
    reactor: Option<crate::reactor::ReactorHandle>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("default_window", &self.default_window)
            .field("queued", &self.sched.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, starts the worker pool and the configured transport, and
    /// serves in background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind / cache-open / epoll-setup I/O errors.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let cache = match &cfg.cache_path {
            Some(path) => {
                let cache = ResultCache::open(path)?;
                let report = cache.recovery();
                if report.had_damage() {
                    eprintln!(
                        "gals-serve: result cache {path} recovered after unclean shutdown: \
                         {} base + {} sealed + {} log records replayed ({:?})",
                        report.base.records, report.sealed.records, report.log.records, report
                    );
                } else if report.log.records > 0 {
                    eprintln!(
                        "gals-serve: result cache {path}: replayed {} log records past the \
                         last compaction",
                        report.log.records
                    );
                }
                cache
            }
            None => ResultCache::in_memory(),
        };
        let mut engine = SweepEngine::new(cache);
        if cfg.workers > 0 {
            engine = engine.with_threads(cfg.workers);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            engine,
            sched: JobScheduler::with_aging_step(cfg.aging_step),
            default_window: cfg.default_window.max(1),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            admitted_jobs: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        });
        let worker_handles: Vec<JoinHandle<()>> = (0..inner.engine.threads())
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || inner.engine.serve_jobs(&inner.sched))
            })
            .collect();
        // The reactor requires Linux epoll; elsewhere every config
        // falls back to the portable threads transport.
        let transport = if cfg!(target_os = "linux") {
            cfg.transport
        } else {
            Transport::Threads
        };
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let mut server = Server {
            addr,
            inner,
            transport,
            accept_handle: None,
            worker_handles,
            conn_handles,
            #[cfg(target_os = "linux")]
            reactor: None,
        };
        match transport {
            #[cfg(target_os = "linux")]
            Transport::Reactor => {
                server.reactor = Some(crate::reactor::spawn(
                    listener,
                    server.inner.clone(),
                    crate::reactor::ReactorOptions {
                        max_outbound_bytes: cfg.max_outbound_bytes.max(MAX_LINE_LEN + 1),
                        conn_inflight_limit: cfg.conn_inflight_limit.max(1),
                    },
                )?);
            }
            #[cfg(not(target_os = "linux"))]
            Transport::Reactor => unreachable!("reactor transport forced off above"),
            Transport::Threads => {
                let inner = server.inner.clone();
                let conn_handles = server.conn_handles.clone();
                server.accept_handle = Some(std::thread::spawn(move || {
                    accept_loop(&listener, &inner, &conn_handles)
                }));
            }
        }
        Ok(server)
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The transport actually serving connections.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Simulations executed so far (excludes cache hits).
    pub fn simulated_count(&self) -> u64 {
        self.inner.engine.simulated_count()
    }

    /// Jobs that expired at their deadlines so far (jobs dropped for a
    /// dead connection count separately, in the `cancelled` status
    /// counter).
    pub fn expired_count(&self) -> u64 {
        self.inner.expired.load(Ordering::Relaxed)
    }

    /// Jobs dropped because their connection died.
    pub fn cancelled_count(&self) -> u64 {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Benchmarks currently resident in this server's trace pool
    /// (shard-residency introspection for the router tests and bench).
    pub fn trace_pool_benchmarks(&self) -> Vec<String> {
        self.inner.engine.trace_pool_benchmarks()
    }

    /// Graceful shutdown: stops accepting connections and admitting
    /// requests, then **drains-or-expires** the queue — every admitted
    /// job still completes (or expires at its deadline) and every
    /// frame, including each request's `done`, is flushed to its
    /// client *before* any connection closes — persists the cache, and
    /// joins every server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        #[cfg(target_os = "linux")]
        if let Some(mut reactor) = self.reactor.take() {
            // The reactor notices the flag, stops admitting, closes the
            // scheduler itself (it is the sole admitter), and exits
            // only after every owed frame is flushed or its connection
            // is provably dead.
            reactor.wake();
            reactor.join();
            for h in self.worker_handles.drain(..) {
                let _ = h.join();
            }
            // Final compaction; a failure here means restart
            // will replay from the WAL instead, so warn, don't panic.
            if let Err(e) = self.inner.engine.save_cache() {
                eprintln!(
                    "gals-serve: final cache compaction failed ({e}); results remain in the WAL"
                );
            }
            return;
        }
        // Threads transport. Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Connection readers poll the flag and exit; join them so no
        // request can be admitted after the scheduler closes (a reader
        // mid-request either finishes admitting before it exits or
        // never admits — requests are admitted atomically).
        let handles = std::mem::take(
            &mut *self
                .conn_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
        // Close the queue and let the workers drain it: every admitted
        // job's frame — and every request's done frame — is written
        // before the workers exit. Connections close only after that
        // (each socket's last writer handle lives in its requests'
        // states, which the completions drop), so a shutting-down
        // server can never swallow results it already owes a client.
        self.inner.sched.close();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // Final compaction; a failure here means restart will
        // replay from the WAL instead, so warn, don't panic.
        if let Err(e) = self.inner.engine.save_cache() {
            eprintln!("gals-serve: final cache compaction failed ({e}); results remain in the WAL");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    inner: &Arc<Inner>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let inner = inner.clone();
        let handle = std::thread::spawn(move || connection_loop(stream, &inner));
        let mut handles = conn_handles.lock().unwrap_or_else(PoisonError::into_inner);
        // Reap readers whose clients hung up, so a long-lived server
        // under connection churn doesn't accumulate handles forever.
        handles.retain(|h: &JoinHandle<()>| !h.is_finished());
        handles.push(handle);
    }
}

fn connection_loop(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Responses are single lines; send them immediately (Nagle would
    // stall the request/response round trip by tens of milliseconds).
    let _ = stream.set_nodelay(true);
    // Workers stream results through blocking writes: a client that
    // stops reading must not stall the worker pool behind its full
    // send buffer. On timeout the write fails and that client's stream
    // is the only casualty.
    let _ = stream.set_write_timeout(Some(WRITE_STALL_LIMIT));
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let dead = Arc::new(AtomicBool::new(false));
    let sink: Arc<dyn FrameSink> = Arc::new(ThreadsSink {
        writer: Mutex::new(writer),
        dead: dead.clone(),
    });
    let mut reader = BufReader::new(stream);
    let mut lines = BoundedLineReader::new();
    loop {
        match lines.read_line(&mut reader) {
            Ok(LineRead::Line) => {
                let line = lines.line();
                if !line.trim().is_empty() {
                    handle_request(&line, inner, &sink, &dead);
                }
            }
            Ok(LineRead::TooLong) => {
                let resp = Response::Error {
                    id: String::new(),
                    message: format!("request line exceeds {MAX_LINE_LEN} bytes"),
                };
                sink.send_frame(&resp.to_line());
            }
            Ok(LineRead::Eof) => {
                // EOF. A partial line with no terminating newline is a
                // truncated request: tell the peer before hanging up (it
                // may only have shut down its write half).
                if !lines.partial().is_empty() {
                    let resp = Response::Error {
                        id: String::new(),
                        message: "truncated request line".to_string(),
                    };
                    sink.send_frame(&resp.to_line());
                }
                return;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Assembles the `status` response's counters (both transports).
pub(crate) fn status_response(id: String, inner: &Inner) -> Response {
    let engine = &inner.engine;
    Response::Status {
        id,
        counters: vec![
            (
                "requests".to_string(),
                inner.requests.load(Ordering::Relaxed) as f64,
            ),
            (
                "admitted_jobs".to_string(),
                inner.admitted_jobs.load(Ordering::Relaxed) as f64,
            ),
            ("queued".to_string(), inner.sched.len() as f64),
            (
                "expired".to_string(),
                inner.expired.load(Ordering::Relaxed) as f64,
            ),
            (
                "cancelled".to_string(),
                inner.cancelled.load(Ordering::Relaxed) as f64,
            ),
            ("simulated".to_string(), engine.simulated_count() as f64),
            ("cache_hits".to_string(), engine.cache_hit_count() as f64),
            ("cache_len".to_string(), engine.cache().len() as f64),
            ("workers".to_string(), engine.threads() as f64),
        ],
    }
}

/// Parses and dispatches one request line (threads transport; the
/// reactor drives [`expand`]/[`admit`] itself so it can apply its
/// fairness quota between the two).
fn handle_request(
    line: &str,
    inner: &Arc<Inner>,
    sink: &Arc<dyn FrameSink>,
    dead: &Arc<AtomicBool>,
) {
    inner.requests.fetch_add(1, Ordering::Relaxed);
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(message) => {
            sink.send_frame(
                &Response::Error {
                    id: String::new(),
                    message,
                }
                .to_line(),
            );
            return;
        }
    };
    match expand(&req.kind, inner.default_window) {
        Ok(Expanded::Work { items, window }) => {
            admit(req, items, window, inner, sink, dead, None);
        }
        Ok(Expanded::Status) => {
            sink.send_frame(&status_response(req.id, inner).to_line());
        }
        Err(message) => {
            sink.send_frame(
                &Response::Error {
                    id: req.id,
                    message,
                }
                .to_line(),
            );
        }
    }
}

/// Builds one request's jobs and admits them into the shared scheduler
/// as one atomic batch, returning whether admission succeeded (it
/// fails only against a closed, shutting-down scheduler — the peer
/// gets an error frame then).
///
/// `resolved`, when supplied (reactor transport), runs after *each*
/// job's completion frame is queued — the reactor's accounting hook
/// for its global outstanding-jobs count and the connection's
/// fairness quota.
pub(crate) fn admit(
    req: Request,
    items: Vec<MeasureItem>,
    window: u64,
    inner: &Arc<Inner>,
    sink: &Arc<dyn FrameSink>,
    dead: &Arc<AtomicBool>,
    resolved: Option<Arc<dyn Fn() + Send + Sync>>,
) -> bool {
    // checked_add: a huge client-supplied deadline_ms must not panic
    // the connection thread on targets with a narrow Instant; a
    // deadline too far away to represent is no deadline at all.
    let deadline = req
        .deadline_ms
        .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
    let state = Arc::new(RequestState {
        id: req.id.clone(),
        sink: sink.clone(),
        remaining: AtomicUsize::new(items.len()),
        results: AtomicU64::new(0),
        expired: AtomicU64::new(0),
        dead: dead.clone(),
    });
    let n_jobs = items.len() as u64;
    let batch: Vec<(Job, Completion<'static>)> = items
        .into_iter()
        .map(|item| {
            let mut job = Job::new(item, window)
                .with_priority(req.priority)
                // The connection's dead flag doubles as the jobs'
                // cancellation token: once the client is gone, its
                // queued work expires instead of simulating.
                .with_cancel_flag(dead.clone())
                .with_tag(req.id.clone());
            if let Some(d) = deadline {
                job = job.with_deadline(d);
            }
            let state = state.clone();
            let inner = inner.clone();
            let resolved = resolved.clone();
            let complete = Box::new(move |job: Job, outcome: JobOutcome| {
                state.complete_one(&job.item.config_key, outcome, &inner);
                if let Some(resolved) = &resolved {
                    resolved();
                }
            }) as Completion<'static>;
            (job, complete)
        })
        .collect();
    if inner.sched.submit_batch(batch) {
        inner.admitted_jobs.fetch_add(n_jobs, Ordering::Relaxed);
        true
    } else {
        sink.send_frame(
            &Response::Error {
                id: req.id,
                message: "server shutting down".to_string(),
            }
            .to_line(),
        );
        false
    }
}

pub(crate) enum Expanded {
    Work {
        items: Vec<MeasureItem>,
        window: u64,
    },
    Status,
}

/// Expands a request into concrete measurable items (the same
/// (spec, mode, key, machine) tuples the `Explorer` sweeps build, so
/// cache entries are shared between the server and offline sweeps).
pub(crate) fn expand(kind: &RequestKind, default_window: u64) -> Result<Expanded, String> {
    let lookup =
        |name: &str| suite::by_name(name).ok_or_else(|| format!("unknown benchmark {name:?}"));
    let eff = |w: u64| if w == 0 { default_window } else { w };
    match kind {
        RequestKind::Status => Ok(Expanded::Status),
        RequestKind::RunConfig {
            bench,
            mode,
            cfg,
            policy,
            window,
        } => {
            let spec = lookup(bench)?;
            let item = match mode.as_str() {
                "sync" => {
                    let configs = SyncConfig::enumerate();
                    let c = *configs
                        .get(cfg.ok_or("missing cfg")?)
                        .ok_or_else(|| format!("sync cfg out of range (0..{})", configs.len()))?;
                    MeasureItem::sync(spec, c)
                }
                "prog" => {
                    let configs = McdConfig::enumerate();
                    let c = *configs
                        .get(cfg.ok_or("missing cfg")?)
                        .ok_or_else(|| format!("prog cfg out of range (0..{})", configs.len()))?;
                    MeasureItem::program(spec, c)
                }
                "phase" => MeasureItem::phase(spec, policy.unwrap_or_default()),
                other => return Err(format!("unknown mode {other:?}")),
            };
            Ok(Expanded::Work {
                items: vec![item],
                window: eff(*window),
            })
        }
        RequestKind::Sweep {
            bench,
            mode,
            window,
        } => {
            let spec = lookup(bench)?;
            let items = match mode.as_str() {
                "sync" => SyncConfig::enumerate()
                    .into_iter()
                    .map(|c| MeasureItem::sync(spec.clone(), c))
                    .collect(),
                "prog" => McdConfig::enumerate()
                    .into_iter()
                    .map(|c| MeasureItem::program(spec.clone(), c))
                    .collect(),
                other => return Err(format!("sweep mode must be sync or prog, got {other:?}")),
            };
            Ok(Expanded::Work {
                items,
                window: eff(*window),
            })
        }
        RequestKind::PolicyCompare {
            bench,
            policies,
            window,
        } => {
            let spec = lookup(bench)?;
            let items = policies
                .iter()
                .map(|&policy| MeasureItem::phase(spec.clone(), policy))
                .collect();
            Ok(Expanded::Work {
                items,
                window: eff(*window),
            })
        }
    }
}
