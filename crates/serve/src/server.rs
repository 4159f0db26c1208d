//! The TCP server: one reader thread per connection over the shared
//! job scheduler + worker pool that executes every client's work.
//!
//! There is no batching dispatcher and no per-window grouping: each
//! connection expands requests into typed [`Job`]s and admits them into
//! one [`JobScheduler`] shared by every connection; a pool of worker
//! threads drains it in priority/aging order, streaming each job's
//! frame back to its requester the moment it resolves. Heterogeneous
//! work — mixed windows, machine styles, policies, priorities,
//! deadlines — interleaves freely in a single queue pass.
//!
//! Each connection has one reader thread, which frames request lines
//! ([`BoundedLineReader`]), and a [`Conn`] that workers write frames
//! to directly, under the connection's mutex. Three constants bound
//! what one client can cost the server:
//!
//! * [`MAX_CONNECTIONS`] — past it a new connection gets one `error`
//!   frame and is closed without a thread, so a connection storm is
//!   refused rather than turned into threads;
//! * [`CONN_INFLIGHT_LIMIT`] — jobs one connection may have admitted
//!   but unresolved; the reader admits nothing more until completions
//!   free quota (its socket goes unread, which backpressures the
//!   client);
//! * [`WRITE_STALL_LIMIT`] — a frame write that stalls this long (or
//!   fails) marks the connection dead: its later frames are skipped,
//!   its queued jobs cancel, and its reader severs the socket.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gals_core::{McdConfig, SyncConfig};
use gals_explore::sched::Completion;
use gals_explore::{Job, JobOutcome, JobScheduler, MeasureItem, ResultCache, SweepEngine};
use gals_workloads::suite;

use crate::protocol::{BoundedLineReader, LineRead, Request, RequestKind, Response, MAX_LINE_LEN};

/// Poll granularity for connection readers checking the shutdown and
/// dead flags (read timeout and quota wait alike).
const READ_POLL: Duration = Duration::from_millis(100);

/// How long one response write may stall on a non-reading client before
/// that client's connection is abandoned and severed.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(10);

/// Connections served at once (twice `serve_bench`'s largest grid
/// point); one more is refused with an `error` frame.
const MAX_CONNECTIONS: usize = 512;

/// Jobs one connection may have admitted but unresolved. A request
/// larger than the whole quota still admits alone once the connection
/// is idle: the quota bounds concurrency, not request size.
const CONN_INFLIGHT_LIMIT: usize = 2048;

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
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            default_window: 10_000,
            cache_path: None,
            aging_step: JobScheduler::DEFAULT_AGING_STEP,
        }
    }
}

impl ServeConfig {
    /// Reads `GALS_SERVE_ADDR`, `GALS_SERVE_WORKERS`,
    /// `GALS_SERVE_WINDOW`, `GALS_SERVE_CACHE`, and `GALS_SERVE_AGING`
    /// over the defaults. An *unset* `GALS_SERVE_CACHE` selects the
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
        cfg
    }
}

/// One client connection as the workers see it: the mutex-serialized
/// blocking writer its frames go through, its dead flag, and the
/// in-flight quota its reader waits on.
struct Conn {
    writer: Mutex<TcpStream>,
    /// Set on the first failed frame write (client stalled past
    /// [`WRITE_STALL_LIMIT`] or hung up). Every later frame to the
    /// connection is skipped, so one dead connection costs the worker
    /// pool at most one write stall in total; the flag doubles as the
    /// cancellation token of the connection's queued jobs, and the
    /// reader severs the socket when it sees it.
    dead: Arc<AtomicBool>,
    /// Admitted-but-unresolved jobs, bounded by [`CONN_INFLIGHT_LIMIT`].
    inflight: Mutex<usize>,
    /// Signalled whenever a job resolves and frees quota.
    freed: Condvar,
}

impl Conn {
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Writes one frame line unless the connection is already dead,
    /// poisoning it on the first failure. The flag is re-checked
    /// *after* acquiring the writer lock: workers already queued on the
    /// mutex behind the one discovering the stall must bail out
    /// immediately instead of each paying `WRITE_STALL_LIMIT` in turn.
    fn send_frame(&self, line: &str) {
        if self.is_dead() {
            return;
        }
        let mut guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if self.is_dead() {
            return;
        }
        let ok = guard.write_all(line.as_bytes()).is_ok()
            && guard.write_all(b"\n").is_ok()
            && guard.flush().is_ok();
        if !ok {
            self.dead.store(true, Ordering::Relaxed);
        }
    }

    fn inflight(&self) -> MutexGuard<'_, usize> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `n` more jobs fit the connection's quota, then
    /// reserves them. Returns `false`, reserving nothing, if the server
    /// begins shutting down or the connection dies while waiting.
    fn reserve(&self, n: usize, shutdown: &AtomicBool) -> bool {
        let mut inflight = self.inflight();
        while *inflight > 0 && *inflight + n > CONN_INFLIGHT_LIMIT {
            if shutdown.load(Ordering::SeqCst) || self.is_dead() {
                return false;
            }
            inflight = self
                .freed
                .wait_timeout(inflight, READ_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *inflight += n;
        true
    }

    /// Returns `n` jobs' worth of quota and wakes a waiting reader.
    fn release(&self, n: usize) {
        *self.inflight() -= n;
        self.freed.notify_one();
    }
}

/// Per-request progress: counts the request's jobs down to the `done`
/// frame. Job completions (from any worker) send their frame, bump
/// the tallies, and whoever resolves the last job emits `done`.
struct RequestState {
    id: String,
    conn: Arc<Conn>,
    remaining: AtomicUsize,
    results: AtomicU64,
    expired: AtomicU64,
}

impl RequestState {
    /// Records one job's outcome: sends its frame, and the `done`
    /// frame after the request's last job, then frees the job's quota.
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
                if self.conn.is_dead() {
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
        self.conn.send_frame(&frame.to_line());
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let done = Response::Done {
                id: self.id.clone(),
                results: self.results.load(Ordering::Relaxed),
                expired: self.expired.load(Ordering::Relaxed),
            };
            self.conn.send_frame(&done.to_line());
        }
        self.conn.release(1);
    }
}

/// Shared server state.
struct Inner {
    engine: SweepEngine,
    sched: JobScheduler<'static>,
    default_window: u64,
    shutdown: AtomicBool,
    requests: AtomicU64,
    admitted_jobs: AtomicU64,
    expired: AtomicU64,
    /// Jobs dropped because their connection died (distinct from
    /// deadline expiries).
    cancelled: AtomicU64,
}

/// The `gals-serve` server: a long-lived, multi-tenant front end over
/// the job scheduler and the sweep engine's sharded result cache.
///
/// Concurrency model: one reader thread per connection parses request
/// lines, expands them into jobs tagged with the request id, and
/// admits them — atomically per request — into the single shared
/// [`JobScheduler`]. Worker threads pull jobs in priority/aging order
/// regardless of which connection admitted them and stream `partial` /
/// `expired` frames back per job; the last job of a request emits its
/// `done` frame. Duplicate configurations are simulated once (in-flight
/// dedupe plus the shared cache) — and because the simulator is
/// deterministic, a result served through the server is bit-identical
/// to the same configuration run directly through
/// [`gals_explore::Explorer`], regardless of scheduling order.
///
/// One client's cost is bounded by constants, not options: at most 512
/// live connections (the next is refused with an `error` frame), at
/// most 2,048 admitted-but-unresolved jobs per connection (its reader
/// waits for more), and at most one 10 s write stall per dead
/// connection before it is severed and its queued jobs cancel.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
    /// Binds, starts the worker pool and the accept loop, and serves in
    /// background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind / cache-open I/O errors.
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
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let inner = inner.clone();
            let conn_handles = conn_handles.clone();
            std::thread::spawn(move || accept_loop(&listener, &inner, &conn_handles))
        };
        Ok(Server {
            addr,
            inner,
            accept_handle: Some(accept_handle),
            worker_handles,
            conn_handles,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
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
        // Unblock the accept loop.
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

/// Counts live connections against [`MAX_CONNECTIONS`].
#[derive(Debug, Default)]
struct ConnSlots {
    live: AtomicUsize,
}

impl ConnSlots {
    /// Takes a slot, or `None` when [`MAX_CONNECTIONS`] are live.
    fn try_acquire(self: &Arc<Self>) -> Option<ConnSlot> {
        self.live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < MAX_CONNECTIONS).then_some(n + 1)
            })
            .ok()?;
        Some(ConnSlot(self.clone()))
    }
}

/// One live connection's slot; dropping it frees the slot.
struct ConnSlot(Arc<ConnSlots>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(
    listener: &TcpListener,
    inner: &Arc<Inner>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let slots = Arc::new(ConnSlots::default());
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        let Some(slot) = slots.try_acquire() else {
            // Refused without a thread. The frame is one short line
            // into a fresh socket's empty send buffer: it cannot block.
            let resp = Response::Error {
                id: String::new(),
                message: format!("server at its {MAX_CONNECTIONS}-connection limit"),
            };
            let _ = stream.write_all(format!("{}\n", resp.to_line()).as_bytes());
            continue;
        };
        let inner = inner.clone();
        let handle = std::thread::spawn(move || {
            connection_loop(stream, &inner);
            drop(slot);
        });
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
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
        dead: Arc::new(AtomicBool::new(false)),
        inflight: Mutex::new(0),
        freed: Condvar::new(),
    });
    let mut reader = BufReader::new(stream);
    let mut lines = BoundedLineReader::new();
    while !conn.is_dead() {
        match lines.read_line(&mut reader) {
            Ok(LineRead::Line) => {
                let line = lines.line();
                if !line.trim().is_empty() && !handle_request(&line, inner, &conn) {
                    break;
                }
            }
            Ok(LineRead::TooLong) => {
                let resp = Response::Error {
                    id: String::new(),
                    message: format!("request line exceeds {MAX_LINE_LEN} bytes"),
                };
                conn.send_frame(&resp.to_line());
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
                    conn.send_frame(&resp.to_line());
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
    if conn.is_dead() {
        // A frame write failed: sever the socket so the client sees
        // EOF now rather than whenever it next writes; the connection's
        // queued jobs cancel through the same flag.
        let _ = reader.get_ref().shutdown(Shutdown::Both);
    }
}

/// Assembles the `status` response's counters.
fn status_response(id: String, inner: &Inner) -> Response {
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

/// Parses and dispatches one request line. Returns `false` when the
/// reader must stop: the server began shutting down, or the connection
/// died, while the request waited for quota.
fn handle_request(line: &str, inner: &Arc<Inner>, conn: &Arc<Conn>) -> bool {
    inner.requests.fetch_add(1, Ordering::Relaxed);
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(message) => {
            conn.send_frame(
                &Response::Error {
                    id: String::new(),
                    message,
                }
                .to_line(),
            );
            return true;
        }
    };
    match expand(&req.kind, inner.default_window) {
        Ok(Expanded::Work { items, window }) => {
            if conn.reserve(items.len(), &inner.shutdown) {
                admit(req, items, window, inner, conn);
                true
            } else {
                if !conn.is_dead() {
                    conn.send_frame(&shutting_down(req.id));
                }
                false
            }
        }
        Ok(Expanded::Status) => {
            conn.send_frame(&status_response(req.id, inner).to_line());
            true
        }
        Err(message) => {
            conn.send_frame(
                &Response::Error {
                    id: req.id,
                    message,
                }
                .to_line(),
            );
            true
        }
    }
}

fn shutting_down(id: String) -> String {
    Response::Error {
        id,
        message: "server shutting down".to_string(),
    }
    .to_line()
}

/// Builds one request's jobs, whose quota the caller reserved, and
/// admits them into the shared scheduler as one atomic batch. Admission
/// fails only against a closed, shutting-down scheduler; the peer gets
/// an error frame then and the quota is returned.
fn admit(req: Request, items: Vec<MeasureItem>, window: u64, inner: &Arc<Inner>, conn: &Arc<Conn>) {
    // checked_add: a huge client-supplied deadline_ms must not panic
    // the connection thread on targets with a narrow Instant; a
    // deadline too far away to represent is no deadline at all.
    let deadline = req
        .deadline_ms
        .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
    let state = Arc::new(RequestState {
        id: req.id.clone(),
        conn: conn.clone(),
        remaining: AtomicUsize::new(items.len()),
        results: AtomicU64::new(0),
        expired: AtomicU64::new(0),
    });
    let n_jobs = items.len();
    let batch: Vec<(Job, Completion<'static>)> = items
        .into_iter()
        .map(|item| {
            let mut job = Job::new(item, window)
                .with_priority(req.priority)
                // The connection's dead flag doubles as the jobs'
                // cancellation token: once the client is gone, its
                // queued work expires instead of simulating.
                .with_cancel_flag(conn.dead.clone())
                .with_tag(req.id.clone());
            if let Some(d) = deadline {
                job = job.with_deadline(d);
            }
            let state = state.clone();
            let inner = inner.clone();
            let complete = Box::new(move |job: Job, outcome: JobOutcome| {
                state.complete_one(&job.item.config_key, outcome, &inner);
            }) as Completion<'static>;
            (job, complete)
        })
        .collect();
    if inner.sched.submit_batch(batch) {
        inner
            .admitted_jobs
            .fetch_add(n_jobs as u64, Ordering::Relaxed);
    } else {
        conn.release(n_jobs);
        conn.send_frame(&shutting_down(req.id));
    }
}

enum Expanded {
    Work {
        items: Vec<MeasureItem>,
        window: u64,
    },
    Status,
}

/// Expands a request into concrete measurable items (the same
/// (spec, mode, key, machine) tuples the `Explorer` sweeps build, so
/// cache entries are shared between the server and offline sweeps).
fn expand(kind: &RequestKind, default_window: u64) -> Result<Expanded, String> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_slots_cap_and_release_on_drop() {
        let slots = Arc::new(ConnSlots::default());
        let mut held: Vec<ConnSlot> = (0..MAX_CONNECTIONS)
            .map(|i| {
                slots
                    .try_acquire()
                    .unwrap_or_else(|| panic!("slot {i} is under the cap"))
            })
            .collect();
        assert!(slots.try_acquire().is_none(), "the cap refuses one more");
        held.pop();
        let again = slots.try_acquire();
        assert!(again.is_some(), "a dropped slot is free again");
        assert!(slots.try_acquire().is_none());
        drop(again);
        drop(held);
        assert_eq!(slots.live.load(Ordering::Acquire), 0);
    }
}
