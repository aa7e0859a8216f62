//! The `mp-serve` daemon: accept collector sessions and queries on a
//! TCP listener, land raw segments, and run background compaction.
//!
//! Threading model: one accept loop, one handler thread per
//! connection (capped by `--max-conns`), one optional background
//! thread for periodic compaction and retention sweeps. Ingest
//! streaming is lock-free (each session appends to its own staging
//! file), and sealing a finished session into tier 0 is a single
//! atomic rename that needs no lock either (see
//! [`crate::registry`] for why). The operations that *read or rewrite*
//! a window's tiers — compaction, retention, queries, watch frames —
//! coordinate through the per-window [`WindowRegistry`]: compaction
//! takes one window's exclusive lock, readers take shared locks on
//! exactly the windows they touch, and windows never wait on each
//! other. Sealing into window A, compacting window B, and querying
//! window C all proceed concurrently.
//!
//! Session lifecycle:
//!
//! ```text
//! HELLO ──► ingest/WINDOW@ID.part created, HELLO_OK(ID) sent
//! CHUNK*──► frame payloads appended verbatim (MPES v3 bytes)
//! END  ───► fsync, seal to raw/WINDOW/ID.mpes, fsync raw/WINDOW/,
//!           END_OK sent (ERROR if nothing readable arrived)
//! ```
//!
//! `END_OK` acknowledges a commit that survives a power loss: the
//! staging file's data is synced before the rename, and the window
//! directory (and `raw/` itself, when the window directory is new) is
//! synced after it, so the raw segment's directory entry is on disk
//! too. A clean END whose bytes hold no readable MPES prefix gets an
//! ERROR frame saying the session was discarded.
//!
//! Session ids are `SEQ-NAME` with a zero-padded arrival sequence
//! number. The counter is seeded at startup from the highest sequence
//! recorded anywhere on disk (staging files, raw segments, compaction
//! manifests), so a restarted daemon never hands out an id that an
//! earlier boot already used — sealing refuses to overwrite an
//! existing raw segment as a second line of defense. Startup also
//! sweeps `ingest/` for staging files a crashed boot left behind,
//! sealing any readable prefix into its window (the label is embedded
//! in the staging file name) and discarding the rest.
//!
//! A disconnect before END — even mid-frame — still seals whatever
//! prefix arrived, as long as it parses as an MPES stream: the chunk
//! format is self-delimiting and checksummed, so a damaged tail is
//! detected and dropped by [`StreamFile`] exactly as for a local
//! crash. A prefix too short to parse (lost before the preamble
//! landed) is discarded. A connection that simply goes *silent* is
//! treated the same way: after `--idle-secs` without a frame the
//! daemon seals the readable prefix and drops the connection, so a
//! wedged collector cannot pin its staging file (or a handler thread)
//! forever.
//!
//! [`StreamFile`]: memprof_store::StreamFile

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memprof_store::{validate_stream_prefix, StoreError};

use crate::compact::compact_all_registered;
use crate::query::{answer, watch_frame, QueryOutcome};
use crate::registry::{WindowRegistry, WindowState};
use crate::retention::{enforce_retention, RetentionPolicy};
use crate::store::{sync_dir, valid_label, StoreDirs};
use crate::wire::{
    is_timeout, parse_hello, read_frame, write_frame, WireError, TAG_CHUNK, TAG_END, TAG_END_OK,
    TAG_ERROR, TAG_HELLO, TAG_HELLO_OK, TAG_PUSH, TAG_QUERY, TAG_RESULT, TAG_WATCH,
};

/// Default seconds a connection may sit silent before the daemon
/// seals its readable prefix and drops it.
pub const DEFAULT_IDLE_SECS: u64 = 300;

/// Default cap on concurrent connections; past it the daemon sheds
/// new connections with an ERROR frame instead of spawning threads
/// without bound.
pub const DEFAULT_MAX_CONNS: usize = 256;

/// Cadence of the background retention sweep (independent of
/// `--compact-secs`: retention has to notice idle windows even when
/// periodic compaction is off).
pub const RETENTION_PERIOD: Duration = Duration::from_secs(1);

/// How often a watch handler probes its socket for disconnects while
/// parked waiting for the window's generation to advance.
const WATCH_PROBE: Duration = Duration::from_millis(25);

/// How long one `wait_past` park lasts before the watch handler
/// re-checks the stop flag and the socket.
const WATCH_PARK: Duration = Duration::from_millis(100);

/// Daemon configuration.
#[derive(Default)]
pub struct ServerConfig {
    /// Seconds between background compaction passes; `None` compacts
    /// only on explicit `compact` queries.
    pub compact_secs: Option<u64>,
    /// Seconds a connection may sit idle between frames before its
    /// readable prefix is sealed exactly as a disconnect would seal
    /// it; `None` uses [`DEFAULT_IDLE_SECS`], `Some(0)` disables the
    /// timeout.
    pub idle_secs: Option<u64>,
    /// Cap on concurrent connections; `None` uses
    /// [`DEFAULT_MAX_CONNS`], `Some(0)` removes the cap.
    pub max_conns: Option<usize>,
    /// Raw-tier retention; inactive by default.
    pub retention: RetentionPolicy,
}

struct Shared {
    dirs: StoreDirs,
    /// Per-window tier locks and generation counters; see
    /// [`crate::registry`].
    registry: WindowRegistry,
    /// Arrival sequence for session ids; zero-padded into the file
    /// name so sorted-order merges are deterministic.
    seq: AtomicU64,
    stop: AtomicBool,
    /// Live connection count, for `--max-conns` shedding.
    conns: AtomicUsize,
    /// Read/write timeout applied to accepted streams; `None`
    /// disables idling out.
    idle: Option<Duration>,
    max_conns: usize,
    retention: RetentionPolicy,
}

/// Decrements the live connection count when a handler thread
/// finishes, however it exits.
struct ConnSlot {
    shared: Arc<Shared>,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.shared.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon; dropping the handle does not stop it — call
/// [`Server::shutdown`] (or send a `shutdown` query).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    background_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `listen` (e.g. `127.0.0.1:0`) over `data` and start
    /// serving. Returns once the listener is accepting.
    pub fn start(listen: &str, data: &Path, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let dirs = StoreDirs::create(data)?;
        // Seal (or discard) staging files a crashed boot left behind,
        // then seed the session counter above every sequence number
        // on disk so restarts never reuse an id.
        recover_ingest(&dirs);
        let next_seq = dirs.max_existing_seq().saturating_add(1);
        let idle = match config.idle_secs.unwrap_or(DEFAULT_IDLE_SECS) {
            0 => None,
            secs => Some(Duration::from_secs(secs)),
        };
        let shared = Arc::new(Shared {
            dirs,
            registry: WindowRegistry::new(),
            seq: AtomicU64::new(next_seq),
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            idle,
            max_conns: config.max_conns.unwrap_or(DEFAULT_MAX_CONNS),
            retention: config.retention.clone(),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let active = accept_shared.conns.fetch_add(1, Ordering::SeqCst) + 1;
                if accept_shared.max_conns > 0 && active > accept_shared.max_conns {
                    accept_shared.conns.fetch_sub(1, Ordering::SeqCst);
                    shed_connection(stream, accept_shared.max_conns);
                    continue;
                }
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || {
                    let slot = ConnSlot {
                        shared: Arc::clone(&conn_shared),
                    };
                    if let Err(e) = handle_connection(&conn_shared, stream) {
                        eprintln!("mp-serve: connection error: {e}");
                    }
                    drop(slot);
                });
            }
        });

        let background_thread = (config.compact_secs.is_some() || shared.retention.is_active())
            .then(|| {
                let shared = Arc::clone(&shared);
                let compact_period = config.compact_secs.map(|s| Duration::from_secs(s.max(1)));
                std::thread::spawn(move || {
                    let mut last_compact = Instant::now();
                    let mut last_retention = Instant::now();
                    while !shared.stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(100));
                        if compact_period.is_some_and(|p| last_compact.elapsed() >= p) {
                            last_compact = Instant::now();
                            match compact_all_registered(&shared.dirs, &shared.registry) {
                                Ok(report) if !report.windows.is_empty() => {
                                    eprint!("mp-serve: {}", report.render());
                                }
                                Ok(_) => {}
                                Err(e) => eprintln!("mp-serve: compaction failed: {e}"),
                            }
                        }
                        if shared.retention.is_active()
                            && last_retention.elapsed() >= RETENTION_PERIOD
                        {
                            last_retention = Instant::now();
                            match enforce_retention(
                                &shared.dirs,
                                &shared.registry,
                                &shared.retention,
                            ) {
                                Ok(report) if report != Default::default() => {
                                    eprint!("mp-serve: {}", report.render());
                                }
                                Ok(_) => {}
                                Err(e) => eprintln!("mp-serve: retention sweep failed: {e}"),
                            }
                        }
                    }
                })
            });

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            background_thread,
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry state for `window` — exposed so embedders and
    /// tests can hold a window's tier lock or observe its generation
    /// from outside the daemon (e.g. to pin that a query against one
    /// window completes while another window's exclusive lock is
    /// held, as during compaction).
    pub fn window_state(&self, window: &str) -> Arc<WindowState> {
        self.shared.registry.state(window)
    }

    /// Stop the daemon and wait for its threads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.background_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the daemon is asked to stop (via a `shutdown`
    /// query), then join its threads.
    pub fn run(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.background_thread.take() {
            let _ = t.join();
        }
    }
}

/// Refuse a connection past the `--max-conns` cap: a proper ERROR
/// frame (under a short write timeout so a slow peer cannot stall the
/// accept loop), then drop.
fn shed_connection(mut stream: TcpStream, cap: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let msg = format!("server at connection limit ({cap}); retry later");
    let _ = write_frame(&mut stream, TAG_ERROR, msg.as_bytes());
}

/// Dispatch a fresh connection on its first frame: HELLO starts a
/// collector session, QUERY answers one query, WATCH streams summary
/// frames.
fn handle_connection(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(shared.idle)?;
    stream.set_write_timeout(shared.idle)?;
    let first = match read_frame(&mut stream) {
        Ok(f) => f,
        // Port probes and shutdown wake-ups close without a frame; a
        // connection that never sends one times out just as silently.
        Err(WireError::Closed)
        | Err(WireError::TruncatedFrame { .. })
        | Err(WireError::TimedOut) => return Ok(()),
        Err(WireError::Io(e)) => return Err(e),
        Err(e) => {
            let _ = write_frame(&mut stream, TAG_ERROR, e.to_string().as_bytes());
            return Ok(());
        }
    };
    match first.tag {
        TAG_HELLO => handle_session(shared, stream, &first.payload),
        TAG_QUERY => handle_query(shared, stream, &first.payload),
        TAG_WATCH => handle_watch(shared, stream, &first.payload),
        tag => {
            let msg = format!("expected HELLO, QUERY, or WATCH, got tag {tag}");
            let _ = write_frame(&mut stream, TAG_ERROR, msg.as_bytes());
            Ok(())
        }
    }
}

/// Sanitize a collector-supplied session name for use in a file name.
fn clean_name(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .take(40)
        .collect();
    if cleaned.is_empty() {
        "session".to_string()
    } else {
        cleaned
    }
}

fn handle_session(shared: &Shared, mut stream: TcpStream, hello: &[u8]) -> std::io::Result<()> {
    let (name, window) = match parse_hello(hello) {
        Ok(parts) => parts,
        Err(e) => {
            let _ = write_frame(&mut stream, TAG_ERROR, e.to_string().as_bytes());
            return Ok(());
        }
    };
    if !valid_label(&window) {
        let msg = format!("bad window label `{window}`");
        let _ = write_frame(&mut stream, TAG_ERROR, msg.as_bytes());
        return Ok(());
    }
    let seq = shared.seq.fetch_add(1, Ordering::SeqCst);
    // Zero-padded wide enough that lexicographic file-name order (the
    // canonical merge order) matches arrival order for any realistic
    // session count.
    let session = format!("{seq:010}-{}", clean_name(&name));
    let part = shared.dirs.ingest_path(&window, &session);
    let mut file = std::fs::File::create(&part)?;
    write_frame(&mut stream, TAG_HELLO_OK, session.as_bytes())?;

    // Ingest until END, disconnect, or idle timeout. Every CHUNK
    // payload is MPES v3 bytes, appended verbatim.
    let mut clean_end = false;
    loop {
        match read_frame(&mut stream) {
            Ok(f) if f.tag == TAG_CHUNK => file.write_all(&f.payload)?,
            Ok(f) if f.tag == TAG_END => {
                clean_end = true;
                break;
            }
            Ok(f) => {
                let msg = format!("unexpected tag {} in session", f.tag);
                let _ = write_frame(&mut stream, TAG_ERROR, msg.as_bytes());
                break;
            }
            Err(WireError::Closed) => break,
            // A collector silent past the idle timeout is sealed
            // exactly like a disconnect: the readable prefix lands, a
            // mid-frame stall additionally keeps its partial chunk
            // bytes (the MPES checksums drop the damaged tail).
            Err(WireError::TimedOut) => {
                eprintln!("mp-serve: session {session}: idle timeout, sealing prefix");
                break;
            }
            Err(WireError::TruncatedFrame { tag, partial }) => {
                if tag == TAG_CHUNK {
                    file.write_all(&partial)?;
                }
                break;
            }
            Err(WireError::Protocol(why)) => {
                let _ = write_frame(&mut stream, TAG_ERROR, why.as_bytes());
                break;
            }
            Err(WireError::Io(e)) => {
                eprintln!("mp-serve: session {session}: {e}");
                break;
            }
        }
    }
    file.sync_all()?;
    drop(file);

    match seal_session(shared, &part, &window, &session) {
        Ok(true) => {
            eprintln!("mp-serve: sealed {session} into window {window}");
            if clean_end {
                write_frame(&mut stream, TAG_END_OK, b"")?;
            }
        }
        Ok(false) => {
            eprintln!("mp-serve: discarded {session}: no parseable prefix");
            if clean_end {
                let msg = format!("session {session} discarded: no readable MPES prefix");
                let _ = write_frame(&mut stream, TAG_ERROR, msg.as_bytes());
            }
        }
        Err(e) => {
            eprintln!("mp-serve: cannot seal {session}: {e}");
            if clean_end {
                let _ = write_frame(&mut stream, TAG_ERROR, e.to_string().as_bytes());
            }
        }
    }
    Ok(())
}

/// Move a finished staging file into its window's tier-0 directory.
/// Returns `Ok(false)` (and deletes the staging file) if the landed
/// bytes are too short to parse as an MPES stream — nothing usable
/// arrived. The verdict comes from [`validate_stream_prefix`], which
/// reads only the stream preamble and first chunk and lets the one
/// stream reader judge those bytes — a full parse can only fail on
/// them, so sealing a large session never buffers its whole image
/// just to decide yes/no.
/// Needs no tier lock: the rename is atomic, so a concurrent reader
/// sees the complete segment or no segment, and a concurrent
/// compaction pass captured its fresh list before the rename (the
/// manifest it publishes won't name the new segment, which therefore
/// stays fresh for the next pass — never double-counted, never lost).
/// Returns only once the rename is durable: the window directory is
/// synced after it, and `raw/` too when the window directory is new.
fn seal_part(
    dirs: &StoreDirs,
    part: &Path,
    window: &str,
    session: &str,
) -> Result<bool, StoreError> {
    if !validate_stream_prefix(part).map_err(|e| e.at(part))? {
        let _ = std::fs::remove_file(part);
        return Ok(false);
    }
    let raw_dir = dirs.raw_dir(window);
    let new_dir = !raw_dir.is_dir();
    std::fs::create_dir_all(&raw_dir).map_err(|e| StoreError::Io(e).at(&raw_dir))?;
    if new_dir {
        if let Some(raw) = raw_dir.parent() {
            sync_dir(raw)?;
        }
    }
    let dest = dirs.raw_path(window, session);
    // The seeded session counter makes collisions impossible in
    // normal operation; refuse rather than silently replace sealed
    // data if one happens anyway (e.g. a hand-copied segment).
    if dest.exists() {
        return Err(StoreError::Incompatible(format!(
            "raw segment {} already exists; refusing to overwrite it",
            dest.display()
        )));
    }
    std::fs::rename(part, &dest).map_err(|e| StoreError::Io(e).at(&dest))?;
    sync_dir(&raw_dir)?;
    Ok(true)
}

fn seal_session(
    shared: &Shared,
    part: &Path,
    window: &str,
    session: &str,
) -> Result<bool, StoreError> {
    let sealed = seal_part(&shared.dirs, part, window, session)?;
    if sealed {
        // Wake watchers: the window has new data.
        shared.registry.state(window).bump_generation();
    }
    Ok(sealed)
}

/// Startup sweep of `ingest/`: a staging file left by a crashed boot
/// is sealed into its window exactly as a mid-session disconnect
/// would have sealed it (readable prefix kept, unusable remainder
/// discarded); files whose names don't parse are removed.
fn recover_ingest(dirs: &StoreDirs) {
    let Ok(entries) = std::fs::read_dir(dirs.ingest_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "part") {
            continue;
        }
        let parsed = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|stem| stem.split_once('@'))
            .filter(|(window, _)| valid_label(window));
        let Some((window, session)) = parsed else {
            eprintln!(
                "mp-serve: removing unrecognized staging file {}",
                path.display()
            );
            let _ = std::fs::remove_file(&path);
            continue;
        };
        match seal_part(dirs, &path, window, session) {
            Ok(true) => eprintln!("mp-serve: recovered {session} into window {window}"),
            Ok(false) => eprintln!("mp-serve: discarded {session}: no parseable prefix"),
            Err(e) => eprintln!("mp-serve: cannot recover {}: {e}", path.display()),
        }
    }
}

fn handle_query(shared: &Shared, mut stream: TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let line = String::from_utf8_lossy(payload);
    // `answer` takes the shared lock of exactly the windows the query
    // reads — no global lock, so a query against one window completes
    // while another window is mid-compaction.
    let outcome = answer(&shared.dirs, &shared.registry, line.trim());
    match outcome {
        Ok(QueryOutcome::Text(text)) => write_frame(&mut stream, TAG_RESULT, text.as_bytes()),
        Ok(QueryOutcome::Compact) => match compact_all_registered(&shared.dirs, &shared.registry) {
            Ok(r) => write_frame(&mut stream, TAG_RESULT, r.render().as_bytes()),
            Err(e) => write_frame(&mut stream, TAG_ERROR, e.to_string().as_bytes()),
        },
        Ok(QueryOutcome::Shutdown) => {
            write_frame(&mut stream, TAG_RESULT, b"shutting down\n")?;
            shared.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it notices the flag.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            Ok(())
        }
        Err(e) => write_frame(&mut stream, TAG_ERROR, e.to_string().as_bytes()),
    }
}

/// Serve one watch subscription: push a summary frame now, then
/// another every time the window's tier generation advances (seal,
/// compaction fold, retention aging). Several bumps between frames
/// collapse into one push — each frame reflects the tiers at build
/// time, so a dashboard is at most one frame behind, never replaying
/// history. The shared tier lock is held only while a frame is built,
/// so a parked watcher costs its window nothing.
fn handle_watch(shared: &Shared, mut stream: TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let window = String::from_utf8_lossy(payload).trim().to_string();
    if !valid_label(&window) {
        let msg = format!("bad window label `{window}`");
        let _ = write_frame(&mut stream, TAG_ERROR, msg.as_bytes());
        return Ok(());
    }
    // The client never sends after WATCH, so reads only probe
    // liveness; a short timeout keeps the probes non-blocking.
    stream.set_read_timeout(Some(WATCH_PROBE))?;
    let state = shared.registry.state(&window);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (generation, text) = {
            let _guard = state.lock_shared();
            let generation = state.generation();
            (generation, watch_frame(&shared.dirs, &window, generation))
        };
        if write_frame(&mut stream, TAG_PUSH, text.as_bytes()).is_err() {
            return Ok(()); // client gone
        }
        // Park until the generation moves past what we just pushed,
        // waking periodically to notice shutdown or a departed
        // client.
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let mut probe = [0u8; 1];
            match stream.read(&mut probe) {
                Ok(0) => return Ok(()), // disconnect
                Ok(_) => {}             // watch clients shouldn't send; ignore
                Err(e) if is_timeout(&e) => {}
                Err(_) => return Ok(()),
            }
            if state.wait_past(generation, WATCH_PARK) > generation {
                break;
            }
        }
    }
}

/// Client side of a query: connect, send one QUERY line, return the
/// RESULT text (or the daemon's error).
pub fn query(addr: &str, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, TAG_QUERY, line.as_bytes())?;
    let reply = read_frame(&mut stream).map_err(|e| match e {
        WireError::Io(e) => e,
        other => std::io::Error::other(other.to_string()),
    })?;
    match reply.tag {
        TAG_RESULT => Ok(String::from_utf8_lossy(&reply.payload).to_string()),
        TAG_ERROR => Err(std::io::Error::other(
            String::from_utf8_lossy(&reply.payload).to_string(),
        )),
        tag => Err(std::io::Error::other(format!(
            "unexpected query reply (tag {tag})"
        ))),
    }
}

/// Client side of a watch subscription; pull frames with
/// [`WatchClient::next_frame`].
pub struct WatchClient {
    stream: TcpStream,
}

impl WatchClient {
    /// Block for the next PUSH frame. `Ok(None)` means the daemon
    /// closed the stream (shutdown).
    pub fn next_frame(&mut self) -> std::io::Result<Option<String>> {
        match read_frame(&mut self.stream) {
            Ok(f) if f.tag == TAG_PUSH => Ok(Some(String::from_utf8_lossy(&f.payload).to_string())),
            Ok(f) if f.tag == TAG_ERROR => Err(std::io::Error::other(
                String::from_utf8_lossy(&f.payload).to_string(),
            )),
            Ok(f) => Err(std::io::Error::other(format!(
                "unexpected watch frame (tag {})",
                f.tag
            ))),
            Err(WireError::Closed) | Err(WireError::TruncatedFrame { .. }) => Ok(None),
            Err(WireError::Io(e)) => Err(e),
            Err(other) => Err(std::io::Error::other(other.to_string())),
        }
    }
}

/// Subscribe to live summary frames for `window`. The first frame
/// arrives immediately (even for an empty window); subsequent frames
/// follow the window's tier generation.
pub fn watch(addr: &str, window: &str) -> std::io::Result<WatchClient> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, TAG_WATCH, window.as_bytes())?;
    Ok(WatchClient { stream })
}
