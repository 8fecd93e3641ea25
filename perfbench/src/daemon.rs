//! The `siro serve` child process: spawn on a store, discover its port,
//! and reap it on every exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use siro_serve::Client;

/// Worker threads the daemon runs, and the most connections a client
/// opens: one per vCPU of the 2-vCPU VM the benchmark was tuned on.
pub const THREADS: usize = 2;

/// Closed-loop callers per window: one per core, at most [`THREADS`].
pub fn callers() -> usize {
    THREADS.min(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

/// How long a daemon may take to print its listening address.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a drained shutdown may take before the child is killed.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(10);

/// Process ids of every daemon not yet reaped, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Kills and reaps every daemon still running: the watchdog's exit path,
/// taken while other threads may still hold their `Daemon`.
pub fn kill_all() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    for pid in live().drain(..) {
        let mut status = 0;
        // SAFETY: `pid` is a child this process spawned and has not reaped
        // (reaping removes it from LIVE under the same lock), so signalling
        // and waiting for it cannot touch an unrelated process.
        unsafe {
            kill(pid as i32, SIGKILL);
            waitpid(pid as i32, &mut status, 0);
        }
    }
}

/// A running daemon. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// The bound address.
    pub addr: SocketAddr,
    /// When the child was spawned.
    pub spawned: Instant,
}

impl Daemon {
    /// Spawns `siro serve` on `store` with a fixed worker count and port 0,
    /// with `SIRO_TRACE` removed from its environment (tracing changes how
    /// the router prices edges).
    ///
    /// # Errors
    ///
    /// When the binary cannot be started or never reports its address.
    pub fn spawn(siro: &Path, store: &Path) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = Command::new(siro)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(THREADS.to_string())
            .arg("--store")
            .arg(store)
            .env_remove("SIRO_TRACE")
            .env("SIRO_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", siro.display()))?;
        live().push(child.id());
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the banner, then keeps draining so the child never blocks
        // on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("siro-serve listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
        };
        let addr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| "daemon did not report its listening address".to_string())?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("daemon address `{addr}`: {e}"))?;
        Ok(daemon)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Asks the daemon to drain and exit, and reaps it (killing it when
    /// it does not exit in time).
    pub fn shutdown(mut self) {
        if let Ok(mut c) = Client::connect(self.addr, Duration::from_secs(2)) {
            c.set_op_timeout(Some(Duration::from_secs(2)));
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + SHUTDOWN_TIMEOUT;
        if let Some(child) = self.child.as_mut() {
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let mut live = live();
            if let Some(i) = live.iter().position(|&p| p == child.id()) {
                live.swap_remove(i);
                if !matches!(child.try_wait(), Ok(Some(_))) {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}
