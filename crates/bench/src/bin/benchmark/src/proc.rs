//! The `mpcbf` child processes under test and the Linux interfaces the
//! benchmark reads about them: `wait4` resource usage, `/proc` peak
//! memory, CPU and context-switch counters, and the machine description
//! every result records.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and calls wait4: 64-bit Linux only");

use mpcbf_server::{Client, ClientConfig};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Linux `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`.
const CLOCK_TICKS_PER_SEC: u64 = 100;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux (every field a `long`).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// How a child ended, with its whole-life resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set over the child's life in KiB: the largest
    /// `VmHWM` read while it ran. `wait4`'s `ru_maxrss` cannot serve: at
    /// `exec` the kernel folds the peak of the replaced address space into
    /// it, and a spawned child replaces a view of this benchmark's.
    pub peak_rss_kib: u64,
    /// User plus system CPU time.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// One `wait4` call; once the child has been reaped, its exit code, CPU
/// time and context switches.
fn wait4_once(pid: u32, options: i32) -> Result<Option<(Option<i32>, u64, u64)>, String> {
    let mut status = 0i32;
    // SAFETY: all-zero bytes are a valid `Rusage` (integers only).
    let mut usage: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // kernel expects (`int` and 64-bit `struct rusage`); `pid` is our own
    // unreaped child, so the call cannot touch another process.
    let r = unsafe { wait4(pid as i32, &mut status, options, &mut usage) };
    if r == 0 {
        return Ok(None);
    }
    if r < 0 {
        return Err(format!("wait4({pid}): {}", std::io::Error::last_os_error()));
    }
    let code = ((status & 0x7f) == 0).then_some((status >> 8) & 0xff);
    let tv = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
    Ok(Some((
        code,
        tv(&usage.utime) + tv(&usage.stime),
        (usage.nvcsw + usage.nivcsw).max(0) as u64,
    )))
}

/// `VmHWM` of a live process in KiB: the peak resident set of its
/// address space so far. `None` once it has exited.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Raises `peak` to the child's current `VmHWM`. Sampled after `spawn`
/// returns, the child has already exec'd, so this is its own figure.
fn sample_peak(pid: u32, peak: &AtomicU64) {
    if let Some(kib) = vm_hwm_kib(pid) {
        // A statistic: it publishes no other data.
        peak.fetch_max(kib, Ordering::Relaxed);
    }
}

/// How often a running child's `VmHWM` is sampled.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Samples a child's `VmHWM` every [`SAMPLE_EVERY`] until dropped.
struct Sampler {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    fn start(pid: u32, peak: Arc<AtomicU64>) -> Sampler {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(SAMPLE_EVERY) {
                sample_peak(pid, &peak);
            }
        });
        Sampler {
            stop: Some(stop),
            handle: Some(handle),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Reaps `child` (which std must never wait on itself), killing it if it
/// has not exited within `timeout`. Its `VmHWM` is sampled on every poll,
/// so a peak in its last moments (a final checkpoint) counts.
fn reap(child: &mut Child, timeout: Duration, peak: &AtomicU64) -> Result<Exit, String> {
    let deadline = Instant::now() + timeout;
    loop {
        sample_peak(child.id(), peak);
        if let Some((code, cpu_ns, ctx_switches)) = wait4_once(child.id(), WNOHANG)? {
            return Ok(Exit {
                code,
                peak_rss_kib: peak.load(Ordering::Relaxed),
                cpu_ns,
                ctx_switches,
            });
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = wait4_once(child.id(), 0);
            return Err(format!(
                "child {} did not exit within {timeout:?}",
                child.id()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The `mpcbf` binary, found the way `bench_server` finds it: the
/// `MPCBF_SERVER_BIN` override, else `release/mpcbf` in the target
/// directory of the running benchmark (next to it in a release build).
///
/// A package cannot depend on another package's binary, so this one
/// first builds `mpcbf-cli` from the same checkout into that directory;
/// when it is up to date the build is a no-op.
pub fn mpcbf_binary(root: &Path) -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("MPCBF_SERVER_BIN") {
        return Ok(path.into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a cargo target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mpcbf-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mpcbf-cli failed: {status}"));
    }
    let bin = target.join("release").join("mpcbf");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// Runs one `mpcbf` command to completion; its stderr is returned in the
/// error when it fails.
pub fn run(bin: &Path, args: &[String], timeout: Duration) -> Result<Exit, String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stderr = child.stderr.take().expect("piped stderr");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });
    let exit = reap(&mut child, timeout, &AtomicU64::new(0));
    let text = reader.join().unwrap_or_default();
    let exit = exit?;
    if exit.success() {
        Ok(exit)
    } else {
        Err(format!(
            "`mpcbf {}` exited with {:?}: {}",
            args.join(" "),
            exit.code,
            text.trim()
        ))
    }
}

/// Client settings for every connection the benchmark opens: a reply
/// later than ten seconds is a failure, and nothing is retried (a retry
/// would hide it). A second would be too tight: a write waits out the
/// checkpoint of the 64 MB filter, which takes about one second on a
/// loaded two-core machine.
fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Some(Duration::from_secs(10)),
        max_retries: 0,
        ..ClientConfig::default()
    }
}

/// A running `mpcbf serve` child.
pub struct Serve {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
    /// The child's largest `VmHWM` so far, and what samples it until the
    /// child is reaped (a reaped pid may be reused).
    peak: Arc<AtomicU64>,
    sampler: Option<Sampler>,
    reaped: bool,
}

impl Serve {
    /// Starts `mpcbf serve --dir DIR --addr 127.0.0.1:0 ARGS` and waits
    /// for the `listening on ADDR` line.
    pub fn start(bin: &Path, dir: &Path, args: &[String]) -> Result<Serve, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn mpcbf serve: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Reads the address, then keeps draining so the child never
        // blocks on a full pipe; ends at the child's exit.
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut tx = Some(tx);
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                if let Some(rest) = line.trim().strip_prefix("listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.to_string());
                    }
                }
                line.clear();
            }
        });
        let peak = Arc::new(AtomicU64::new(0));
        let mut serve = Serve {
            sampler: Some(Sampler::start(child.id(), Arc::clone(&peak))),
            peak,
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
            reaped: false,
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "mpcbf serve never printed its address".to_string())?;
        serve.addr = addr
            .parse()
            .map_err(|e| format!("bad server address `{addr}`: {e}"))?;
        Ok(serve)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set so far, in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        sample_peak(self.pid(), &self.peak);
        self.peak.load(Ordering::Relaxed)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with(self.addr, client_config()).map_err(|e| format!("connect: {e}"))
    }

    /// Sends `SHUTDOWN` and reaps the child; a server that does not exit
    /// 0 is an error.
    pub fn stop(mut self) -> Result<Exit, String> {
        let sent = self
            .connect()
            .and_then(|mut c| c.shutdown_server().map_err(|e| format!("shutdown: {e}")));
        // From here the reaper samples, on every poll.
        drop(self.sampler.take());
        let exit = reap(&mut self.child, Duration::from_secs(120), &self.peak);
        self.reaped = true;
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        sent?;
        let exit = exit?;
        if exit.success() {
            Ok(exit)
        } else {
            Err(format!(
                "mpcbf serve exited with {:?} after SHUTDOWN",
                exit.code
            ))
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        drop(self.sampler.take());
        if !self.reaped {
            let _ = self.child.kill();
            let _ = wait4_once(self.child.id(), 0);
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// User plus system CPU time of a live process, from `/proc/<pid>/stat`.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / CLOCK_TICKS_PER_SEC))
}

/// Context switches summed over every live thread of a process.
pub fn ctx_switches(pid: u32) -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited while we listed it
        };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    Some(total)
}

/// Where and on what a result was measured.
pub fn machine(root: &Path, data_dir: &Path) -> Vec<(&'static str, String)> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut caches = Vec::new();
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let level = read(&format!("{base}/level"));
        if level == "unknown" {
            break;
        }
        if read(&format!("{base}/type")) != "Instruction" {
            caches.push(format!("L{level} {}", read(&format!("{base}/size"))));
        }
    }
    vec![
        ("commit", commit),
        ("nproc", nproc.to_string()),
        ("caches", caches.join(", ")),
        ("kernel", read("/proc/sys/kernel/osrelease")),
        (
            "data_fs",
            filesystem(data_dir).unwrap_or_else(|| "unknown".into()),
        ),
    ]
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn filesystem(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let mount = fields.get(4)?;
        let dash = fields.iter().position(|f| *f == "-")?;
        let fstype = fields.get(dash + 1)?;
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_memory_comes_from_the_child_itself() {
        // This test process holds a few MiB; a 64 MiB block, touched,
        // raises its own high-water mark past that.
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let own = vm_hwm_kib(std::process::id()).expect("own VmHWM");
        assert!(own >= 64 << 10, "VmHWM {own} KiB");
        // A child spawned from it reports its own, far smaller peak, not
        // the spawning process's (which `ru_maxrss` would carry over).
        let mut child = Command::new("sleep")
            .arg("0.2")
            .spawn()
            .expect("spawn sleep");
        let exit = reap(&mut child, Duration::from_secs(10), &AtomicU64::new(0)).expect("reap");
        assert!(exit.success());
        assert!(
            (1..16 << 10).contains(&exit.peak_rss_kib),
            "child peak {} KiB",
            exit.peak_rss_kib
        );
        drop(block);
    }
}
