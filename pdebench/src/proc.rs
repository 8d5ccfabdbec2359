//! Child processes under a deadline, with each child's peak resident
//! memory read from outside it.
//!
//! A child is started through a small exec helper (`pdebench exec`): the
//! helper spawns the program, reaps it with `wait4` and writes its exit,
//! wall time and `ru_maxrss` to a report file. Going through the helper
//! keeps the measurement clean: Linux carries the spawning process's own
//! peak RSS into the child's `ru_maxrss` at `exec`, and the helper's is a
//! couple of MiB where the benchmark's (holding every generated bundle)
//! is tens.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sync();
}

const SIGKILL: i32 = 9;
const CLOCK_MONOTONIC: i32 = 1;

/// `CLOCK_MONOTONIC` in nanoseconds: comparable across processes, so a
/// replay child's span starts line up with the moment it died.
pub fn mono_ns() -> u64 {
    let mut t = Timespec::default();
    // SAFETY: plain syscall with a valid out-pointer.
    unsafe { clock_gettime(CLOCK_MONOTONIC, &mut t) };
    (t.tv_sec as u64) * 1_000_000_000 + t.tv_nsec as u64
}

/// Flush every dirty page to disk (`sync(2)`). A run calls it before it
/// starts and after deleting its scratch files, so the `fdatasync`s a serve
/// workload measures do not wait on another run's writes or on the
/// discards its deletions queue (the store's filesystem may be mounted
/// with `discard`).
pub fn sync_disk() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() };
}

/// How a child ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum End {
    /// Exited with this code.
    Code(i32),
    /// Killed by this signal (an abort is signal 6).
    Signal(i32),
    /// Still running at the deadline; killed and reaped.
    Deadline,
}

impl End {
    /// A short description for failure reasons.
    pub fn describe(&self) -> String {
        match self {
            End::Code(c) => format!("exit {c}"),
            End::Signal(s) => format!("signal {s}"),
            End::Deadline => "deadline".to_owned(),
        }
    }
}

/// A reaped child.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// How it ended.
    pub end: End,
    /// Spawn to reap, as the exec helper measured it.
    pub wall: Duration,
    /// [`mono_ns`] when it was reaped.
    pub mono_ns: u64,
    /// Peak resident set size, in KiB.
    pub maxrss_kib: u64,
}

/// A command that runs a program through the exec helper.
pub struct Cmd {
    /// The helper invocation; add the program's arguments and stdio here.
    pub cmd: Command,
    report: PathBuf,
}

static NEXT_REPORT: AtomicU64 = AtomicU64::new(0);

/// A [`Cmd`] for `program`, run through the helper binary `exe` (this
/// benchmark), which writes its report into `work`.
pub fn command(exe: &Path, work: &Path, program: impl AsRef<OsStr>) -> Cmd {
    let report = work.join(format!(
        "exec-{}.report",
        NEXT_REPORT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut cmd = Command::new(exe);
    cmd.arg("exec").arg(&report).arg(program);
    Cmd { cmd, report }
}

/// The exec helper's entry point: run `program args…`, reap it, and write
/// `<code|signal> <n> <wall_ns> <mono_ns> <maxrss_kib>` to `report`.
pub fn exec_helper(report: &Path, program: &OsStr, args: &[String]) -> std::io::Result<()> {
    let start = Instant::now();
    let child = Command::new(program).args(args).spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: plain syscall on our own child with valid out-pointers.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall = start.elapsed().as_nanos();
    let end = if status & 0x7f == 0 {
        format!("code {}", (status >> 8) & 0xff)
    } else {
        format!("signal {}", status & 0x7f)
    };
    std::fs::write(
        report,
        format!("{end} {wall} {} {}\n", mono_ns(), usage.ru_maxrss),
    )
}

fn read_report(report: &Path) -> Option<(End, Duration, u64, u64)> {
    let text = std::fs::read_to_string(report).ok()?;
    let _ = std::fs::remove_file(report);
    let f: Vec<&str> = text.split_whitespace().collect();
    let n: i32 = f.get(1)?.parse().ok()?;
    let end = match *f.first()? {
        "code" => End::Code(n),
        _ => End::Signal(n),
    };
    Some((
        end,
        Duration::from_nanos(f.get(2)?.parse().ok()?),
        f.get(3)?.parse().ok()?,
        f.get(4)?.parse().ok()?,
    ))
}

/// A running child whose exit a reaper thread waits for.
pub struct Running {
    pid: i32,
    exit: Receiver<Exit>,
    reaper: Option<JoinHandle<()>>,
    done: Option<Exit>,
}

/// Spawn `c` (in a process group of its own, so a kill reaches the
/// program behind the helper) and start reaping it in the background.
pub fn spawn(mut c: Cmd) -> std::io::Result<(Running, Child)> {
    use std::os::unix::process::CommandExt;
    let start = Instant::now();
    let child = c.cmd.process_group(0).spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    let (tx, rx) = mpsc::channel();
    let report = c.report;
    let reaper = std::thread::spawn(move || {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: plain syscall on our own child with valid out-pointers.
        while unsafe { wait4(pid, &mut status, 0, &mut usage) } != pid {
            if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                break;
            }
        }
        let now = mono_ns();
        let exit = match read_report(&report) {
            Some((end, wall, mono, maxrss_kib)) => Exit {
                end,
                wall,
                mono_ns: mono,
                maxrss_kib,
            },
            // No report: the helper itself was killed (a deadline).
            None => Exit {
                end: End::Signal(status & 0x7f),
                wall: start.elapsed(),
                mono_ns: now,
                maxrss_kib: 0,
            },
        };
        let _ = tx.send(exit);
    });
    Ok((
        Running {
            pid,
            exit: rx,
            reaper: Some(reaper),
            done: None,
        },
        child,
    ))
}

impl Running {
    /// Wait until `deadline` for the child to end; past it, kill the child
    /// and report [`End::Deadline`] (the child is reaped either way).
    pub fn wait_until(&mut self, deadline: Instant) -> Exit {
        if let Some(e) = self.done {
            return e;
        }
        let wait = deadline.saturating_duration_since(Instant::now());
        let exit = match self.exit.recv_timeout(wait) {
            Ok(e) => e,
            Err(RecvTimeoutError::Timeout) => {
                self.kill_group();
                let mut e = self.exit.recv().expect("reaper reports every child");
                e.end = End::Deadline;
                e
            }
            Err(RecvTimeoutError::Disconnected) => panic!("reaper thread vanished"),
        };
        self.finish(exit);
        exit
    }

    fn finish(&mut self, exit: Exit) {
        self.done = Some(exit);
        if let Some(h) = self.reaper.take() {
            h.join().expect("the reaper thread does not panic");
        }
    }

    fn kill_group(&self) {
        // SAFETY: the reaper has not reported, so the helper is unreaped
        // and its process group (which the program shares) still exists.
        unsafe { kill(-self.pid, SIGKILL) };
    }

    /// Has the child ended (without waiting)?
    pub fn try_exit(&mut self) -> Option<Exit> {
        if self.done.is_none() {
            if let Ok(exit) = self.exit.try_recv() {
                self.finish(exit);
            }
        }
        self.done
    }

    /// Kill the child if it still runs and reap it.
    pub fn kill(&mut self) -> Exit {
        if self.try_exit().is_none() {
            self.kill_group();
        }
        self.wait_until(Instant::now() + Duration::from_secs(60))
    }
}

/// Run `c` to completion or `deadline`.
pub fn run(c: Cmd, deadline: Duration) -> std::io::Result<Exit> {
    let start = Instant::now();
    let (mut running, _child) = spawn(c)?;
    Ok(running.wait_until(start + deadline))
}
