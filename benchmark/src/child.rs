//! Runs one child process to completion: wall time from spawn to exit and
//! the child's own peak RSS, as the kernel accounted it (`ru_maxrss` from
//! `wait4`), not as the program reports it about itself.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The libc calls used here, declared by hand the way `fgbd_trace::mmapio`
/// declares `mmap`: the container has no `libc` crate.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_long, c_short};

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which the first is `ru_maxrss` in KiB.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub ru_utime: [c_long; 2],
        pub ru_stime: [c_long; 2],
        pub ru_maxrss: c_long,
        pub rest: [c_long; 13],
    }

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const SYS_PIDFD_OPEN: c_long = 434;
    pub const POLLIN: c_short = 1;
    pub const SIGKILL: c_int = 9;

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, ru: *mut Rusage) -> c_int;
        pub fn syscall(num: c_long, ...) -> c_long;
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Spawn to exit.
    pub wall_s: f64,
    /// The child's peak resident set.
    pub peak_rss_mib: f64,
    /// Exited with status 0 before the deadline.
    pub ok: bool,
}

/// Runs `bin args…` with `cwd` as working directory, its output discarded,
/// and kills it if it is still running after `timeout`.
///
/// The environment is inherited as is: `main` has already refused to start
/// if it holds any `FGBD_*` variable (see `hygiene::fgbd_env`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn run(bin: &Path, args: &[&str], cwd: &Path, timeout: Duration) -> std::io::Result<Outcome> {
    use std::os::raw::c_int;

    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id() as c_int;

    // Block until the child exits or the deadline passes, without a
    // watchdog thread or a polling loop: a pidfd becomes readable on exit.
    // SAFETY: pidfd_open takes a pid and a flags word and returns a new fd
    // or -1; no memory is passed.
    let pidfd = unsafe { sys::syscall(sys::SYS_PIDFD_OPEN, pid, 0) } as c_int;
    let mut timed_out = false;
    if pidfd >= 0 {
        let mut pfd = sys::PollFd {
            fd: pidfd,
            events: sys::POLLIN,
            revents: 0,
        };
        let ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: `pfd` is one valid pollfd and nfds is 1.
        let ready = unsafe { sys::poll(&mut pfd, 1, ms) };
        if ready == 0 {
            timed_out = true;
            // SAFETY: `pid` is our own unreaped child, so the pid cannot
            // have been reused.
            unsafe { sys::kill(pid, sys::SIGKILL) };
        }
        // SAFETY: `pidfd` is an fd this function opened and still owns.
        unsafe { sys::close(pidfd) };
    }
    // Without pidfd_open (kernel < 5.3) the wait below simply has no
    // deadline.
    let mut status: c_int = 0;
    let mut ru = sys::Rusage::default();
    // SAFETY: `status` and `ru` are valid for writes for the call, and
    // `pid` is our unreaped child. Reaping here means `child` must not be
    // waited on again; dropping a `Child` neither waits nor kills.
    let reaped = unsafe { sys::wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    drop(child);
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    Ok(Outcome {
        wall_s,
        peak_rss_mib: ru.ru_maxrss as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0 is exactly a zero status word.
        ok: !timed_out && status == 0,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn run(
    _bin: &Path,
    _args: &[&str],
    _cwd: &Path,
    _timeout: Duration,
) -> std::io::Result<Outcome> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the benchmark measures peak RSS through wait4 and needs 64-bit Linux",
    ))
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_status_rss_and_deadline() {
        let cwd = std::env::temp_dir();
        let ok = run(
            Path::new("/bin/sh"),
            &["-c", "exit 0"],
            &cwd,
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(ok.ok && ok.peak_rss_mib > 0.0 && ok.wall_s > 0.0);
        let bad = run(
            Path::new("/bin/sh"),
            &["-c", "exit 3"],
            &cwd,
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(!bad.ok);
        let slow = run(
            Path::new("/bin/sh"),
            &["-c", "sleep 30"],
            &cwd,
            Duration::from_millis(100),
        )
        .unwrap();
        assert!(!slow.ok && slow.wall_s < 10.0, "killed at the deadline");
    }
}
