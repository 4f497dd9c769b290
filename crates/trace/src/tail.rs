//! Tailing a capture file while it is still being written.
//!
//! [`TailReader`] wraps any [`Read`] (a plain file, a FIFO, a socket) and
//! converts *transient* end-of-file into polling: when the inner reader
//! reports EOF, it sleeps [`TailConfig::poll`] and retries, giving up —
//! and surfacing a real EOF — only after [`TailConfig::idle`] elapses with
//! no new bytes. Any byte that does arrive resets the idle budget.
//!
//! This is what lets the streaming decoders tail a growing capture: wrap
//! the file in a `TailReader` and hand it to
//! [`crate::CaptureChunks::open`] — each chunk is decoded and yielded as
//! soon as its bytes land, and
//! the iterator ends normally when the writer's footer appears.
//! For a FIFO or socket the kernel already blocks reads until data
//! arrives, so the poll path simply never triggers; the wrapper stays
//! correct either way.

use std::io::Read;
use std::path::Path;
use std::time::{Duration, Instant};

/// Polling parameters for [`TailReader`].
#[derive(Debug, Clone, Copy)]
pub struct TailConfig {
    /// Sleep between polls after a transient EOF.
    pub poll: Duration,
    /// Give up (report true EOF) after this long with no new bytes.
    pub idle: Duration,
}

impl Default for TailConfig {
    fn default() -> TailConfig {
        TailConfig {
            poll: Duration::from_millis(25),
            idle: Duration::from_secs(5),
        }
    }
}

impl TailConfig {
    /// Defaults overridden by `FGBD_FOLLOW_POLL_MS` and
    /// `FGBD_FOLLOW_IDLE_MS`.
    pub fn from_env() -> TailConfig {
        let mut cfg = TailConfig::default();
        if let Some(ms) = env_ms("FGBD_FOLLOW_POLL_MS") {
            cfg.poll = Duration::from_millis(ms);
        }
        if let Some(ms) = env_ms("FGBD_FOLLOW_IDLE_MS") {
            cfg.idle = Duration::from_millis(ms);
        }
        cfg
    }
}

fn env_ms(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.parse().ok()
}

/// A [`Read`] adapter that polls through transient EOFs (see the module
/// docs).
#[derive(Debug)]
pub struct TailReader<R> {
    inner: R,
    cfg: TailConfig,
}

impl<R: Read> TailReader<R> {
    /// Wraps `inner` with the given polling parameters.
    pub fn new(inner: R, cfg: TailConfig) -> TailReader<R> {
        TailReader { inner, cfg }
    }

    /// Unwraps the inner reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for TailReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = Instant::now() + self.cfg.idle;
        loop {
            let n = self.inner.read(buf)?;
            if n > 0 {
                return Ok(n);
            }
            if Instant::now() >= deadline {
                return Ok(0);
            }
            std::thread::sleep(self.cfg.poll);
        }
    }
}

/// Waits for `path` to exist (the writer may not have created it yet when
/// a `--follow` session starts), polling with `cfg.poll` up to `cfg.idle`.
/// Returns `true` once the file exists.
pub fn wait_for_file(path: &Path, cfg: TailConfig) -> bool {
    let deadline = Instant::now() + cfg.idle;
    loop {
        if path.exists() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(cfg.poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn fast() -> TailConfig {
        TailConfig {
            poll: Duration::from_millis(2),
            idle: Duration::from_millis(200),
        }
    }

    #[test]
    fn reads_bytes_appended_after_eof() {
        let dir = std::env::temp_dir().join(format!("fgbd-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grow.bin");
        std::fs::write(&path, b"abc").unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mut tail = TailReader::new(file, fast());
        let writer_path = path.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            f.write_all(b"defgh").unwrap();
        });
        let mut out = Vec::new();
        let mut buf = [0u8; 4];
        loop {
            let n = tail.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
            if out.len() >= 8 {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(&out, b"abcdefgh");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_budget_turns_into_real_eof() {
        let data: &[u8] = b"xy";
        let mut tail = TailReader::new(
            data,
            TailConfig {
                poll: Duration::from_millis(1),
                idle: Duration::from_millis(10),
            },
        );
        let mut out = Vec::new();
        let started = Instant::now();
        tail.read_to_end(&mut out).unwrap();
        assert_eq!(&out, b"xy");
        // Gave up after roughly the idle budget, not immediately and not
        // forever.
        assert!(started.elapsed() >= Duration::from_millis(10));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn wait_for_file_sees_late_creation() {
        let dir = std::env::temp_dir().join(format!("fgbd-tailwait-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.bin");
        let writer_path = path.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            std::fs::write(&writer_path, b"now").unwrap();
        });
        assert!(wait_for_file(&path, fast()));
        writer.join().unwrap();
        assert!(!wait_for_file(
            &dir.join("never.bin"),
            TailConfig {
                poll: Duration::from_millis(1),
                idle: Duration::from_millis(15),
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
