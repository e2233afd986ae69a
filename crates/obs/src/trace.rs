//! Span-based tracing with chrome://tracing JSON output.
//!
//! Tracing is off unless the `SNIP_TRACE` environment variable names a
//! file or [`init_file`] opens one; the first *successful* initialization
//! wins and the sink is never replaced. The output is the
//! Trace Event Format's JSON array flavor — one event object per line,
//! each line comma-terminated; `chrome://tracing` and Perfetto accept the
//! unterminated array, so the file is loadable even after an abrupt exit.
//!
//! Spans are scoped guards: [`span!`](crate::span!) returns a [`Span`]
//! that records a complete (`"ph":"X"`) event over its lifetime when it
//! drops. [`event!`](crate::event!) both logs (through [`crate::log`])
//! and records an instant (`"ph":"i"`) event. Timestamps are integer
//! microseconds relative to trace start; `tid` is a small per-thread
//! ordinal, `pid` the OS process id.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

struct Sink {
    out: BufWriter<File>,
    start: Instant,
}

/// The sink's fast-path state: [`STATE_UNPROBED`] until someone asks,
/// [`STATE_OFF`] after an env probe found no `SNIP_TRACE` (an explicit
/// [`init_file`] can still turn tracing on later), [`STATE_ON`] once a
/// sink is open — which is permanent: an open sink is never replaced.
const STATE_UNPROBED: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNPROBED);
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Locks the sink. A panic inside a span write leaves at worst a torn
/// JSON line in the trace file, so a poisoned lock is recovered.
fn lock_sink() -> MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn open_sink(path: &Path) -> Option<Sink> {
    let mut out = BufWriter::new(File::create(path).ok()?);
    out.write_all(b"[\n").ok()?;
    Some(Sink {
        out,
        start: Instant::now(),
    })
}

/// Routes trace output to `path`, unless a sink is already open (the first
/// *successful* initialization wins — `SNIP_TRACE` or an earlier
/// `init_file`; a lazy env probe that found tracing disabled does not
/// count). Returns `true` when this call opened the sink.
pub fn init_file(path: &Path) -> bool {
    let mut sink = lock_sink();
    if sink.is_some() {
        return false;
    }
    match open_sink(path) {
        Some(s) => {
            *sink = Some(s);
            STATE.store(STATE_ON, Ordering::Release);
            true
        }
        None => false,
    }
}

/// The slow path of [`enabled`]: probe `SNIP_TRACE` once, under the sink
/// lock so a racing `init_file` cannot be clobbered.
fn probe_env() -> bool {
    let mut sink = lock_sink();
    match STATE.load(Ordering::Acquire) {
        STATE_ON => return true,
        STATE_OFF => return false,
        _ => {}
    }
    *sink = std::env::var("SNIP_TRACE")
        .ok()
        .filter(|p| !p.is_empty())
        .and_then(|p| open_sink(Path::new(&p)));
    let on = sink.is_some();
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Release);
    on
}

/// `true` when trace events are being written.
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Acquire) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => probe_env(),
    }
}

/// A small stable ordinal for the calling thread.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|t| *t)
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn micros_since(start: Instant, at: Instant) -> u64 {
    crate::metrics::duration_us(at.saturating_duration_since(start))
}

/// Runs `f` on the open sink, if any ([`enabled`] also triggers the lazy
/// env probe, so a bare write is enough to spin tracing up).
fn with_sink(f: impl FnOnce(&mut Sink)) {
    if !enabled() {
        return;
    }
    let mut sink = lock_sink();
    if let Some(s) = sink.as_mut() {
        f(s);
    }
}

fn write_complete(name: &str, started: Instant, ended: Instant) {
    with_sink(|s| {
        let ts = micros_since(s.start, started);
        let dur = micros_since(started, ended);
        let line = format!(
            "{{\"name\":\"{}\",\"cat\":\"snip\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{},\"tid\":{}}},\n",
            escape(name),
            std::process::id(),
            thread_ordinal(),
        );
        let _ = s.out.write_all(line.as_bytes());
        let _ = s.out.flush();
    });
}

/// Records an instant (`"ph":"i"`) event, if tracing is enabled.
pub fn instant(name: &str) {
    with_sink(|s| {
        let ts = micros_since(s.start, Instant::now());
        let line = format!(
            "{{\"name\":\"{}\",\"cat\":\"snip\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{},\"tid\":{}}},\n",
            escape(name),
            std::process::id(),
            thread_ordinal(),
        );
        let _ = s.out.write_all(line.as_bytes());
        let _ = s.out.flush();
    });
}

/// Logs `msg` at `level` and mirrors it into the trace as an instant
/// event. Prefer the [`event!`](crate::event!) macro, which skips message
/// formatting when both sinks are off.
pub fn log_event(level: crate::log::Level, target: &str, msg: &str) {
    if crate::log::enabled(level) {
        crate::log::log(level, target, format_args!("{msg}"));
    }
    instant(msg);
}

/// A scoped trace span: records a complete event covering its lifetime
/// when dropped. Construct via [`span!`](crate::span!).
#[must_use = "a span records its duration when dropped; bind it with `let _span = ...`"]
pub struct Span {
    name: Option<String>,
    started: Instant,
}

impl Span {
    /// Starts a recording span named `name`.
    pub fn enter(name: String) -> Span {
        Span {
            name: Some(name),
            started: Instant::now(),
        }
    }

    /// A no-op span, for when tracing is disabled.
    pub fn disabled() -> Span {
        Span {
            name: None,
            started: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            write_complete(&name, self.started, Instant::now());
        }
    }
}

/// Opens a trace span over the enclosing scope:
/// `let _span = snip_obs::span!("shard {id}");`. The name is
/// `format!`-style and is only evaluated when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::enter(format!($($arg)*))
        } else {
            $crate::trace::Span::disabled()
        }
    };
}

/// Logs a `format!`-style message at the given [`Level`](crate::log::Level)
/// and mirrors it into the trace file as an instant event:
/// `snip_obs::event!(Level::Info, "peer {peer} admitted");`.
/// The message is only formatted when either sink would record it.
#[macro_export]
macro_rules! event {
    ($level:expr, $($arg:tt)*) => {
        if $crate::log::enabled($level) || $crate::trace::enabled() {
            $crate::trace::log_event($level, module_path!(), &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn spans_write_complete_events_once_initialized() {
        // SINK is process-global and initialize-once, so this single test
        // covers init_file, span!, and instant() together.
        let path =
            std::env::temp_dir().join(format!("snip-obs-trace-test-{}.json", std::process::id()));
        let opened = init_file(&path);
        // A lazy env probe finding tracing off does NOT lock out an
        // explicit init, so the only way this fails is a SNIP_TRACE sink
        // already open in this test process.
        if !opened {
            assert!(enabled(), "init_file can only lose to an open sink");
            return;
        }
        {
            let _span = crate::span!("unit-test-span {}", 7);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        instant("unit-test-instant");
        crate::event!(crate::log::Level::Debug, "unit-test-event");
        if opened {
            let text = std::fs::read_to_string(&path).expect("trace file readable");
            assert!(text.starts_with("[\n"), "array header: {text:?}");
            assert!(text.contains("\"name\":\"unit-test-span 7\""));
            assert!(text.contains("\"ph\":\"X\""));
            assert!(text.contains("\"name\":\"unit-test-instant\""));
            assert!(text.contains("\"ph\":\"i\""));
            assert!(text.contains("\"name\":\"unit-test-event\""));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn disabled_spans_are_silent() {
        // Never initializes the sink by itself: Span::disabled() must not
        // write anywhere regardless of global state.
        let span = Span::disabled();
        drop(span);
    }
}
