//! Timing, spans and metric collection for one benchmark run.
//!
//! Every timed call goes through [`Ledger::enter`] / [`Ledger::exit`],
//! so the untraced and traced runs execute the same code. The untraced
//! run only reads the elapsed time back; the traced run also keeps each
//! span (name, parent, start, end) in memory and writes a per-name
//! summary when the benchmark ends.

use serde::Value;
use std::time::Instant;

/// One closed span: `[start_s, end_s]` seconds since the ledger began.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// An open span, returned by [`Ledger::enter`] and consumed by
/// [`Ledger::exit`].
#[must_use = "close the span with Ledger::exit"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// Span recorder. With tracing off it is a stopwatch and records
/// nothing.
pub struct Ledger {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch span recording on or off between passes, so a traced run
    /// can time untraced passes for the tracing overhead.
    pub fn set_tracing(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans only");
        self.on = on;
    }

    /// Open a span named `name`, a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_s: start.duration_since(self.origin).as_secs_f64(),
                end_s: f64::NAN,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start, idx }
    }

    /// Close `open` and return its duration in seconds. Spans close in
    /// the reverse order they opened.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.idx {
            assert_eq!(
                self.stack.pop(),
                Some(i),
                "spans must close innermost first"
            );
            self.spans[i].end_s = end.duration_since(self.origin).as_secs_f64();
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Per-name summary: span count, total seconds and self seconds
    /// (duration minus the part covered by child spans), in first-seen
    /// order.
    pub fn summary(&self) -> Value {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_s) {
            let dur = s.end_s - s.start_s;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += dur - child;
                }
                None => rows.push((s.name, 1, dur, dur - child)),
            }
        }
        Value::Array(
            rows.into_iter()
                .map(|(name, count, total, own)| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(name.into())),
                        ("count".into(), Value::U64(count)),
                        ("total_s".into(), Value::F64(total)),
                        ("self_s".into(), Value::F64(own)),
                    ])
                })
                .collect(),
        )
    }
}

/// Named metric values with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".into(), Value::F64(*value)),
                            ("unit".into(), Value::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Median of `xs` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// CPU seconds (user + system) this process has used so far, over all
/// its threads, living and exited: `/proc/self/stat` in 10 ms ticks.
/// Next to a pass's wall time it shows how much of the pass the process
/// spent off the CPU (waiting on its own threads, or on the host).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are fields 14 and 15; the command name (field 2)
    // is parenthesized and may hold spaces, so count after its `)`.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().unwrap_or(0.0));
    let (utime, stime) = (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0));
    (utime + stime) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut l = Ledger::new(true);
        let outer = l.enter("outer");
        let inner = l.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_s = l.exit(inner);
        let outer_s = l.exit(outer);
        assert!(outer_s >= inner_s);
        let Value::Array(rows) = l.summary() else {
            panic!("summary is an array")
        };
        let outer_row = &rows[0];
        assert_eq!(outer_row.get("name").and_then(Value::as_str), Some("outer"));
        let own = outer_row.get("self_s").and_then(Value::as_f64).unwrap();
        assert!(own < outer_s - inner_s * 0.5, "self {own} of {outer_s}");
    }

    #[test]
    fn untraced_ledger_records_nothing() {
        let mut l = Ledger::new(false);
        let ((), s) = l.time("x", || ());
        assert!(s >= 0.0);
        assert_eq!(l.summary(), Value::Array(Vec::new()));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
