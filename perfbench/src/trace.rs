//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only at the benchmark's own call boundaries
//! into each layer's public functions; nothing inside the library is
//! instrumented. Each span carries its name, start and end (seconds
//! since the recorder was created), its parent span and the id of the
//! solve it belongs to. Spans stay in memory and are written once at
//! the end as Chrome `trace_event` JSON plus a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Id of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `exec.align`.
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin (NaN while open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Solve this span belongs to (`None` = set-up or probes).
    pub solve: Option<u64>,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span and counter store. A disabled recorder keeps nothing, so the
/// untimed paths can share code with the traced ones.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    solve: Option<u64>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    /// A recorder that stores spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            solve: None,
            counts: BTreeMap::new(),
        }
    }

    /// Sets the solve id stamped on spans opened from now on.
    pub fn set_solve(&mut self, solve: Option<u64>) {
        self.solve = solve;
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// open span, and returns its result with the span's duration in
    /// seconds (measured also when the recorder is disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let t0 = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start: (t0 - self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.stack.last().copied(),
                solve: self.solve,
            });
            self.stack.push(id);
            id
        });
        let out = f(self);
        let t1 = Instant::now();
        if let Some(id) = id {
            self.stack.pop();
            self.spans[id].end = (t1 - self.origin).as_secs_f64();
        }
        (out, (t1 - t0).as_secs_f64())
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            *self.counts.entry(name.to_string()).or_default() += value;
        }
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed per span name, over spans that belong to a
    /// solve, largest first: `(name, count, total_s, self_s)`. A span's
    /// self time is its duration minus its children's; children run
    /// one after another on the recording thread, so they never
    /// overlap.
    pub fn self_time_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        let mut by: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            if s.solve.is_some() {
                let e = by.entry(s.name).or_default();
                e.0 += 1;
                e.1 += s.duration();
                e.2 += own;
            }
        }
        let mut rows: Vec<_> = by.into_iter().map(|(n, (c, d, s))| (n, c, d, s)).collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Chrome `trace_event` JSON: one complete event per span on a
    /// track per solve (track 0 = set-up and probes), counters as a
    /// metadata event.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}},",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start * 1e6,
                s.duration() * 1e6,
                s.solve.map_or(0, |id| id + 1),
            );
        }
        out.push_str("{\"name\":\"counts\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{");
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.push_str(&counts.join(","));
        out.push_str("}}\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_solve(Some(0));
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            solve: Some(0),
        };
        t.spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 4.0, 5.0, Some(0)),
            span("a", 6.0, 8.0, Some(0)),
        ];
        let rows = t.self_time_table();
        assert_eq!(rows[0].0, "a");
        assert_eq!(rows[0].1, 2);
        assert!((rows[0].3 - 5.0).abs() < 1e-12);
        let root = rows.iter().find(|r| r.0 == "root").unwrap();
        assert!((root.3 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn nesting_and_disabled() {
        let mut t = Tracer::new(true);
        t.set_solve(Some(3));
        let (v, _) = t.span("outer", |t| t.span("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].solve, Some(3));
        let mut off = Tracer::new(false);
        off.span("x", |_| ());
        assert!(off.spans().is_empty());
    }
}
