//! The traced run's span recorder.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into each layer's public functions; nothing inside the library is
//! instrumented.  Each span has a name (`<layer>.<operation>`), an
//! identifier shared by every span of one claim, scenario, sweep or cell, a
//! start and end relative to the recorder's origin, and the span that was
//! open when it started (its parent).  Spans stay in memory and are printed
//! when the run ends.

use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Option<Duration>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.expect("span closed before it is read") - self.start
    }
}

/// An in-memory span recorder for one single-threaded caller.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, id: impl Into<String>) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id: id.into(),
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: None,
        });
        self.open.push(index);
        index
    }

    /// Close the innermost open span, which must be `index`.
    pub fn close(&mut self, index: usize) {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end = Some(self.origin.elapsed());
    }

    /// Run `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        id: impl Into<String>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.open(name, id);
        let result = f(self);
        self.close(index);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover.  Children
    /// of a single-threaded caller never overlap, so their durations add.
    pub fn self_time(&self, index: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration)
            .sum();
        self.spans[index].duration().saturating_sub(children)
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed duration of the spans called `name` with identifier `id`.
    pub fn total_for(&self, name: &str, id: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.id == id)
            .map(Span::duration)
            .sum()
    }

    /// Every span as one line, then the summed self time per span name.
    pub fn render(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut out = String::from("# span  index parent name id start_ms end_ms dur_ms self_ms\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "# span  {i} {parent} {} {} {:.3} {:.3} {:.3} {:.3}\n",
                s.name,
                s.id,
                ms(s.start),
                ms(s.start + s.duration()),
                ms(s.duration()),
                ms(self.self_time(i)),
            ));
        }
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let self_total: Duration = (0..self.spans.len())
                .filter(|&i| self.spans[i].name == name)
                .map(|i| self.self_time(i))
                .sum();
            out.push_str(&format!(
                "# self  {name} {:.3} ms over {} span(s)\n",
                ms(self_total),
                self.spans.iter().filter(|s| s.name == name).count(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let until = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < until {}
    }

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut t = Tracer::default();
        t.scope("outer", "a", |t| {
            busy(2);
            t.scope("inner", "a", |t| {
                busy(2);
                t.scope("leaf", "a", |_| busy(2));
            });
        });
        let (outer, inner, leaf) = (0, 1, 2);
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert_eq!(t.spans()[leaf].parent, Some(inner));
        let sum = t.self_time(outer) + t.self_time(inner) + t.self_time(leaf);
        assert_eq!(sum, t.spans()[outer].duration());
        assert!(t.self_time(outer) >= Duration::from_millis(2));
        assert!(t.self_time(outer) < t.spans()[outer].duration());
        assert_eq!(t.total("leaf"), t.spans()[leaf].duration());
        assert_eq!(t.total_for("inner", "b"), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::default();
        let a = t.open("a", "");
        let _b = t.open("b", "");
        t.close(a);
    }
}
