//! In-memory spans around the benchmark's calls into each layer,
//! written out once at exit as Chrome trace-event JSON.

use std::fmt::Write as _;
use std::time::Instant;

/// Thread row a span is drawn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Stack set-up and teardown.
    Setup = 1,
    /// The lookup connection.
    Lookups = 2,
    /// The route-update connection.
    Updates = 3,
    /// In-process replays after the timed phase.
    Replay = 4,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.lookup`.
    pub name: &'static str,
    /// Start of the call.
    pub start: Instant,
    /// End of the call.
    pub end: Instant,
    /// Shared by every span of one frame or update batch.
    pub id: u64,
    /// Index of the enclosing span in the same [`Spans`], if any.
    pub parent: Option<usize>,
    /// Row to draw it on.
    pub lane: Lane,
}

/// A span buffer; one per thread, merged with [`Spans::absorb`].
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        id: u64,
        parent: Option<usize>,
        lane: Lane,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            id,
            parent,
            lane,
        });
        self.spans.len() - 1
    }

    /// Moves `other`'s spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Renders every span as a complete (`"ph": "X"`) event, timestamps
    /// in microseconds since `epoch`.
    #[must_use]
    pub fn chrome_json(&self, epoch: Instant) -> String {
        let us = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as f64 / 1000.0;
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                us(s.start),
                us(s.end) - us(s.start),
                s.lane as u8,
                s.id,
                i,
                parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::check_chrome_trace;
    use std::time::Duration;

    #[test]
    fn span_file_passes_the_chrome_trace_checker() {
        let epoch = Instant::now();
        let t = |us: u64| epoch + Duration::from_micros(us);
        let mut a = Spans::default();
        let frame = a.push("client.frame", (t(0), t(10)), 7, None, Lane::Lookups);
        a.push("wire.lookup", (t(1), t(9)), 7, Some(frame), Lane::Lookups);
        let mut b = Spans::default();
        let batch = b.push("client.update_batch", (t(2), t(30)), 1, None, Lane::Updates);
        b.push("wire.update", (t(3), t(29)), 1, Some(batch), Lane::Updates);
        a.absorb(b);
        let json = a.chrome_json(epoch);
        assert_eq!(check_chrome_trace(&json), Ok(4));
        // The absorbed child still points at its own parent.
        assert!(json.contains("\"span\":3,\"parent\":2"));
        assert_eq!(
            check_chrome_trace(&Spans::default().chrome_json(epoch)),
            Ok(0)
        );
    }
}
