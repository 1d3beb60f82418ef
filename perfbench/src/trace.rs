//! In-memory spans recorded by the benchmark around its own calls into
//! each layer. Nothing inside the engine is instrumented; the benchmark
//! times the public calls it makes and writes the spans out when the run
//! ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Wave id of set-up spans.
pub const SETUP: i64 = -1;

/// One timed region.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Wave the span belongs to, or [`SETUP`].
    pub wave: i64,
    /// Layer call the span covers, e.g. `taqf.compute`.
    pub name: &'static str,
    /// Start, ns since the run's clock origin.
    pub start_ns: u64,
    /// End, ns since the run's clock origin.
    pub end_ns: u64,
    /// Calls into the layer the span covers (a span may cover a block of
    /// calls of one stage).
    pub calls: u32,
    /// Heap allocations counted inside the span (traced runs only).
    pub allocs: u64,
}

/// The run's monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// A clock with the given origin.
    pub fn from(origin: Instant) -> Self {
        Clock(origin)
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The span store. Ids are handed out in recording order.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    next_id: u32,
}

impl Trace {
    /// Reserves an id for a span recorded later (so children can name
    /// their parent before it closes).
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a span, assigning a fresh id when `span.id` is 0.
    pub fn push(&mut self, mut span: Span) -> u32 {
        if span.id == 0 {
            span.id = self.reserve();
        }
        self.spans.push(span);
        span.id
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines, one per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\twave\tname\tstart_ns\tend_ns\tcalls\tallocs"
        )?;
        for s in &self.spans {
            let wave = if s.wave == SETUP {
                "setup".to_string()
            } else {
                s.wave.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, wave, s.name, s.start_ns, s.end_ns, s.calls, s.allocs
            )?;
        }
        out.flush()
    }
}
