//! In-memory spans around calls into each crate's public functions.
//!
//! A span is (name, start, end, parent, op id). The name's prefix up to
//! the first `.` is the layer, which is the crate being called. Spans
//! are recorded only under `--trace`; the untraced path takes no
//! timestamps. Each thread owns one [`Tracer`]; they are merged before
//! the spans are aggregated and written out.

use std::collections::BTreeMap;
use std::time::Instant;

use tacos_report::Json;

/// `parent` of a root span, and the id handed out while tracing is off.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// The workload op this span belongs to; [`NONE`] for probes run
    /// outside any op.
    pub op: u32,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so merged spans are on one
    /// time axis.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing (set-up, warm-up, verification).
    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span of this tracer.
    pub fn begin(&mut self, name: &'static str, op: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NONE),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned (spans close innermost-first).
    pub fn end(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// [`Tracer::end`], naming the span by what turned out to happen in it.
    pub fn end_as(&mut self, id: u32, name: &'static str) {
        self.end(id);
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    /// An empty tracer for another thread, on the same time axis.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    /// A leaf span around one call.
    pub fn span<T>(&mut self, name: &'static str, op: u32, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = call();
        self.end(id);
        out
    }

    /// Adds to a named count (work done at a layer boundary).
    pub fn add(&mut self, counter: &'static str, amount: f64) {
        if self.enabled {
            *self.counters.entry(counter).or_insert(0.0) += amount;
        }
    }

    /// Absorbs another thread's tracer.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += offset;
            }
            s
        }));
        for (name, amount) in other.counters {
            *self.counters.entry(name).or_insert(0.0) += amount;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        aggregate(&self.spans)
    }

    /// The trace file: span rows are `[name index, start ns, end ns,
    /// parent row or -1, op id or -1]`.
    pub fn to_json(&self, header: Vec<(&'static str, Json)>) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let index_of = |name: &'static str, names: &mut Vec<&'static str>| -> u64 {
            match names.iter().position(|n| *n == name) {
                Some(i) => i as u64,
                None => {
                    names.push(name);
                    (names.len() - 1) as u64
                }
            }
        };
        let signed = |v: u32| {
            if v == NONE {
                Json::Num(-1.0)
            } else {
                Json::Uint(u64::from(v))
            }
        };
        let rows: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Uint(index_of(s.name, &mut names)),
                    Json::Uint(s.start_ns),
                    Json::Uint(s.end_ns),
                    signed(s.parent),
                    signed(s.op),
                ])
            })
            .collect();
        let layers = self
            .aggregates()
            .into_iter()
            .map(|(name, a)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Uint(a.count)),
                        ("total_ns", Json::Uint(a.total_ns)),
                        ("self_ns", Json::Uint(a.self_ns)),
                    ]),
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect();
        let mut doc: BTreeMap<String, Json> = header
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        doc.insert(
            "span_columns".into(),
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "op"]
                    .map(Json::from)
                    .to_vec(),
            ),
        );
        doc.insert(
            "names".into(),
            Json::Arr(names.into_iter().map(Json::from).collect()),
        );
        doc.insert("spans".into(), Json::Arr(rows));
        doc.insert("aggregates".into(), Json::Obj(layers));
        doc.insert("counters".into(), Json::Obj(counters));
        Json::Obj(doc)
    }
}

/// Totals per span name; a span's self time is its duration minus the
/// durations of its direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += total;
        a.self_ns += total.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", 0, 100, NONE),
            span("core.synthesize", 10, 70, 0),
            span("ten.replay", 20, 30, 1), // grandchild: charged to its parent only
            span("sim.simulate", 70, 95, 0),
            span("core.synthesize", 200, 260, NONE),
        ];
        let a = aggregate(&spans);
        assert_eq!(
            a["op"],
            Aggregate {
                count: 1,
                total_ns: 100,
                self_ns: 15
            }
        );
        assert_eq!(
            a["core.synthesize"],
            Aggregate {
                count: 2,
                total_ns: 120,
                self_ns: 110
            }
        );
        assert_eq!(a["ten.replay"].self_ns, 10);
        assert_eq!(a["sim.simulate"].self_ns, 25);
        // Self times partition the covered time exactly.
        let total_self: u64 = a.values().map(|x| x.self_ns).sum();
        assert_eq!(total_self, 100 + 60);
    }

    #[test]
    fn tracer_nests_by_call_order_and_merges_with_offsets() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let op = a.begin("op", 7);
        a.span("topology.build", 7, || ());
        a.end(op);
        let mut b = Tracer::new(true, epoch);
        let op_b = b.begin("op", 8);
        b.span("core.synthesize", 8, || ());
        b.end(op_b);
        b.add("core.transfers", 5.0);
        a.merge(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("topology.build", 0, 7));
        assert_eq!((s[3].name, s[3].parent, s[3].op), ("core.synthesize", 2, 8));
        assert_eq!(a.counter("core.transfers"), 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("op", 0);
        assert_eq!(id, NONE);
        assert_eq!(t.span("core.synthesize", 0, || 3), 3);
        t.end(id);
        t.add("core.transfers", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("core.transfers"), 0.0);
    }
}
