//! In-memory span tracing at the stack's public seams.
//!
//! Spans are recorded only from this package, around calls into public
//! functions: the client op (`Controller::execute*`), and two `Connection`
//! decorators — [`TracedApuama`] around each `ApuamaConnection` handed to
//! the controller, and [`TracedNode`] around each `NodeConnection` handed to
//! the engine. Spans stay in memory until the run ends.
//!
//! Parent links: every workload runs at most one client per statement kind
//! (read, write), so each kind has at most one op in flight. A span opened
//! on a client thread nests under that thread's innermost open span; a node
//! call made on a thread the engine spawned (an SVP sub-query) nests under
//! the innermost open span of the read op in flight.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use apuama::{ApuamaConnection, ApuamaEngine, Rewritten};
use apuama_cjdbc::{classify, Connection, StatementKind};
use apuama_engine::{EngineResult, PhaseTiming, QueryGovernor, QueryOutput};
use apuama_sql::Value;

/// Statement kind of a client op; selects the in-flight op a span joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read = 0,
    Write = 1,
}

thread_local! {
    /// Kind of the client op running on this thread, if it is a client.
    static CLIENT_KIND: Cell<Option<Kind>> = const { Cell::new(None) };
}

/// One closed (or, while running, open) interval of one layer's work.
/// Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// The client op (root span) this span belongs to.
    pub root: u32,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// What one `execute_svp` call reported besides its rows.
#[derive(Debug, Clone, Copy)]
pub struct SvpRecord {
    /// The `core.svp` span around the call.
    pub span: u32,
    pub timing: PhaseTiming,
    pub partial_rows: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans per kind, innermost last: `(span id, index in spans)`.
    open: [Vec<(u32, usize)>; 2],
    svp: Vec<SvpRecord>,
}

/// The span recorder shared by the client loop and both decorators.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    /// `None` for a call outside any client op: nothing is recorded.
    tracer: Option<&'a Tracer>,
    kind: Kind,
    index: usize,
    pub id: u32,
    root_op: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else {
            return;
        };
        let end = tracer.now_us();
        let mut st = tracer.state.lock().unwrap();
        st.spans[self.index].end = end;
        let popped = st.open[self.kind as usize].pop();
        debug_assert_eq!(
            popped.map(|p| p.0),
            Some(self.id),
            "spans close in LIFO order"
        );
        drop(st);
        if self.root_op {
            CLIENT_KIND.with(|k| k.set(None));
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Opens the root span of a client op on the calling thread.
    pub fn client_op(&self, kind: Kind) -> SpanGuard<'_> {
        CLIENT_KIND.with(|k| k.set(Some(kind)));
        let mut g = self.open(kind, "client.op");
        g.root_op = true;
        g
    }

    /// Opens a span nested under the calling client thread's innermost
    /// open span. Outside a client op (checks after a run) it records
    /// nothing.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        match CLIENT_KIND.with(Cell::get) {
            Some(kind) => self.open(kind, name),
            None => SpanGuard {
                tracer: None,
                kind: Kind::Read,
                index: 0,
                id: u32::MAX,
                root_op: false,
            },
        }
    }

    fn open(&self, kind: Kind, name: &'static str) -> SpanGuard<'_> {
        let start = self.now_us();
        let mut st = self.state.lock().unwrap();
        let id = st.spans.len() as u32;
        let (parent, root) = match st.open[kind as usize].first() {
            Some(&(root, _)) => (st.open[kind as usize].last().map(|p| p.0), root),
            None => (None, id),
        };
        let index = st.spans.len();
        st.spans.push(Span {
            id,
            parent,
            root,
            name,
            start,
            end: f64::NAN,
        });
        st.open[kind as usize].push((id, index));
        SpanGuard {
            tracer: Some(self),
            kind,
            index,
            id,
            root_op: false,
        }
    }

    /// Runs `f` as a leaf span: on a client thread under its innermost
    /// open span, on any other thread under the read op in flight.
    pub fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let kind = CLIENT_KIND.with(Cell::get).unwrap_or(Kind::Read);
        let start = self.now_us();
        let out = f();
        let end = self.now_us();
        let mut st = self.state.lock().unwrap();
        // A call outside any op (cluster construction) has no tree to join.
        if let (Some(&(root, _)), Some(&(parent, _))) = (
            st.open[kind as usize].first(),
            st.open[kind as usize].last(),
        ) {
            let id = st.spans.len() as u32;
            st.spans.push(Span {
                id,
                parent: Some(parent),
                root,
                name,
                start,
                end,
            });
        }
        out
    }

    fn record_svp(&self, rec: SvpRecord) {
        self.state.lock().unwrap().svp.push(rec);
    }

    /// Every span recorded so far (closed ones only) and the SVP records.
    pub fn snapshot(&self) -> (Vec<Span>, Vec<SvpRecord>) {
        let st = self.state.lock().unwrap();
        let spans = st
            .spans
            .iter()
            .filter(|s| !s.end.is_nan())
            .cloned()
            .collect();
        (spans, st.svp.clone())
    }
}

fn is_set(sql: &str) -> bool {
    sql.trim_start()
        .get(..4)
        .is_some_and(|p| p.eq_ignore_ascii_case("set "))
}

/// Span name for a statement reaching a node: the optimizer-interference
/// `SET`s the node processor wraps around SVP sub-queries, writes (only
/// ever issued from a write op's client thread), and reads.
fn node_span(sql: &str) -> &'static str {
    if is_set(sql) {
        "node.set"
    } else if CLIENT_KIND.with(Cell::get) == Some(Kind::Write) {
        "node.write"
    } else {
        "node.read"
    }
}

/// Decorator around a node's `Connection` (the engine's lower seam). It
/// forwards all seven trait methods, so the engine below runs exactly the
/// calls it would run undecorated.
pub struct TracedNode {
    pub inner: Arc<dyn Connection>,
    pub tracer: Arc<Tracer>,
}

impl Connection for TracedNode {
    fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
        self.tracer.leaf(node_span(sql), || self.inner.execute(sql))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare(&self, sql: &str) -> EngineResult<usize> {
        self.tracer.leaf("node.prepare", || self.inner.prepare(sql))
    }

    fn execute_bound(&self, sql: &str, params: &[Value]) -> EngineResult<QueryOutput> {
        self.tracer
            .leaf(node_span(sql), || self.inner.execute_bound(sql, params))
    }

    fn execute_governed(&self, sql: &str, gov: &QueryGovernor) -> EngineResult<QueryOutput> {
        self.tracer
            .leaf(node_span(sql), || self.inner.execute_governed(sql, gov))
    }

    fn execute_bound_governed(
        &self,
        sql: &str,
        params: &[Value],
        gov: &QueryGovernor,
    ) -> EngineResult<QueryOutput> {
        self.tracer.leaf(node_span(sql), || {
            self.inner.execute_bound_governed(sql, params, gov)
        })
    }

    fn mem_peak_bytes(&self) -> u64 {
        self.inner.mem_peak_bytes()
    }
}

/// Decorator around an `ApuamaConnection` (the controller's backend seam).
/// Reads are rebuilt from the public calls `ApuamaEngine::execute_read` is
/// made of — `classify`, `rewriter().rewrite`, then `execute_svp` or the
/// node processor's pass-through — so the rewrite and SVP phases get spans
/// of their own and `PhaseTiming` can split the middleware's time. Every
/// other method forwards to the wrapped connection.
pub struct TracedApuama {
    pub inner: Arc<ApuamaConnection>,
    pub engine: Arc<ApuamaEngine>,
    pub tracer: Arc<Tracer>,
}

impl TracedApuama {
    fn read(&self, sql: &str, gov: Option<&QueryGovernor>) -> EngineResult<QueryOutput> {
        let engine = &self.engine;
        if engine.config().svp_enabled {
            let rewritten = {
                let _s = self.tracer.enter("core.rewrite");
                engine.rewriter().rewrite(sql, engine.node_count())?
            };
            if let Rewritten::Svp(plan) = rewritten {
                let s = self.tracer.enter("core.svp");
                let exec = match gov {
                    Some(g) => engine.execute_svp_governed(&plan, Some(g)),
                    None => engine.execute_svp(&plan),
                }?;
                self.tracer.record_svp(SvpRecord {
                    span: s.id,
                    timing: exec.timing,
                    partial_rows: exec.partial_rows,
                });
                return Ok(exec.output);
            }
        }
        let _s = self.tracer.enter("core.passthrough");
        let node = &engine.node_processors()[self.inner.node_index()];
        match gov {
            Some(g) => node.execute_read_governed(sql, g),
            None => node.execute_read(sql),
        }
    }
}

impl Connection for TracedApuama {
    fn execute(&self, sql: &str) -> EngineResult<QueryOutput> {
        let _s = self.tracer.enter("core.engine");
        match classify(sql)? {
            StatementKind::Read => self.read(sql, None),
            StatementKind::Write => self.inner.execute(sql),
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare(&self, sql: &str) -> EngineResult<usize> {
        let _s = self.tracer.enter("core.engine");
        self.inner.prepare(sql)
    }

    fn execute_bound(&self, sql: &str, params: &[Value]) -> EngineResult<QueryOutput> {
        let _s = self.tracer.enter("core.engine");
        self.inner.execute_bound(sql, params)
    }

    fn execute_governed(&self, sql: &str, gov: &QueryGovernor) -> EngineResult<QueryOutput> {
        let _s = self.tracer.enter("core.engine");
        match classify(sql)? {
            StatementKind::Read => self.read(sql, Some(gov)),
            StatementKind::Write => self.inner.execute_governed(sql, gov),
        }
    }

    fn execute_bound_governed(
        &self,
        sql: &str,
        params: &[Value],
        gov: &QueryGovernor,
    ) -> EngineResult<QueryOutput> {
        let _s = self.tracer.enter("core.engine");
        self.inner.execute_bound_governed(sql, params, gov)
    }

    fn mem_peak_bytes(&self) -> u64 {
        self.inner.mem_peak_bytes()
    }
}

// ---------------------------------------------------------------------------
// Self-time arithmetic
// ---------------------------------------------------------------------------

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's duration minus the part of it its children cover.
pub fn exclusive(span: &Span, children: &[&Span]) -> f64 {
    let iv: Vec<(f64, f64)> = children.iter().map(|c| (c.start, c.end)).collect();
    span.dur() - union_len(&iv, span.start, span.end)
}

/// Attributes every instant of one op's wall time to exactly one layer:
/// at each instant, the innermost spans open then (open spans with no open
/// child) share it equally. For a span whose children run one at a time
/// this equals [`exclusive`]; concurrent siblings (the per-node sub-queries)
/// split the time they overlap. The values therefore add up to the root's
/// duration. `spans` holds the root and its descendants; children are
/// clipped to their parent's interval first.
pub fn attributed_self(spans: &[Span]) -> HashMap<u32, f64> {
    let by_id: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // Clip each span to its (clipped) parent; parents precede children in
    // id order because a child opens while its parent is open.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].id);
    let mut clipped: Vec<(f64, f64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    for &i in &order {
        if let Some(p) = spans[i].parent.and_then(|p| by_id.get(&p)) {
            let (ps, pe) = clipped[*p];
            let (s, e) = clipped[i];
            let s = s.clamp(ps, pe);
            clipped[i] = (s, e.clamp(s, pe));
        }
    }
    let mut cuts: Vec<f64> = clipped.iter().flat_map(|&(s, e)| [s, e]).collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut out: HashMap<u32, f64> = spans.iter().map(|s| (s.id, 0.0)).collect();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<usize> = (0..spans.len())
            .filter(|&i| clipped[i].0 <= a && clipped[i].1 >= b)
            .collect();
        let has_open_child =
            |i: usize| active.iter().any(|&j| spans[j].parent == Some(spans[i].id));
        let innermost: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| !has_open_child(i))
            .collect();
        let share = (b - a) / innermost.len().max(1) as f64;
        for i in innermost {
            *out.get_mut(&spans[i].id).unwrap() += share;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            root: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_times_with_overlapping_children_add_up_to_wall_time() {
        // root [0,10] with two overlapping children A [1,5] and B [3,8];
        // B has a child C [4,6].
        let spans = vec![
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 5.0),
            span(2, Some(0), "b", 3.0, 8.0),
            span(3, Some(2), "c", 4.0, 6.0),
        ];
        let root_children: Vec<&Span> = vec![&spans[1], &spans[2]];
        // Span minus the union of its children: 10 - |[1,8]|.
        assert_eq!(exclusive(&spans[0], &root_children), 3.0);
        assert_eq!(exclusive(&spans[2], &[&spans[3]]), 3.0);
        let got = attributed_self(&spans);
        // [1,3] a; [3,4] a|b; [4,5] a|c; [5,6] c; [6,8] b.
        assert_eq!(got[&0], 3.0);
        assert_eq!(got[&1], 3.0);
        assert_eq!(got[&2], 2.5);
        assert_eq!(got[&3], 1.5);
        let total: f64 = got.values().sum();
        assert_eq!(total, spans[0].dur());
    }

    #[test]
    fn children_outside_their_parent_are_clipped() {
        let spans = vec![
            span(0, None, "root", 0.0, 4.0),
            span(1, Some(0), "a", -1.0, 2.0),
            span(2, Some(0), "b", 3.0, 6.0),
        ];
        let got = attributed_self(&spans);
        assert_eq!(got[&1], 2.0);
        assert_eq!(got[&2], 1.0);
        assert_eq!(got[&0], 1.0);
        assert_eq!(got.values().sum::<f64>(), 4.0);
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(
            union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(union_len(&[(0.0, 2.0)], 1.0, 10.0), 1.0);
        assert_eq!(union_len(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn spans_nest_by_thread_and_kind() {
        let t = Tracer::default();
        {
            let _op = t.client_op(Kind::Read);
            let _e = t.enter("core.engine");
            t.leaf("node.read", || ());
            // A call from a thread the engine spawned joins the read op.
            std::thread::scope(|s| {
                s.spawn(|| t.leaf("node.read", || ()));
            });
        }
        // Outside any op neither a layer span nor a node call is recorded.
        drop(t.enter("core.engine"));
        t.leaf("node.read", || ());
        let (spans, _) = t.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[2..]
            .iter()
            .all(|s| s.parent == Some(1) && s.root == 0));
        assert_eq!(CLIENT_KIND.with(Cell::get), None);
    }
}
