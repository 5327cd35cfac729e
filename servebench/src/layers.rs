//! The traced replay: each request of a sequence goes, one at a time,
//! through every layer boundary the benchmark can call from outside, and
//! one span per call is kept in memory.
//!
//! Per request, in order:
//!
//! * `codec` — `proto::{encode_request, decode_request, encode_response,
//!   decode_response}` on the request and its reply;
//! * `client` — `Client::call` through the socket to the served service
//!   (the request's client-observed latency);
//! * `sched` — `SchedHandle::submit` + `Ticket::wait` on an in-process
//!   scheduler over a second service of the same deployment, whose answer
//!   and plan caches were warmed with the same requests as the server's;
//! * `plan`, `exec` — `LiveQueryService::prepare` and `execute_traced` on a
//!   third service, with the engine's own `seed`/`expand`/`merge` phase
//!   times from the returned `QueryTrace`;
//! * `tbq` — `prepare` + `execute_time_bounded` under the TBQ deadline;
//! * every eighth request, `ping` — `Client::ping`.
//!
//! A layer's self time is its span minus the spans of the layers beneath
//! it for the same request: `server = client − sched`, and
//! `sched = sched − (plan + exec)`, where a request the scheduler answered
//! from its answer cache has nothing beneath it and one whose plan came
//! from the plan cache has no `plan` beneath it.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use datagen::workload::BenchQuery;
use semkg_server::proto::{
    decode_request, decode_response, encode_request, encode_response, frame,
};
use semkg_server::Client;
use sgq::{LiveQueryService, SchedHandle, TimeBoundConfig};

use crate::load::{request, Req};
use crate::report::{mean, median, quantile, ratio, Metrics};

/// Spans and counts of one replayed request.
#[derive(Debug, Default, Clone)]
pub struct ReqTrace {
    pub idx: usize,
    pub start_ns: u64,
    pub codec_ns: f64,
    pub reply_bytes: f64,
    pub client_us: f64,
    pub sched_us: f64,
    pub answer_hit: bool,
    pub plan_hit: bool,
    pub plan_us: f64,
    pub exec_us: f64,
    pub seed_us: f64,
    pub expand_us: f64,
    pub merge_us: f64,
    pub edges: u64,
    pub pops: u64,
    pub ta_accesses: u64,
    pub matches: u64,
    pub tbq_us: f64,
    pub tbq_recall: f64,
    pub ping_us: Option<f64>,
}

impl ReqTrace {
    /// Engine time beneath the scheduler span for this request, split by
    /// phase: (plan, seed, expand, merge, rest of exec).
    fn beneath(&self) -> [f64; 5] {
        if self.answer_hit {
            return [0.0; 5];
        }
        let plan = if self.plan_hit { 0.0 } else { self.plan_us };
        let phases = self.seed_us + self.expand_us + self.merge_us;
        [
            plan,
            self.seed_us,
            self.expand_us,
            self.merge_us,
            self.exec_us - phases,
        ]
    }

    fn server_self(&self) -> f64 {
        self.client_us - self.sched_us
    }

    fn sched_self(&self) -> f64 {
        self.sched_us - self.beneath().iter().sum::<f64>()
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replays `seq` until it ends or `budget` runs out.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    client: &mut Client,
    sched: &SchedHandle<'_, LiveQueryService<'_>>,
    direct: &LiveQueryService<'_>,
    queries: &[BenchQuery],
    seq: &[Req],
    deadline: Duration,
    tbq_deadline: Duration,
    budget: Duration,
) -> Vec<ReqTrace> {
    let started = Instant::now();
    let tb = TimeBoundConfig::with_bound(tbq_deadline);
    let mut out = Vec::with_capacity(seq.len());
    for (n, req) in seq.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let q = &queries[req.idx];
        let mut t = ReqTrace {
            idx: req.idx,
            start_ns: started.elapsed().as_nanos() as u64,
            ..ReqTrace::default()
        };
        let wire = request(q, deadline, req.priority);

        let c0 = Instant::now();
        let Ok(resp) = client.call(&wire) else {
            break;
        };
        t.client_us = us(c0.elapsed());

        let c0 = Instant::now();
        let payload = encode_request(&wire);
        let decoded = decode_request(&payload);
        let reply = encode_response(&resp);
        let back = decode_response(&reply);
        t.codec_ns = c0.elapsed().as_nanos() as f64;
        let _ = std::hint::black_box((decoded, back));
        t.reply_bytes = frame(&reply).len() as f64;

        let before = sched.stats();
        let c0 = Instant::now();
        let answer = sched.submit(&q.graph, deadline, req.priority).wait();
        t.sched_us = us(c0.elapsed());
        let after = sched.stats();
        std::hint::black_box(answer);
        t.answer_hit = after.answer_cache_served() > before.answer_cache_served();
        t.plan_hit = after.plan_cache_hits > before.plan_cache_hits;

        let c0 = Instant::now();
        let Ok(prepared) = direct.prepare(&q.graph) else {
            out.push(t);
            continue;
        };
        t.plan_us = us(c0.elapsed());
        let c0 = Instant::now();
        let exact = direct.execute_traced(&prepared);
        t.exec_us = us(c0.elapsed());
        let exact_pivots = match exact {
            Ok((result, trace)) => {
                t.seed_us = trace.seed_ns as f64 / 1e3;
                t.expand_us = trace.expand_ns as f64 / 1e3;
                t.merge_us = trace.merge_ns as f64 / 1e3;
                t.edges = trace.edges_examined;
                t.pops = trace.popped;
                t.ta_accesses = trace.ta_accesses;
                t.matches = trace.matches;
                result.answer_nodes()
            }
            Err(_) => Vec::new(),
        };

        let c0 = Instant::now();
        let bounded = direct
            .prepare(&q.graph)
            .and_then(|p| direct.execute_time_bounded(&p, &tb));
        t.tbq_us = us(c0.elapsed());
        t.tbq_recall = match bounded {
            Ok(r) if !exact_pivots.is_empty() => {
                let got = r.answer_nodes();
                exact_pivots.iter().filter(|p| got.contains(p)).count() as f64
                    / exact_pivots.len() as f64
            }
            Ok(_) => 1.0,
            Err(_) => 0.0,
        };

        if n % 8 == 0 {
            let c0 = Instant::now();
            if client.ping().is_ok() {
                t.ping_us = Some(us(c0.elapsed()));
            }
        }
        out.push(t);
    }
    out
}

/// Per-layer metrics of a replay; `untraced_p50_ms` is the same
/// workload's client p50 with tracing off.
pub fn layer_metrics(traces: &[ReqTrace], untraced_p50_ms: f64, m: &mut Metrics) {
    let col = |f: &dyn Fn(&ReqTrace) -> f64| traces.iter().map(f).collect::<Vec<f64>>();
    let client = col(&|t| t.client_us);
    let server_self = col(&|t| t.server_self());
    let sched_self = col(&|t| t.sched_self());
    let pings: Vec<f64> = traces.iter().filter_map(|t| t.ping_us).collect();
    m.put("server.self_us", median(&server_self), "us");
    m.put("server.ping_us", median(&pings), "us");
    m.put("server.codec_ns", median(&col(&|t| t.codec_ns)), "ns");
    m.put(
        "server.reply_bytes",
        mean(&col(&|t| t.reply_bytes)),
        "bytes",
    );
    m.put("sched.self_us", median(&sched_self), "us");

    m.put("engine.plan_us", median(&col(&|t| t.plan_us)), "us");
    m.put("engine.seed_us", median(&col(&|t| t.seed_us)), "us");
    m.put("engine.expand_us", median(&col(&|t| t.expand_us)), "us");
    m.put("engine.merge_us", median(&col(&|t| t.merge_us)), "us");
    let sum = |f: &dyn Fn(&ReqTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let edges = sum(&|t| t.edges as f64);
    let pops = sum(&|t| t.pops as f64);
    m.put(
        "engine.expand_ns_per_edge",
        ratio(sum(&|t| t.expand_us) * 1e3, edges),
        "ns",
    );
    let n = traces.len() as f64;
    m.put("engine.edges_per_query", ratio(edges, n), "count");
    m.put("engine.pops_per_query", ratio(pops, n), "count");
    m.put(
        "engine.ta_accesses_per_query",
        ratio(sum(&|t| t.ta_accesses as f64), n),
        "count",
    );
    m.put(
        "engine.match_yield",
        ratio(sum(&|t| t.matches as f64), pops),
        "share",
    );

    let overshoot = col(&|t| t.tbq_us - crate::spec::TBQ_DEADLINE.as_secs_f64() * 1e6);
    m.put("tbq.overshoot_p50_us", median(&overshoot), "us");
    m.put("tbq.overshoot_p99_us", quantile(&overshoot, 0.99), "us");
    m.put("tbq.recall_at_k", mean(&col(&|t| t.tbq_recall)), "share");

    // Reconciliation at the median: the layers' median self times against
    // the median client latency.
    let part = |i: usize| median(&col(&|t| t.beneath()[i]));
    let explained = median(&server_self) + median(&sched_self) + (0..4).map(part).sum::<f64>();
    m.put("trace.residual_p50_us", median(&client) - explained, "us");
    m.put(
        "trace.overhead_p50_ms",
        median(&client) / 1e3 - untraced_p50_ms,
        "ms",
    );
    m.put("trace.client_p50_us", median(&client), "us");
    m.put("trace.requests", n, "count");
    m.put(
        "trace.answer_cache_hit_share",
        ratio(traces.iter().filter(|t| t.answer_hit).count() as f64, n),
        "share",
    );
}

/// Writes one line per span: request, layer, parent layer, start and
/// duration (µs; engine phases carry no start of their own).
pub fn write_spans(path: &Path, traces: &[ReqTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tlayer\tparent\tstart_us\tdur_us\tquery")?;
    for (i, t) in traces.iter().enumerate() {
        let start = t.start_ns as f64 / 1e3;
        let mut span = |layer: &str, parent: &str, start: Option<f64>, dur: f64| {
            let start = start.map_or_else(|| "-".to_string(), |s| format!("{s:.3}"));
            writeln!(out, "{i}\t{layer}\t{parent}\t{start}\t{dur:.3}\t{}", t.idx)
        };
        span("client", "-", Some(start), t.client_us)?;
        span("codec", "-", None, t.codec_ns / 1e3)?;
        span("sched", "client", None, t.sched_us)?;
        if !t.answer_hit {
            if !t.plan_hit {
                span("plan", "sched", None, t.plan_us)?;
            }
            span("exec", "sched", None, t.exec_us)?;
            span("seed", "exec", None, t.seed_us)?;
            span("expand", "exec", None, t.expand_us)?;
            span("merge", "exec", None, t.merge_us)?;
        }
        span("tbq", "-", None, t.tbq_us)?;
        if let Some(p) = t.ping_us {
            span("ping", "-", None, p)?;
        }
    }
    out.flush()
}
