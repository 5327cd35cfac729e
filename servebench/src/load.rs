//! Load generation through the socket: the open loop (one connection, a
//! sender thread and a receiver thread), the closed-loop reader, the rate
//! ladder and the churn writer. Every function here times only the
//! benchmark's own calls.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use datagen::churn::{apply_churn, ChurnOp};
use datagen::metrics::{f1_score, precision_recall};
use datagen::workload::{BenchQuery, RequestMix};
use kgraph::VersionedGraph;
use rand::rngs::StdRng;
use semkg_server::proto::{encode_request, frame};
use semkg_server::{Client, ClientError, Request, Response, WireOutcome};
use sgq::{Priority, QNodeId, QueryResult, ShedReason};

use crate::report::{median, quantile};
use crate::spec::{Draw, Ladder, Workload, Writer};

/// One request of a generated sequence: an index into the query space and
/// a priority class.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub idx: usize,
    pub priority: Priority,
}

/// Draws `n` requests from the workload's mix.
pub fn draw(w: &Workload, space_len: usize, n: usize, rng: &mut StdRng) -> Vec<Req> {
    (0..n).map(|_| draw_one(w, space_len, rng)).collect()
}

pub fn draw_one(w: &Workload, space_len: usize, rng: &mut StdRng) -> Req {
    let mix = RequestMix::default();
    let idx = match w.draw {
        Draw::RequestMix => mix.pick(rng, space_len),
        Draw::Uniform => rand::Rng::random_range(rng, 0..space_len),
    };
    Req {
        idx,
        priority: mix.pick_priority(rng),
    }
}

/// The request as it goes on the wire.
pub fn request(q: &BenchQuery, deadline: Duration, priority: Priority) -> Request {
    Request::Query {
        query: q.graph.clone(),
        deadline_us: deadline.as_micros() as u64,
        priority,
    }
}

/// Every bit of an answer the correctness check compares: per match the
/// pivot, the score bits, and per part the source, pivot, pss bits, path
/// nodes, path edge ids and bindings.
pub fn answer_key(r: &QueryResult) -> Vec<u64> {
    let mut key = vec![r.matches.len() as u64];
    for m in &r.matches {
        key.extend([
            u64::from(m.pivot.0),
            m.score.to_bits(),
            m.parts.len() as u64,
        ]);
        for p in &m.parts {
            key.extend([u64::from(p.source.0), u64::from(p.pivot.0), p.pss.to_bits()]);
            key.push(p.nodes.len() as u64);
            key.extend(p.nodes.iter().map(|n| u64::from(n.0)));
            key.push(p.edges.len() as u64);
            key.extend(p.edges.iter().map(|e| u64::from(e.0)));
            key.push(p.bindings.len() as u64);
            key.extend(
                p.bindings
                    .iter()
                    .map(|&(q, n)| (u64::from(q) << 32) | u64::from(n.0)),
            );
        }
    }
    key
}

/// F1 of the answer bindings (top `k`) against the dataset's truth.
pub fn answer_f1(q: &BenchQuery, r: &QueryResult, k: usize) -> f64 {
    let mut answers = r.bindings_for(QNodeId(q.answer_node));
    answers.truncate(k);
    let (p, rec) = precision_recall(&answers, &q.truth);
    f1_score(p, rec)
}

/// What the load loops check answers against.
pub struct Ctx<'a> {
    pub queries: &'a [BenchQuery],
    /// Reference answer keys by space index (`None`: not checked).
    pub refs: Option<&'a [Option<Vec<u64>>]>,
    pub deadline: Duration,
    pub k: usize,
}

/// Everything one load phase observed.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub sent: u64,
    /// Latency of answered (exact or degraded) requests, ms, timed from
    /// each request's scheduled send time.
    pub lat_ms: Vec<f64>,
    /// How late each send ran against its schedule, ms.
    pub late_ms: Vec<f64>,
    pub exact: u64,
    pub degraded: u64,
    /// Sheds by reason: queue full, expired, unmeetable, shutdown.
    pub shed: [u64; 4],
    pub failed: u64,
    pub transport: u64,
    pub wrong: u64,
    /// Answered within the deadline, client-observed.
    pub on_time: u64,
    pub f1: Vec<f64>,
    /// Requests per complexity class (Simple, Medium, Complex).
    pub classes: [u64; 3],
    pub elapsed_s: f64,
}

impl Phase {
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Requests that were not answered correctly: shed, failed, lost on
    /// the wire, or wrong.
    pub fn not_served(&self) -> u64 {
        self.shed_total() + self.failed + self.transport + self.wrong
    }

    /// Folds another phase's counts (not its samples) into this one.
    pub fn add_counts(&mut self, o: &Phase) {
        self.sent += o.sent;
        self.exact += o.exact;
        self.degraded += o.degraded;
        for (a, b) in self.shed.iter_mut().zip(o.shed) {
            *a += b;
        }
        self.failed += o.failed;
        self.transport += o.transport;
        self.wrong += o.wrong;
        self.on_time += o.on_time;
    }

    fn record(&mut self, ctx: &Ctx<'_>, req: Req, resp: Result<Response, ClientError>, lat: f64) {
        let q = &ctx.queries[req.idx];
        self.classes[q.complexity.clamp(1, 3) - 1] += 1;
        let on_time = lat <= ctx.deadline.as_secs_f64() * 1e3;
        match resp {
            Ok(Response::Query(WireOutcome::Exact(r))) => {
                self.exact += 1;
                let expected = ctx.refs.and_then(|refs| refs[req.idx].as_ref());
                if expected.is_some_and(|key| *key != answer_key(&r)) {
                    self.wrong += 1;
                    return;
                }
                self.answered(ctx, q, &r, lat, on_time);
            }
            Ok(Response::Query(WireOutcome::Degraded { result, .. })) => {
                self.degraded += 1;
                self.answered(ctx, q, &result, lat, on_time);
            }
            Ok(Response::Query(WireOutcome::Shed(reason))) => {
                let slot = match reason {
                    ShedReason::QueueFull => 0,
                    ShedReason::Expired => 1,
                    ShedReason::Unmeetable => 2,
                    ShedReason::Shutdown => 3,
                };
                self.shed[slot] += 1;
            }
            Ok(Response::Query(WireOutcome::Failed(_))) => self.failed += 1,
            Ok(_) | Err(_) => self.transport += 1,
        }
    }

    fn answered(&mut self, ctx: &Ctx<'_>, q: &BenchQuery, r: &QueryResult, lat: f64, ok: bool) {
        self.lat_ms.push(lat);
        self.on_time += u64::from(ok);
        self.f1.push(answer_f1(q, r, ctx.k));
    }
}

/// Open loop at `rate` q/s on one connection: a sender thread fires the
/// pre-encoded requests on schedule regardless of replies, this thread
/// receives them in order.
pub fn open_loop(client: &Client, ctx: &Ctx<'_>, seq: &[Req], rate: f64) -> Phase {
    let frames: Vec<Vec<u8>> = seq
        .iter()
        .map(|r| {
            frame(&encode_request(&request(
                &ctx.queries[r.idx],
                ctx.deadline,
                r.priority,
            )))
        })
        .collect();
    let (Ok(mut tx), Ok(mut rx)) = (client.try_clone(), client.try_clone()) else {
        return Phase {
            sent: seq.len() as u64,
            transport: seq.len() as u64,
            ..Phase::default()
        };
    };
    let interval = 1.0 / rate;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 * interval);
    let mut phase = Phase::default();
    // Every request gets a receive slot: a request the sender could not
    // send surfaces there as a transport error (read timeout or lost
    // connection).
    let late_ms = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late = Vec::with_capacity(frames.len());
            for (i, f) in frames.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                if tx.send_raw(f).is_err() {
                    break;
                }
            }
            late
        });
        let mut lost = false;
        for (i, req) in seq.iter().enumerate() {
            let resp = if lost {
                Err(ClientError::Protocol("connection lost".into()))
            } else {
                rx.recv_response()
            };
            lost |= resp.is_err();
            let lat = Instant::now()
                .saturating_duration_since(due(i))
                .as_secs_f64()
                * 1e3;
            phase.record(ctx, *req, resp, lat);
        }
        sender.join().expect("sender thread panicked")
    });
    phase.sent = seq.len() as u64;
    phase.late_ms = late_ms;
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// One closed-loop reader: the next request goes out when the previous
/// reply arrived, until `until`. Returns the requests it sent too.
pub fn closed_loop(
    client: &mut Client,
    ctx: &Ctx<'_>,
    w: &Workload,
    rng: &mut StdRng,
    until: Instant,
) -> (Phase, Vec<Req>) {
    let mut phase = Phase::default();
    let mut sent = Vec::new();
    let start = Instant::now();
    while Instant::now() < until {
        let req = draw_one(w, ctx.queries.len(), rng);
        let t = Instant::now();
        let resp = client
            .send_request(&request(&ctx.queries[req.idx], ctx.deadline, req.priority))
            .and_then(|()| client.recv_response());
        let lost = resp.is_err();
        phase.record(ctx, req, resp, t.elapsed().as_secs_f64() * 1e3);
        phase.sent += 1;
        sent.push(req);
        if lost {
            break;
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    (phase, sent)
}

/// Sends `n` requests closed-loop and discards the answers (warm-up).
pub fn warm_up(client: &mut Client, ctx: &Ctx<'_>, seq: &[Req]) -> Result<(), ClientError> {
    for r in seq {
        client.send_request(&request(&ctx.queries[r.idx], ctx.deadline, r.priority))?;
        client.recv_response()?;
    }
    Ok(())
}

/// Result of climbing the rate ladder.
pub struct LadderRun {
    /// Highest offered rate that met the p99 limit without a growing
    /// backlog (0 if the first rate failed).
    pub sustained_qps: f64,
    /// `(rate, p99 ms, passed)` per step run.
    pub steps: Vec<(f64, f64, bool)>,
    /// Counts of every step, for the correctness tally.
    pub counts: Phase,
}

/// Offers each ladder rate for `step_s` seconds until one fails or the
/// time budget runs out.
pub fn climb(
    client: &Client,
    ctx: &Ctx<'_>,
    w: &Workload,
    ladder: &Ladder,
    rng: &mut StdRng,
    budget_s: f64,
) -> LadderRun {
    let started = Instant::now();
    let mut run = LadderRun {
        sustained_qps: 0.0,
        steps: Vec::new(),
        counts: Phase::default(),
    };
    for &rate in ladder.rates {
        if started.elapsed().as_secs_f64() + ladder.step_s > budget_s {
            break;
        }
        let n = (rate * ladder.step_s).round() as usize;
        let seq = draw(w, ctx.queries.len(), n, rng);
        let phase = open_loop(client, ctx, &seq, rate);
        let p99 = quantile(&phase.lat_ms, 0.99);
        let quarter = phase.lat_ms.len() / 4;
        let growing = quarter > 0 && {
            let first = median(&phase.lat_ms[..quarter]);
            let last = median(&phase.lat_ms[phase.lat_ms.len() - quarter..]);
            last > 2.0 * first + 0.5
        };
        let passed = p99 <= ladder.p99_limit_ms && !growing && phase.not_served() == 0;
        run.counts.add_counts(&phase);
        run.steps.push((rate, p99, passed));
        if !passed {
            break;
        }
        run.sustained_qps = rate;
    }
    run
}

/// One step of the writer's history, replayed when the final state is
/// rebuilt for the correctness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    Op(usize),
    Commit,
    Compact,
}

/// What the writer did and how long each call took.
#[derive(Debug, Default)]
pub struct WriteLog {
    pub events: Vec<Event>,
    /// Per insert/delete call, µs.
    pub op_us: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    /// How late each op ran against its schedule, ms.
    pub late_ms: Vec<f64>,
    /// Overlay edges after each commit.
    pub delta_edges: Vec<f64>,
    pub ops: usize,
    pub commits: usize,
    /// Bytes the shard WALs grew by.
    pub wal_bytes: f64,
    /// Epoch-engine rebuilds of the served service meanwhile.
    pub refreshes: f64,
    /// The op stream the writer drew from.
    pub ops_list: Vec<ChurnOp>,
}

/// Applies `ops` at the writer's fixed rate until `stop`, committing and
/// compacting on the writer's cadence, then commits what is staged.
pub fn write_loop(vg: &VersionedGraph, ops: &[ChurnOp], w: &Writer, stop: &AtomicBool) -> WriteLog {
    let mut log = WriteLog::default();
    let start = Instant::now();
    let mut staged = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let at = start + Duration::from_secs_f64(i as f64 / w.op_rate);
        let now = Instant::now();
        if now < at {
            std::thread::sleep(at - now);
        }
        log.late_ms
            .push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
        let t = Instant::now();
        apply_churn(vg, op);
        log.op_us.push(t.elapsed().as_secs_f64() * 1e6);
        log.events.push(Event::Op(i));
        log.ops += 1;
        staged += 1;
        if staged == w.commit_every {
            commit(vg, w, &mut log);
            staged = 0;
        }
    }
    if staged > 0 {
        commit(vg, w, &mut log);
    }
    log
}

fn commit(vg: &VersionedGraph, w: &Writer, log: &mut WriteLog) {
    let t = Instant::now();
    vg.commit();
    log.commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    log.events.push(Event::Commit);
    log.commits += 1;
    log.delta_edges.push(vg.stats().delta_edges as f64);
    if log.commits.is_multiple_of(w.compact_every) {
        let t = Instant::now();
        vg.compact();
        log.compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.events.push(Event::Compact);
    }
}

/// Replays a writer's history onto another store.
pub fn replay_events(vg: &VersionedGraph, ops: &[ChurnOp], events: &[Event]) {
    for e in events {
        match *e {
            Event::Op(i) => {
                apply_churn(vg, &ops[i]);
            }
            Event::Commit => {
                vg.commit();
            }
            Event::Compact => {
                vg.compact();
            }
        }
    }
}
