//! `servebench` — the serving benchmark of semkg.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <repeat|cold|churn|bounded> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run builds the workload's
//! dbpedia-like dataset, creates and opens a 2-shard `ShardedDeployment`,
//! serves it with `server::serve` on 127.0.0.1 (default `SgqConfig`,
//! `SchedConfig` and `ServerConfig`), warms it up and drives it from this
//! process with at most two generator threads. Set-up runs `SETUP_REPS`
//! times; the last one is measured.
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` runs a shorter untraced phase, then replays a request
//! sequence through every layer boundary (see `layers`), writes the spans
//! to `.servebench/spans/` and reports the per-layer metrics.
//!
//! Every answer the program returns is checked: exact answers of `repeat`,
//! `cold` and `bounded` bit for bit against references computed in process
//! at set-up, and `churn`'s final epoch against a service rebuilt from the
//! base graph plus the ops the writer applied. A mismatch fails the run.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the contract's `metrics`; the line before it
//! is the full report (host stamp, constants, input properties and every
//! metric this run measured).

mod layers;
mod load;
mod report;
mod spec;

use std::collections::HashSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::churn::churn_stream;
use datagen::dataset::BenchDataset;
use datagen::workload::BenchQuery;
use kgraph::VersionedGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use semkg_server::server::{serve, ServerConfig};
use semkg_server::{Client, Response, WireOutcome};
use sgq::sched::query_signature;
use sgq::{BatchScheduler, LiveQueryService, SchedConfig, SgqConfig, ShardedDeployment};

use load::{answer_key, Ctx, Phase, Req, WriteLog};
use report::{mean, median, quantile, ratio, Metrics, Scrape};
use spec::{Workload, Writer, CACHE_CAPACITY, CHURN_WRITER, SETUP_REPS, SHARDS, TBQ_DEADLINE};

const USAGE: &str = "usage: servebench --workload <repeat|cold|churn|bounded> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Share of the measured seconds spent at the fixed rate when the rate
/// ladder follows.
const FIXED_SHARE: f64 = 0.6;
/// Share of a traced run's seconds spent on its untraced phase.
const UNTRACED_SHARE: f64 = 0.5;
/// Seconds of the write probe a traced run of a read-only workload ends
/// with, so the write layers are measured on every workload.
const PROBE_S: f64 = 0.5;
/// Most requests one traced replay sends.
const REPLAY_MAX: usize = 5000;
/// Requests of the untraced phase (its tail) replayed into the traced
/// run's in-process scheduler, so its caches hold what the server's hold.
const SCHED_WARM_TAIL: usize = 4 * CACHE_CAPACITY;
/// A run whose sends ran later than this at p99 is flagged as behind
/// schedule.
const LATE_FLAG_MS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(1.0..=600.0).contains(&s) {
                        return Err("--seconds must lie in [1, 600]".into());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A seeded stream, one per purpose, all derived from the run's seed.
fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Scratch space for the run's deployments, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".servebench").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// JSON members describing the inputs (input properties, flags).
    inputs: Vec<String>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = run(&args, &work.0);
    drop(work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = &args.workload;
    println!(
        "servebench {} seed {} ({} s, trace {})\n{}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.metrics.table()
    );
    println!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"constants\":{},{},\"metrics\":{}}}}}",
        report::text(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::host_json(),
        w.constants_json(),
        out.inputs.join(","),
        out.metrics.to_json(None)
    );
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let contract = match contract_metrics(section, &out.metrics) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{contract}}}",
        out.correct, out.attempted, out.failed
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("servebench: answers did not match their references");
        ExitCode::FAILURE
    }
}

/// The metrics `BENCHMARK.json` lists under `section`, as the result
/// line's `metrics` object. Fails if the run did not measure one of them
/// or measured it in another unit.
fn contract_metrics(section: &str, measured: &Metrics) -> Result<String, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let field = |v: &'_ serde::Value, name: &str| match v.get_field(name) {
        Some(serde::Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: a {section} entry has no {name:?}")),
    };
    let mut names = Vec::new();
    for entry in doc
        .get_field(section)
        .and_then(|v| v.as_array())
        .unwrap_or_default()
    {
        let (name, unit) = (field(entry, "name")?, field(entry, "unit")?);
        match measured.unit(&name) {
            Some(u) if u == unit => names.push(name),
            Some(u) => {
                return Err(format!(
                    "{name} is measured in {u}, BENCHMARK.json says {unit}"
                ))
            }
            None => return Err(format!("this run did not measure {name}")),
        }
    }
    Ok(measured.to_json(Some(&names)))
}

/// Set-up `SETUP_REPS` times; the last set-up is measured.
fn run(a: &Args, work: &Path) -> Result<Outcome, String> {
    let w = &a.workload;
    let (mut setup, mut create, mut open) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let ds = w.dataset().build();
        let queries = spec::query_space(w.space, &ds);
        let dir = work.join(format!("rep{rep}"));
        let t = Instant::now();
        let dep = ShardedDeployment::create(
            &dir,
            ds.graph.clone(),
            ds.oracle_space(),
            ds.library.clone(),
            SHARDS,
        )
        .map_err(err)?;
        create.push(secs(t));
        drop(dep);
        let t = Instant::now();
        let dep = ShardedDeployment::open(&dir).map_err(err)?;
        open.push(secs(t));
        let service = dep.service(SgqConfig::default());
        let warm = warm_sequence(w, &queries, a.seed);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let last = rep + 1 == SETUP_REPS;
        let registry = Arc::clone(service.registry());
        let measured = serve(
            listener,
            &service,
            SchedConfig::default(),
            ServerConfig::default(),
            &[registry],
            |h| -> Result<Option<Outcome>, String> {
                let mut client = Client::connect(h.addr()).map_err(err)?;
                let ctx = ctx(w, &queries, None);
                load::warm_up(&mut client, &ctx, &warm).map_err(err)?;
                setup.push(secs(t0));
                if !last {
                    return Ok(None);
                }
                let env = Env {
                    a,
                    ds: &ds,
                    dep: &dep,
                    service: &service,
                    queries: &queries,
                    warm: &warm,
                };
                measure(&env, client).map(Some)
            },
        )
        .map_err(err)??;
        if let Some(mut out) = measured {
            out.metrics.put("setup_s", median(&setup), "s");
            out.metrics.put("io.create_s", median(&create), "s");
            out.metrics.put("io.open_s", median(&open), "s");
            return Ok(out);
        }
    }
    Err("no set-up was measured".into())
}

fn ctx<'a>(
    w: &Workload,
    queries: &'a [BenchQuery],
    refs: Option<&'a [Option<Vec<u64>>]>,
) -> Ctx<'a> {
    Ctx {
        queries,
        refs,
        deadline: w.deadline,
        k: SgqConfig::default().k,
    }
}

/// Warm-up requests: every query of a small space once, then the
/// workload's mix.
fn warm_sequence(w: &Workload, queries: &[BenchQuery], seed: u64) -> Vec<Req> {
    let mut rng = stream(seed, 0x3a);
    let mut seq = Vec::new();
    if queries.len() <= CACHE_CAPACITY {
        seq.extend((0..queries.len()).map(|idx| Req {
            idx,
            priority: sgq::Priority::Normal,
        }));
    }
    seq.extend(load::draw(w, queries.len(), w.warmup_requests, &mut rng));
    seq
}

/// Everything the measured set-up holds.
struct Env<'a, 's> {
    a: &'a Args,
    ds: &'a BenchDataset,
    dep: &'a ShardedDeployment,
    service: &'a LiveQueryService<'s>,
    queries: &'a [BenchQuery],
    warm: &'a [Req],
}

/// Exact reference answers of every query in the space, computed on a
/// service of its own (two threads, untimed).
fn references(dep: &ShardedDeployment, queries: &[BenchQuery]) -> Vec<Option<Vec<u64>>> {
    let svc = dep.service(SgqConfig::default());
    let half = queries.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = queries
            .chunks(half.max(1))
            .map(|chunk| {
                let svc = &svc;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| svc.query(&q.graph).ok().map(|r| answer_key(&r)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("reference thread panicked"))
            .collect()
    })
}

fn scrape(client: &mut Client) -> Result<Scrape, String> {
    client.metrics().map(|t| Scrape::parse(&t)).map_err(err)
}

/// Total bytes of the deployment's shard WALs.
fn wal_bytes(dir: &Path) -> f64 {
    (0..SHARDS)
        .filter_map(|s| std::fs::metadata(kgraph::io::shard::wal_path(dir, s)).ok())
        .map(|m| m.len() as f64)
        .sum()
}

/// The measured part of a run, inside the last set-up's server.
fn measure(env: &Env<'_, '_>, mut client: Client) -> Result<Outcome, String> {
    let a = env.a;
    let w = &a.workload;
    let refs = w.writer.is_none().then(|| references(env.dep, env.queries));
    let ctx = ctx(w, env.queries, refs.as_deref());
    let main_s = if a.trace {
        a.seconds * UNTRACED_SHARE
    } else if w.ladder.is_some() {
        a.seconds * FIXED_SHARE
    } else {
        a.seconds
    };

    let mut m = Metrics::default();
    let mut inputs = Vec::new();
    let before = scrape(&mut client)?;
    let sim0 = env.service.similarity_stats();
    let mut rng = stream(a.seed, 0x01);
    let (phase, sent, writes) = match (w.rate_qps, w.writer) {
        (Some(rate), _) => {
            let seq = load::draw(
                w,
                env.queries.len(),
                (rate * main_s).round() as usize,
                &mut rng,
            );
            (load::open_loop(&client, &ctx, &seq, rate), seq, None)
        }
        (None, Some(writer)) => {
            let (p, seq, log) = churn_phase(env, &mut client, &ctx, &writer, main_s, &mut rng)?;
            (p, seq, Some(log))
        }
        (None, None) => return Err("workload has neither a rate nor a writer".into()),
    };
    let after = scrape(&mut client)?;
    let sim1 = env.service.similarity_stats();
    // Peak memory through set-up and the measured phase; the checks and
    // the traced replay that follow hold copies of their own.
    m.put("rss_peak_mb", report::rss_peak_mb(), "MB");

    // End-to-end metrics of the main phase.
    let p50 = median(&phase.lat_ms);
    m.put("p50_ms", p50, "ms");
    m.put("p90_ms", quantile(&phase.lat_ms, 0.9), "ms");
    m.put("p99_ms", quantile(&phase.lat_ms, 0.99), "ms");
    m.put("answer_f1", mean(&phase.f1), "share");
    m.put(
        "on_time_share",
        ratio(phase.on_time as f64, phase.sent as f64),
        "share",
    );
    m.put(
        "failed_share",
        ratio(phase.not_served() as f64, phase.sent as f64),
        "share",
    );
    m.put("answered", phase.lat_ms.len() as f64, "count");
    let late = match &writes {
        Some(log) => &log.late_ms,
        None => &phase.late_ms,
    };
    let late_p99 = quantile(late, 0.99);
    m.put("loadgen.late_p99_ms", late_p99, "ms");
    if late_p99 > LATE_FLAG_MS {
        eprintln!("servebench: generator ran behind schedule (late p99 {late_p99:.3} ms)");
    }
    inputs.push(format!("\"generator_behind\":{}", late_p99 > LATE_FLAG_MS));
    if let Some(log) = &writes {
        m.put(
            "read_qps",
            ratio(phase.lat_ms.len() as f64, phase.elapsed_s),
            "1/s",
        );
        m.put("commit_p50_ms", median(&log.commit_ms), "ms");
        m.put("commit_p90_ms", quantile(&log.commit_ms, 0.9), "ms");
    }
    sched_metrics(&before, &after, &mut m);
    m.put(
        "similarity.row_hit_rate",
        ratio(
            (sim1.row_hits - sim0.row_hits) as f64,
            (sim1.requests() - sim0.requests()) as f64,
        ),
        "share",
    );
    m.put(
        "similarity.invalidations",
        (sim1.invalidations - sim0.invalidations) as f64,
        "count",
    );
    inputs.push(input_properties(env.queries, &sent, &phase, &m));

    let mut tally = phase.clone();
    let mut failed = failures(w, &phase);
    let mut wal_ok = true;
    if let Some(log) = &writes {
        let check = churn_check(env, &mut client, log)?;
        // The reads' quality drifts with how far the writer had got; the
        // final epoch's answers are what the churn stream leaves behind.
        m.put("answer_f1", mean(&check.f1), "share");
        failed += check.not_served() + check.degraded;
        tally.add_counts(&check);
        wal_ok = env.dep.versioned().wal_error().is_none();
    }

    if a.trace {
        m.put("untraced_p50_ms", p50, "ms");
        let replay_s = (a.seconds - main_s - if writes.is_some() { 0.0 } else { PROBE_S }).max(0.5);
        traced(env, &mut client, &sent, replay_s, p50, &mut m)?;
        let log = match writes {
            Some(log) => log,
            None => {
                // The probe's writes change the answers, so its reads are
                // not checked against the references.
                let unchecked = self::ctx(w, env.queries, None);
                let (p, _, log) = churn_phase(
                    env,
                    &mut client,
                    &unchecked,
                    &CHURN_WRITER,
                    PROBE_S,
                    &mut rng,
                )?;
                failed += p.wrong + p.failed + p.transport;
                tally.add_counts(&p);
                wal_ok &= env.dep.versioned().wal_error().is_none();
                log
            }
        };
        write_metrics(&log, &mut m);
    } else if let Some(ladder) = &w.ladder {
        let run = load::climb(&client, &ctx, w, ladder, &mut rng, a.seconds - main_s);
        m.put("sustained_qps", run.sustained_qps, "1/s");
        let steps: Vec<String> = run
            .steps
            .iter()
            .map(|(r, p99, ok)| format!("[{r},{},{ok}]", report::num(*p99)))
            .collect();
        inputs.push(format!("\"ladder_steps\":[{}]", steps.join(",")));
        failed += run.counts.wrong + run.counts.failed + run.counts.transport;
        tally.add_counts(&run.counts);
    }

    Ok(Outcome {
        correct: tally.wrong == 0 && tally.transport == 0 && tally.failed == 0 && wal_ok,
        attempted: tally.sent,
        failed,
        metrics: m,
        inputs,
    })
}

/// Requests of a phase that count as failed: anything not answered
/// correctly, and on workloads with generous deadlines also anything not
/// answered exactly. Sheds under a tight deadline are decisions, not
/// failures (they show in `failed_share`).
fn failures(w: &Workload, p: &Phase) -> u64 {
    if w.expects_exact() {
        p.not_served() + p.degraded
    } else {
        p.failed + p.transport + p.wrong
    }
}

/// One closed-loop reader on `client` while a writer thread applies churn
/// ops at the writer's rate, for `seconds`.
fn churn_phase(
    env: &Env<'_, '_>,
    client: &mut Client,
    ctx: &Ctx<'_>,
    writer: &Writer,
    seconds: f64,
    rng: &mut StdRng,
) -> Result<(Phase, Vec<Req>, WriteLog), String> {
    let w = &env.a.workload;
    let ops = churn_stream(
        env.ds,
        (writer.op_rate * seconds * 1.2).ceil() as usize + 1,
        env.a.seed,
    );
    let vg = env.dep.versioned();
    let stop = AtomicBool::new(false);
    let wal0 = wal_bytes(env.dep.dir());
    let refreshes0 = env.service.stats().engine_refreshes;
    let (phase, sent, mut log) = std::thread::scope(|s| {
        let writer_thread = s.spawn(|| load::write_loop(vg, &ops, writer, &stop));
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        let (phase, sent) = load::closed_loop(client, ctx, w, rng, until);
        stop.store(true, Ordering::Relaxed);
        let log = writer_thread.join().expect("writer thread panicked");
        (phase, sent, log)
    });
    log.wal_bytes = wal_bytes(env.dep.dir()) - wal0;
    log.refreshes = (env.service.stats().engine_refreshes - refreshes0) as f64;
    log.ops_list = ops;
    Ok((phase, sent, log))
}

/// `churn`'s correctness check: the final epoch's answers, through the
/// socket, against a service rebuilt from the base graph plus the ops the
/// writer applied.
fn churn_check(env: &Env<'_, '_>, client: &mut Client, log: &WriteLog) -> Result<Phase, String> {
    let (base, _, _) = kgraph::io::shard::load_sharded(env.dep.dir()).map_err(err)?;
    let vg = Arc::new(VersionedGraph::new(base));
    load::replay_events(&vg, &log.ops_list, &log.events);
    let rebuilt =
        LiveQueryService::new(vg, env.dep.space(), env.dep.library(), SgqConfig::default());
    let mut check = Phase::default();
    for q in env.queries {
        check.sent += 1;
        let wire = load::request(q, Duration::from_secs(5), sgq::Priority::Normal);
        match client.call(&wire) {
            Ok(Response::Query(WireOutcome::Exact(r))) => {
                check.exact += 1;
                let expected = rebuilt.query(&q.graph).map(|r| answer_key(&r));
                if expected.ok() == Some(answer_key(&r)) {
                    check
                        .f1
                        .push(load::answer_f1(q, &r, SgqConfig::default().k));
                } else {
                    check.wrong += 1;
                }
            }
            Ok(Response::Query(WireOutcome::Degraded { .. })) => check.degraded += 1,
            Ok(Response::Query(WireOutcome::Shed(_))) => check.shed[0] += 1,
            Ok(Response::Query(WireOutcome::Failed(_))) => check.failed += 1,
            Ok(_) | Err(_) => check.transport += 1,
        }
    }
    Ok(check)
}

/// Scheduler counters of the served run, from the metrics scrape taken
/// before and after the main phase.
fn sched_metrics(before: &Scrape, after: &Scrape, m: &mut Metrics) {
    let d = |key: &str| after.delta(before, key);
    let served =
        d("sgq_sched_answer_cache_hits_total") + d("sgq_sched_answer_cache_dominance_hits_total");
    let probes =
        served + d("sgq_sched_answer_cache_misses_total") + d("sgq_sched_answer_cache_stale_total");
    m.put(
        "sched.answer_cache_hit_rate",
        ratio(served, probes),
        "share",
    );
    m.put(
        "sched.answer_cache_stale",
        d("sgq_sched_answer_cache_stale_total"),
        "count",
    );
    let plan_hits = d("sgq_sched_plan_cache_hits_total");
    m.put(
        "sched.plan_cache_hit_rate",
        ratio(
            plan_hits,
            plan_hits + d("sgq_sched_plan_cache_misses_total"),
        ),
        "share",
    );
    m.put(
        "sched.mean_batch_size",
        ratio(
            d("sgq_sched_batched_requests_total"),
            d("sgq_sched_batches_total"),
        ),
        "count",
    );
    m.put(
        "sched.degraded_share",
        ratio(
            d("sgq_sched_degraded_total"),
            d("sgq_sched_submitted_total"),
        ),
        "share",
    );
    for reason in ["unmeetable", "expired", "queue_full"] {
        m.put(
            &format!("sched.shed_{reason}"),
            d(&format!("sgq_sched_shed_total{{reason=\"{reason}\"}}")),
            "count",
        );
    }
    m.put(
        "sched.max_queue_depth",
        after.get("sgq_sched_max_queue_depth"),
        "count",
    );
}

/// The write layers, from the writer's own timed calls.
fn write_metrics(log: &WriteLog, m: &mut Metrics) {
    m.put("versioned.insert_us", median(&log.op_us), "us");
    m.put("versioned.compact_ms", median(&log.compact_ms), "ms");
    m.put(
        "wal.bytes_per_op",
        ratio(log.wal_bytes, log.ops as f64),
        "bytes",
    );
    m.put(
        "live.refreshes_per_commit",
        ratio(log.refreshes, log.commits as f64),
        "count",
    );
    m.put("live.delta_edges", mean(&log.delta_edges), "count");
}

/// The input properties later cache and batching claims depend on.
fn input_properties(queries: &[BenchQuery], sent: &[Req], phase: &Phase, m: &Metrics) -> String {
    let space: HashSet<u64> = queries.iter().map(|q| query_signature(&q.graph)).collect();
    let drawn: HashSet<u64> = sent
        .iter()
        .map(|r| query_signature(&queries[r.idx].graph))
        .collect();
    let total = phase.classes.iter().sum::<u64>() as f64;
    let share = |i: usize| report::num(ratio(phase.classes[i] as f64, total));
    format!(
        "\"inputs\":{{\"space_queries\":{},\"space_distinct\":{},\"drawn_distinct\":{},\
         \"answer_cache_capacity\":{CACHE_CAPACITY},\"plan_cache_capacity\":{CACHE_CAPACITY},\
         \"answer_cache_hit_rate\":{},\"plan_cache_hit_rate\":{},\
         \"simple_share\":{},\"medium_share\":{},\"complex_share\":{}}}",
        queries.len(),
        space.len(),
        drawn.len(),
        report::num(m.get("sched.answer_cache_hit_rate").unwrap_or(0.0)),
        report::num(m.get("sched.plan_cache_hit_rate").unwrap_or(0.0)),
        share(0),
        share(1),
        share(2),
    )
}

/// The traced replay (see `layers`): a fresh request sequence through the
/// socket, an in-process scheduler and the engine, one span per call.
fn traced(
    env: &Env<'_, '_>,
    client: &mut Client,
    untraced_seq: &[Req],
    seconds: f64,
    untraced_p50_ms: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let a = env.a;
    let w = &a.workload;
    let sched_svc = env.dep.service(SgqConfig::default());
    let direct = env.dep.service(SgqConfig::default());
    let seq = load::draw(w, env.queries.len(), REPLAY_MAX, &mut stream(a.seed, 0x7e));
    let tail = &untraced_seq[untraced_seq.len().saturating_sub(SCHED_WARM_TAIL)..];
    let mut seen = HashSet::new();
    for r in env
        .warm
        .iter()
        .filter(|r| seen.insert(r.idx))
        .take(CACHE_CAPACITY)
    {
        let _ = direct.query(&env.queries[r.idx].graph);
    }
    let traces = BatchScheduler::serve(&sched_svc, SchedConfig::default(), |handle| {
        for r in env.warm.iter().chain(tail) {
            let q = &env.queries[r.idx];
            let _ = handle.submit(&q.graph, w.deadline, r.priority).wait();
        }
        layers::replay(
            client,
            handle,
            &direct,
            env.queries,
            &seq,
            w.deadline,
            TBQ_DEADLINE,
            Duration::from_secs_f64(seconds),
        )
    })
    .map_err(err)?;
    layers::layer_metrics(&traces, untraced_p50_ms, m);
    let path = Path::new(".servebench")
        .join("spans")
        .join(format!("{}-seed{}.tsv", w.name, a.seed));
    layers::write_spans(&path, &traces).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "servebench: {} spans written to {}",
        traces.len(),
        path.display()
    );
    Ok(())
}
