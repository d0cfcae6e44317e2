//! `served_mix`: the journey over HTTP. Two client threads in a closed
//! loop, each owning four pipeline(60) projects, against an in-process
//! server (2 workers, no simulated session latency) over a persistent
//! workspace in the checkout's scratch directory.
//!
//! Per round and project: `POST replan`, a what-if `POST replan` toward
//! the next ten-stage slice, `POST run` of that slice every third round,
//! and four `GET status`; after 18 rounds `GET export`, then the
//! project is deleted and its slot starts a fresh one.
//!
//! The traced run logs every request and, after the measured window,
//! replays them on two identically seeded twins through `Api::handle`
//! — one over an in-memory workspace, one over a persistent one — which
//! splits the round trip into parse, handling, store and transport.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hercules::Workspace;
use obs::Metrics;
use schedule::WorkDays;
use schema::{examples, parse_schema};
use serve::http::{read_request, ReadOutcome};
use serve::{Api, ApiConfig, Client, HttpResponse, Server, ServerConfig};
use simtools::rng::mix;
use simtools::workload::Team;
use simtools::ToolLibrary;

use crate::stats::Rec;
use crate::{Run, SETUPS};

const STAGES: usize = 60;
const SLICE: usize = 10;
/// A run every third round: 18 rounds execute the six slices.
const ROUNDS: usize = 3 * STAGES / SLICE;
const CLIENTS: usize = 2;
const SLOTS_PER_CLIENT: usize = 4;
const TEAM: usize = 4;
const TARGET: &str = "d60";

fn slot_seed(seed: u64, slot: usize) -> u64 {
    mix(&[seed, slot as u64])
}

/// The two replay targets of a traced run.
struct Twins {
    mem_ws: Arc<Workspace>,
    mem: Api,
    disk_ws: Arc<Workspace>,
    disk: Api,
    disk_root: PathBuf,
}

/// One project slot's progress and what it observed.
#[derive(Default)]
struct Slot {
    id: usize,
    seed: u64,
    name: Option<String>,
    round: usize,
    journeys: u64,
    /// Final `GET status` body of every finished journey.
    finals: Vec<String>,
    /// Simulated finish of every finished journey, as the last run
    /// body prints it.
    finishes: Vec<String>,
    last_status: String,
    last_finish: String,
}

/// One request of a traced run, kept for the replay on the twins.
struct Logged {
    step: Option<&'static str>,
    method: &'static str,
    path: String,
    body: Vec<u8>,
    /// Whether it belongs to its slot's first journey, whose exact
    /// counts are recorded.
    first: bool,
    status: u16,
    /// Digest of the response body.
    digest: u64,
    /// Activities a run response reports executed.
    executed: f64,
}

fn digest(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// One client thread.
struct ClientThread<'a> {
    client: Client,
    source: &'a str,
    /// Traced runs: every request, for the replay after the run.
    log: Option<Vec<Logged>>,
    rec: Rec,
}

impl ClientThread<'_> {
    /// Sends one request and checks it succeeded; traced runs log it.
    fn call(
        &mut self,
        step: Option<&'static str>,
        method: &'static str,
        path: &str,
        body: &[u8],
        first: bool,
    ) -> Option<HttpResponse> {
        let t = Instant::now();
        let resp = self.client.request(method, path, body);
        self.sample(step, t.elapsed());
        let resp = self.verify(method, path, resp)?;
        if let Some(log) = &mut self.log {
            log.push(Logged {
                step,
                method,
                path: path.to_owned(),
                body: body.to_vec(),
                first,
                status: resp.status,
                digest: digest(&resp.body),
                executed: executed(&resp.body).unwrap_or(0.0),
            });
        }
        Some(resp)
    }

    fn sample(&mut self, step: Option<&'static str>, d: Duration) {
        match step {
            Some(step) => self.rec.sample(step, d),
            None => self.rec.attempted += 1,
        }
    }

    fn verify(
        &mut self,
        method: &str,
        path: &str,
        resp: std::io::Result<HttpResponse>,
    ) -> Option<HttpResponse> {
        match resp {
            Ok(r) if r.is_success() => Some(r),
            Ok(r) => {
                self.rec
                    .fail(format!("{method} {path}: {} {}", r.status, r.body.trim()));
                None
            }
            Err(e) => {
                self.rec.fail(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    /// Starts a fresh journey in `slot`: create and plan over HTTP.
    fn begin(&mut self, slot: &mut Slot) {
        let name = format!("s{}j{}", slot.id, slot.journeys);
        let first = slot.journeys == 0;
        let create = format!("/projects/{name}?team={TEAM}&seed={}", slot.seed);
        self.call(None, "POST", &create, self.source.as_bytes(), first);
        self.call(
            Some("plan"),
            "POST",
            &format!("/projects/{name}/plan?target={TARGET}"),
            b"",
            first,
        );
        slot.name = Some(name);
        slot.round = 0;
    }

    /// One round of `slot`'s journey; the last round exports and
    /// deletes the project.
    fn round(&mut self, slot: &mut Slot) {
        let Some(name) = slot.name.clone() else {
            return;
        };
        let first = slot.journeys == 0;
        slot.round += 1;
        let next = SLICE * slot.round.div_ceil(3);
        let p = format!("/projects/{name}");
        self.call(
            Some("replan"),
            "POST",
            &format!("{p}/replan?target={TARGET}"),
            b"",
            first,
        );
        self.call(
            Some("whatif"),
            "POST",
            &format!("{p}/replan?target=d{next}"),
            b"",
            first,
        );
        if slot.round.is_multiple_of(3) {
            if let Some(r) = self.call(
                Some("execute"),
                "POST",
                &format!("{p}/run?target=d{next}"),
                b"",
                first,
            ) {
                slot.last_finish = finished(&r.body).unwrap_or_default();
            }
        }
        for _ in 0..4 {
            if let Some(r) = self.call(Some("status"), "GET", &format!("{p}/status"), b"", first) {
                slot.last_status = r.body;
            }
        }
        if slot.round == ROUNDS {
            self.call(Some("export"), "GET", &format!("{p}/export"), b"", first);
            self.call(None, "DELETE", &p, b"", first);
            slot.finals.push(std::mem::take(&mut slot.last_status));
            slot.finishes.push(std::mem::take(&mut slot.last_finish));
            slot.journeys += 1;
            slot.name = None;
        }
    }

    /// Closed loop over this client's slots until `deadline`; journeys
    /// in progress then run to their end.
    fn drive(&mut self, slots: &mut [Slot], deadline: Instant) {
        loop {
            let stop = Instant::now() >= deadline;
            if stop && slots.iter().all(|s| s.name.is_none()) {
                return;
            }
            for slot in slots.iter_mut() {
                if slot.name.is_none() {
                    if stop {
                        continue;
                    }
                    self.begin(slot);
                } else {
                    self.round(slot);
                }
            }
        }
    }
}

/// Replays a traced run's requests, in order, on both twins: parses
/// the bytes the client sent, times `Api::handle` in memory and on
/// disk, checks each answer equals the one served over HTTP, and
/// records the exact counts of each slot's first journey. Runs after
/// the measured window, so the live server's load is not disturbed.
fn replay(twins: &Twins, addr: &str, log: &[Logged], rec: &mut Rec) {
    for l in log {
        let (method, path) = (l.method, l.path.as_str());
        // The bytes `Client::request` sends (one exchange per
        // connection).
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            l.body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&l.body);
        let t = Instant::now();
        let parsed = read_request(&mut raw.as_slice());
        let parse = t.elapsed();
        let ReadOutcome::Request(req) = parsed else {
            rec.fail(format!("{method} {path}: request bytes do not parse"));
            continue;
        };
        let project = path
            .split('/')
            .nth(2)
            .unwrap_or("")
            .split('?')
            .next()
            .unwrap_or("");
        let journal = |ws: &Workspace| {
            ws.project(project).map_or(0.0, |p| {
                p.read(|h| h.db().journal().map_or(0, |j| j.len()) as f64)
            })
        };
        let done_before = if l.step == Some("execute") {
            ws_complete(&twins.mem_ws, project)
        } else {
            0.0
        };
        let mem_ops = journal(&twins.mem_ws);
        let t = Instant::now();
        let mem = twins.mem.handle(&req);
        let handle = t.elapsed();
        let mem_ops = journal(&twins.mem_ws) - mem_ops;

        let disk_ops = journal(&twins.disk_ws);
        let bytes = tail_bytes(&twins.disk_root.join(project));
        let t = Instant::now();
        let disk = twins.disk.handle(&req);
        let disk_time = t.elapsed();
        let disk_ops = journal(&twins.disk_ws) - disk_ops;
        let bytes = tail_bytes(&twins.disk_root.join(project)) - bytes;

        for twin in [&mem, &disk] {
            let same =
                twin.status == l.status && digest(&String::from_utf8_lossy(&twin.body)) == l.digest;
            rec.check(same, || {
                format!("{method} {path}: HTTP answer differs from the direct twin")
            });
        }
        let Some(step) = l.step else { continue };
        rec.layer(step, "serve.parse", parse);
        rec.layer(step, "serve.handle", handle);
        rec.layer(step, "metadata.store", disk_time.saturating_sub(handle));
        if step == "replan" {
            rec.count("replan_requests", 1.0);
        }
        if l.first {
            if step == "replan" {
                rec.count("journal_ops", mem_ops);
                rec.count("replans", 1.0);
            }
            if step == "execute" {
                rec.count("redo_done", done_before);
                rec.count("redo_executed", l.executed);
            }
            rec.count("disk_ops", disk_ops);
            rec.count("tail_bytes", bytes);
        }
    }
}

/// `executed N activities` from a run body.
fn executed(body: &str) -> Option<f64> {
    body.split("executed ")
        .nth(1)?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// `X` of `finished day X` in a run body.
fn finished(body: &str) -> Option<String> {
    Some(
        body.split("finished day ")
            .nth(1)?
            .split_whitespace()
            .next()?
            .to_owned(),
    )
}

fn ws_complete(ws: &Workspace, project: &str) -> f64 {
    ws.project(project)
        .map_or(0.0, |p| p.read(|h| h.status().complete_count() as f64))
}

/// Bytes in a persistent project's journal-tail files.
fn tail_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("tail-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len() as f64)
        .sum()
}

/// The same journey as a slot's, by direct calls on an in-memory
/// workspace (mirroring what each endpoint calls): its final status
/// body and simulated finish.
fn direct_journey(source: &str, seed: u64) -> Result<(String, f64), String> {
    let ws = Workspace::in_memory();
    let schema = parse_schema(source).map_err(|e| e.to_string())?;
    let p = ws
        .create_project(
            "direct",
            schema,
            ToolLibrary::standard(),
            Team::of_size(TEAM),
            seed,
        )
        .map_err(|e| e.to_string())?;
    let mut finish = f64::NAN;
    p.update(|h| -> Result<(), hercules::HerculesError> {
        h.plan(TARGET)?;
        for round in 1..=ROUNDS {
            let next = format!("d{}", SLICE * round.div_ceil(3));
            h.replan(TARGET)?;
            h.replan(&next)?;
            if round.is_multiple_of(3) {
                let policy = h.execution_policy();
                let cluster = h.cluster().cloned();
                h.plan(&next)?;
                finish = h
                    .execute_with(&next, policy, cluster.as_ref())?
                    .finished_at()
                    .days();
            }
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok((p.read(serve::status_body), finish))
}

/// A scratch directory inside the working directory (the checkout).
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".journeybench").join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(".journeybench");
}

fn start(dir: &Path) -> Server {
    let ws = Arc::new(Workspace::persistent(dir.join("live")));
    let config = ServerConfig {
        workers: 2,
        session_latency: Duration::ZERO,
        ..ServerConfig::default()
    };
    Server::start(ws, config).expect("bind a localhost port")
}

pub fn served_mix(seed: u64, seconds: f64, traced: bool) -> Run {
    let source = examples::pipeline(STAGES).to_source();
    // Set-up: start the server on a fresh root and warm it with one
    // whole journey; `SETUPS` times, the median is reported.
    let mut setups = Vec::new();
    let mut live: Option<(Server, PathBuf)> = None;
    for i in 0..SETUPS {
        if let Some((server, dir)) = live.take() {
            Server::shutdown(server);
            cleanup(&dir);
        }
        let t = Instant::now();
        let dir = scratch(&format!("setup{i}"));
        let server = start(&dir);
        let mut warm = ClientThread {
            client: Client::new(server.addr()),
            source: &source,
            log: None,
            rec: Rec::default(),
        };
        let mut slot = Slot {
            id: 99,
            seed: slot_seed(0, 99),
            ..Slot::default()
        };
        warm.begin(&mut slot);
        while slot.name.is_some() {
            warm.round(&mut slot);
        }
        setups.push(t.elapsed().as_secs_f64());
        live = Some((server, dir));
    }
    let (server, dir) = live.expect("set up at least once");
    let coalesced = Metrics::counter("serve.replan.coalesced");
    let (coalesced0, hits0, calls0) = (
        coalesced.get(),
        Metrics::counter("hercules.plan.cache_hits").get(),
        Metrics::counter("hercules.plan.calls").get(),
    );
    let mut slots: Vec<Slot> = (0..CLIENTS * SLOTS_PER_CLIENT)
        .map(|id| Slot {
            id,
            seed: slot_seed(seed, id),
            ..Slot::default()
        })
        .collect();
    let addr = server.addr();
    let begun = Instant::now();
    let deadline = begun + Duration::from_secs_f64(seconds);
    let (mut rec, logs) = std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks_mut(SLOTS_PER_CLIENT)
            .map(|mine| {
                let source = &source;
                scope.spawn(move || {
                    let mut d = ClientThread {
                        client: Client::new(addr),
                        source,
                        log: traced.then(Vec::new),
                        rec: Rec::default(),
                    };
                    d.drive(mine, deadline);
                    (d.rec, d.log)
                })
            })
            .collect();
        let mut rec = Rec::default();
        let mut logs = Vec::new();
        for h in handles {
            let (r, log) = h.join().expect("client thread");
            rec.merge(r);
            logs.extend(log);
        }
        (rec, logs)
    });
    let wall = begun.elapsed().as_secs_f64();
    rec.count("coalesced", (coalesced.get() - coalesced0) as f64);
    rec.count(
        "plan_hits",
        (Metrics::counter("hercules.plan.cache_hits").get() - hits0) as f64,
    );
    rec.count(
        "plan_calls",
        (Metrics::counter("hercules.plan.calls").get() - calls0) as f64,
    );
    Server::shutdown(server);
    if traced {
        let disk_root = dir.join("twin");
        let mem_ws = Arc::new(Workspace::in_memory());
        let disk_ws = Arc::new(Workspace::persistent(&disk_root));
        let twins = Twins {
            mem: Api::new(Arc::clone(&mem_ws), ApiConfig::default()),
            disk: Api::new(Arc::clone(&disk_ws), ApiConfig::default()),
            mem_ws,
            disk_ws,
            disk_root,
        };
        for log in &logs {
            replay(&twins, &addr.to_string(), log, &mut rec);
        }
    }
    cleanup(&dir);

    // HTTP ≡ direct: every journey of a slot ends in the status and
    // finish its direct replay produces.
    let mut finishes = Vec::new();
    let mut journeys = 0;
    for slot in &slots {
        journeys += slot.journeys;
        match direct_journey(&source, slot.seed) {
            Ok((status, finish)) => {
                for (body, days) in slot.finals.iter().zip(&slot.finishes) {
                    rec.check(*body == status, || {
                        format!(
                            "slot {}: final HTTP status differs from the direct run",
                            slot.id
                        )
                    });
                    let direct = WorkDays::new(finish).to_string();
                    rec.check(*days == direct, || {
                        format!(
                            "slot {}: finish {days} differs from direct {direct}",
                            slot.id
                        )
                    });
                }
                finishes.push(finish);
            }
            Err(e) => rec.fail(format!("slot {}: direct replay failed: {e}", slot.id)),
        }
    }
    Run {
        rec,
        setups,
        wall_s: Some(wall),
        makespan_days: finishes.iter().sum::<f64>() / finishes.len().max(1) as f64,
        journeys,
    }
}
