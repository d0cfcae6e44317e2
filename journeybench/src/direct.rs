//! The two in-process workloads: `replan_loop` (planning kernels) and
//! `exec_cluster` (engine dispatch). Both drive `hercules::Workspace`
//! directly, with no server and no disk.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hercules::policy::{Dispatch, DispatchContext, SchedulingPolicy};
use hercules::{ExecutionPolicy, ExecutionReport, Hercules, Project, RetryPolicy, Workspace};
use metadata::MetadataDb;
use schedule::gantt::GanttOptions;
use schedule::{
    level_resources, ActivityId, IncrementalCpm, Resource, ResourcePool, ScheduleNetwork, WorkDays,
};
use schema::{examples, TaskSchema};
use simtools::cluster::Cluster;
use simtools::rng::{mix, SplitMix64};
use simtools::workload::Team;
use simtools::{FaultPlan, ToolLibrary};

use crate::stats::Rec;
use crate::{Run, SETUPS};

/// A scheduling-policy decorator that times and counts the engine's
/// calls into the policy layer, forwarding everything else.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy + Send>,
    busy: Duration,
    selects: u64,
    ready: u64,
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &DispatchContext<'_>) -> Dispatch {
        let t = Instant::now();
        let d = self.inner.select(ctx);
        self.busy += t.elapsed();
        self.selects += 1;
        self.ready += ctx.ready.len() as u64;
        d
    }

    fn needs_schedule_metrics(&self) -> bool {
        self.inner.needs_schedule_metrics()
    }
}

/// The benchmark's own copy of a planning pass's network, kept across
/// passes the way the program keeps its plan cache, so the traced run
/// can time the CPM layer on the same hit/miss path.
struct Shadow {
    scope: Vec<String>,
    net: ScheduleNetwork,
    ids: HashMap<String, ActivityId>,
    inc: IncrementalCpm,
}

/// One journey in progress: the project, its recorder, and (traced runs)
/// the shadow planning state.
struct Journey<'a> {
    project: Arc<Project>,
    target: &'static str,
    rec: &'a mut Rec,
    traced: bool,
    shadow: Option<Shadow>,
}

impl Journey<'_> {
    fn journal_len(&self) -> f64 {
        self.project
            .read(|h| h.db().journal().map_or(0, |j| j.len()) as f64)
    }

    fn plan(&mut self) {
        let target = self.target;
        let r = self
            .rec
            .time("plan", || self.project.update(|h| h.plan(target)));
        match r {
            Ok(_) => self.attribute_plan("plan", false),
            Err(e) => self.rec.fail(format!("plan {target}: {e}")),
        }
    }

    /// A replan, optionally after a what-if estimate change; returns
    /// how many activities were replanned.
    fn replan(&mut self, step: &'static str, what_if: Option<(String, f64)>) -> usize {
        let target = self.target;
        let before = if self.traced { self.journal_len() } else { 0.0 };
        let r = self.rec.time(step, || {
            self.project.update(|h| {
                if let Some((activity, days)) = &what_if {
                    h.set_estimate(activity, WorkDays::new(*days))?;
                }
                h.replan(target)
            })
        });
        match r {
            Ok(outcome) => {
                if self.traced {
                    let ops = self.journal_len() - before;
                    self.rec.count("journal_ops", ops);
                    self.rec.count("replans", 1.0);
                    self.attribute_plan(step, true);
                }
                outcome.len()
            }
            Err(e) => {
                self.rec.fail(format!("{step} {target}: {e}"));
                usize::MAX
            }
        }
    }

    /// Times, outside the operation just measured, the public calls its
    /// planning pass makes into each layer: tree extraction (twice for a
    /// replan, which extracts once itself and once in its planning
    /// pass), duration estimates over the scope, the CPM network build
    /// or incremental update, and resource levelling.
    fn attribute_plan(&mut self, step: &'static str, replan: bool) {
        if !self.traced {
            return;
        }
        let target = self.target;
        let mut shadow = self.shadow.take();
        let rec = &mut *self.rec;
        self.project.read(|h| {
            let t = Instant::now();
            let tree = h
                .extract_task_tree(target)
                .expect("target was just planned");
            let mut extract = t.elapsed();
            let scope: Vec<String> = tree
                .activities()
                .iter()
                .filter(|a| !replan || !h.db().current_plan(a).is_some_and(|p| p.is_complete()))
                .cloned()
                .collect();
            if scope.is_empty() {
                rec.layer(step, "core.task.extract", extract);
                return;
            }
            if replan {
                let t = Instant::now();
                black_box(h.extract_task_tree(target).expect("extracted above"));
                extract += t.elapsed();
            }
            rec.layer(step, "core.task.extract", extract);

            let t = Instant::now();
            let estimates: Vec<WorkDays> = scope
                .iter()
                .map(|a| h.duration_estimate(a).expect("activity in scope"))
                .collect();
            rec.layer(step, "core.estimate", t.elapsed());

            let t = Instant::now();
            let s = match shadow.take().filter(|s| s.scope == scope) {
                Some(mut s) => {
                    let mut dirty = Vec::new();
                    for (a, e) in scope.iter().zip(&estimates) {
                        let id = s.ids[a.as_str()];
                        if (e.days() - s.net.duration(id).days()).abs() > 1e-12 {
                            s.net.set_duration(id, *e).expect("valid duration");
                            dirty.push(id);
                        }
                    }
                    s.inc.update(&s.net, &dirty).expect("ids from this network");
                    s
                }
                None => build_shadow(h, &tree, scope, &estimates),
            };
            rec.layer(step, "schedule.cpm", t.elapsed());

            let mut pool = ResourcePool::new();
            for designer in h.team().iter() {
                pool.add(Resource::new(designer, 1));
            }
            let t = Instant::now();
            black_box(level_resources(&s.net, &pool).expect("demands name team members"));
            rec.layer(step, "schedule.level", t.elapsed());
            shadow = Some(s);
        });
        self.shadow = shadow;
    }

    fn execute(&mut self, target: &str) -> Option<ExecutionReport> {
        let traced = self.traced;
        let (r, timed) = self.rec.time("execute", || {
            self.project.update(|h| {
                if !traced {
                    return (h.execute(target), None);
                }
                let mut policy = TimedPolicy {
                    inner: h.execution_policy().build(),
                    busy: Duration::ZERO,
                    selects: 0,
                    ready: 0,
                };
                let cluster = h.cluster().cloned();
                let r = h.execute_with_policy(target, &mut policy, cluster.as_ref());
                (r, Some(policy))
            })
        });
        if let Some(p) = timed {
            self.rec.layer("execute", "core.policy.select", p.busy);
            self.rec.count("selects", p.selects as f64);
            self.rec.count("ready", p.ready as f64);
        }
        match r {
            Ok(report) => {
                if traced {
                    self.rec.count(
                        "attempts",
                        f64::from(report.total_runs() + report.total_fault_attempts()),
                    );
                    self.rec
                        .count("activities", report.activities().len() as f64);
                }
                self.rec.check(report.all_converged(), || {
                    format!("execute {target}: not every activity converged")
                });
                Some(report)
            }
            Err(e) => {
                self.rec.fail(format!("execute {target}: {e}"));
                None
            }
        }
    }

    /// Status as a user sees it: the status body plus the Fig. 8 Gantt
    /// chart. Returns the complete-activity count.
    fn status(&mut self) -> usize {
        let (complete, render) = self.rec.time("status", || {
            self.project.read(|h| {
                let t = Instant::now();
                let body = serve::status_body(h);
                let status = h.status();
                let gantt = status.gantt(&GanttOptions::default());
                let render = t.elapsed();
                black_box((body, gantt));
                (status.complete_count(), render)
            })
        });
        if self.traced {
            self.rec.layer("status", "core.status.render", render);
        }
        complete
    }

    fn export(&mut self) -> String {
        let (dump, d) = self.rec.time("export", || {
            self.project.read(|h| {
                let t = Instant::now();
                let dump = h.db().dump();
                (dump, t.elapsed())
            })
        });
        if self.traced {
            self.rec.layer("export", "metadata.dump", d);
            self.rec.count("dump_bytes", dump.len() as f64);
            self.rec.count("dumps", 1.0);
        }
        dump
    }
}

/// The network a cache-missing planning pass builds: estimated
/// durations, precedence from the task tree, one round-robin designer
/// demand per activity; then the initial incremental CPM.
fn build_shadow(
    h: &Hercules,
    tree: &hercules::TaskTree,
    scope: Vec<String>,
    estimates: &[WorkDays],
) -> Shadow {
    let mut net = ScheduleNetwork::new();
    let mut ids = HashMap::new();
    for (a, e) in scope.iter().zip(estimates) {
        ids.insert(a.clone(), net.add_activity(a.clone(), *e).expect("unique"));
    }
    for a in &scope {
        for consumer in tree.consumers_of_output(a) {
            if let Some(&c) = ids.get(consumer) {
                net.add_precedence(ids[a.as_str()], c).expect("acyclic");
            }
        }
    }
    for (k, a) in scope.iter().enumerate() {
        net.add_demand(ids[a.as_str()], h.team().assignee(k), 1)
            .expect("known activity");
    }
    let inc = net.analyze_incremental().expect("acyclic");
    Shadow {
        scope,
        net,
        ids,
        inc,
    }
}

/// Per-variant results a run checks every repetition against.
#[derive(Default)]
struct Seen {
    /// Ordered, so the makespan sums in the same order every run.
    finish: BTreeMap<u64, f64>,
    dump: HashMap<u64, String>,
}

impl Seen {
    /// Records the variant's makespan, failing on any repetition that
    /// disagrees with the first.
    fn finish(&mut self, rec: &mut Rec, variant: u64, days: f64) {
        let first = *self.finish.entry(variant).or_insert(days);
        rec.check(first.to_bits() == days.to_bits(), || {
            format!("variant {variant}: makespan {days} differs from {first}")
        });
    }

    fn makespan(&self) -> f64 {
        self.finish.values().sum::<f64>() / self.finish.len().max(1) as f64
    }
}

/// The run's journeys: `variants` distinct ones, cycled. Every figure
/// that depends on the seed (makespan, exact counts) is a function of
/// this fixed set, never of how many journeys fit in the measured time.
struct Plan {
    seed: u64,
    variants: u64,
    /// Journeys of the set-up's warm-up, on seeds that do not depend on
    /// `--seed`, so set-up time measures the system, not the inputs.
    warmup: u64,
}

/// A journey: `(workspace, project name, variant, variant seed,
/// recorder, seen, traced)`.
type JourneyFn<'a> = dyn FnMut(&Workspace, &str, u64, u64, &mut Rec, &mut Seen, bool) + 'a;

/// One set-up: a fresh workspace plus the warm-up journeys. Returns
/// the workspace and the seconds it took.
fn set_up(plan: &Plan, journey: &mut JourneyFn<'_>) -> (Workspace, f64) {
    let mut warm = Rec::default();
    let t = Instant::now();
    let ws = Workspace::in_memory();
    for i in 0..plan.warmup {
        journey(
            &ws,
            &format!("warmup{i}"),
            i,
            variant_seed(0, i),
            &mut warm,
            &mut Seen::default(),
            false,
        );
    }
    (ws, t.elapsed().as_secs_f64())
}

/// Sets up until `setups` holds `due` set-up times, at most [`SETUPS`].
fn set_up_until(plan: &Plan, journey: &mut JourneyFn<'_>, setups: &mut Vec<f64>, due: usize) {
    while setups.len() < due.min(SETUPS) {
        setups.push(set_up(plan, journey).1);
    }
}

/// The shared run loop: set up, then journeys over the variants until
/// `seconds` have passed, always finishing whole cycles. The run sets up
/// [`SETUPS`] times and reports the median. The host's speed drifts by
/// tens of percent over seconds to minutes while set-ups agree within a
/// few percent of each other, so an untraced run spreads its later
/// set-ups over the measured phase rather than timing one moment. (A
/// traced run sets up only before, so that the set-ups' journeys stay
/// out of the counters it diffs.)
fn run_direct(plan: Plan, seconds: f64, traced: bool, journey: &mut JourneyFn<'_>) -> Run {
    let (ws, first) = set_up(&plan, journey);
    let mut setups = vec![first];
    if traced {
        set_up_until(&plan, journey, &mut setups, SETUPS);
    }
    let hits = obs::Metrics::counter("hercules.plan.cache_hits");
    let calls = obs::Metrics::counter("hercules.plan.calls");
    let (hits0, calls0) = (hits.get(), calls.get());
    let mut rec = Rec::default();
    let mut seen = Seen::default();
    let start = Instant::now();
    let mut n = 0u64;
    while !n.is_multiple_of(plan.variants) || start.elapsed().as_secs_f64() < seconds {
        let elapsed = start.elapsed().as_secs_f64();
        let due = 1 + (elapsed / seconds * SETUPS as f64) as usize;
        set_up_until(&plan, journey, &mut setups, due);
        let v = n % plan.variants;
        journey(
            &ws,
            &format!("j{n}"),
            v,
            variant_seed(plan.seed, v),
            &mut rec,
            &mut seen,
            traced,
        );
        n += 1;
    }
    set_up_until(&plan, journey, &mut setups, SETUPS);
    let plan_calls = (calls.get() - calls0) as f64;
    rec.count("plan_hits", (hits.get() - hits0) as f64);
    rec.count("plan_calls", plan_calls);
    Run {
        rec,
        setups,
        wall_s: None,
        makespan_days: seen.makespan(),
        journeys: n,
    }
}

/// Seeds of the run's variants: the project seed and a script seed.
fn variant_seed(seed: u64, variant: u64) -> u64 {
    mix(&[seed, variant])
}

/// `replan_loop`: pipeline(200), team of 4. Execute ten stages at a
/// time; after each slice replan, try two what-if estimates (the
/// plan-cache hit path), and read status; export at the end.
pub fn replan_loop(seed: u64, seconds: f64, traced: bool) -> Run {
    const STAGES: usize = 200;
    const SLICE: usize = 10;
    let schema = examples::pipeline(STAGES);
    let finish_target = "d200";
    let mut journey =
        |ws: &Workspace, name: &str, v: u64, s: u64, rec: &mut Rec, seen: &mut Seen, traced| {
            let project = match rec.time("create", || {
                ws.create_project(
                    name,
                    schema.clone(),
                    ToolLibrary::standard(),
                    Team::of_size(4),
                    s,
                )
            }) {
                Ok(p) => p,
                Err(e) => return rec.fail(format!("create {name}: {e}")),
            };
            let mut rng = SplitMix64::new(s ^ 0x5eed);
            let mut j = Journey {
                project,
                target: finish_target,
                rec,
                traced,
                shadow: None,
            };
            j.plan();
            let mut finished = 0.0;
            let mut last_replan = usize::MAX;
            for done in (SLICE..=STAGES).step_by(SLICE) {
                if let Some(report) = j.execute(&format!("d{done}")) {
                    finished = report.finished_at().days();
                }
                last_replan = j.replan("replan", None);
                if done < STAGES {
                    for _ in 0..2 {
                        let stage = done + 1 + rng.next_below((STAGES - done) as u64) as usize;
                        let days = 0.5 + 3.0 * rng.next_f64();
                        j.replan("whatif", Some((format!("Stage{stage}"), days)));
                    }
                }
                j.status();
            }
            j.rec.check(last_replan == 0, || {
                format!("{name}: final replan touched {last_replan} activities")
            });
            let complete = j.project.read(|h| h.status().complete_count());
            j.rec.check(complete == STAGES, || {
                format!("{name}: {complete} of {STAGES} stages complete")
            });
            let dump = j.export();
            check_export(j.rec, seen, v, dump);
            seen.finish(j.rec, v, finished);
            let _ = ws.remove_project(name);
        };
    let plan = Plan {
        seed,
        variants: 8,
        warmup: 1,
    };
    run_direct(plan, seconds, traced, &mut journey)
}

/// The export must load back and re-dump byte-identically; once a
/// variant's dump has passed, its repetitions must equal it.
fn check_export(rec: &mut Rec, seen: &mut Seen, v: u64, dump: String) {
    match seen.dump.get(&v) {
        Some(first) => rec.check(*first == dump, || format!("variant {v}: export differs")),
        None => {
            match MetadataDb::load(&dump) {
                Ok(db) => rec.check(db.dump() == dump, || {
                    format!("variant {v}: export does not re-dump identically")
                }),
                Err(e) => rec.fail(format!("variant {v}: export does not load: {e}")),
            }
            seen.dump.insert(v, dump);
        }
    }
}

/// `exec_cluster`: layered(6,16,3) on a seeded heterogeneous 8-worker
/// cluster with network delay and transient + hang faults, under a
/// policy that cycles with the variant. One plan, one what-if, an
/// export of the proposal, one execution of all 97 activities, a
/// (no-op) replan, status.
pub fn exec_cluster(seed: u64, seconds: f64, traced: bool) -> Run {
    let schema: TaskSchema = examples::layered(6, 16, 3);
    let activities = schema.rules().len();
    let mut journey =
        |ws: &Workspace, name: &str, v: u64, s: u64, rec: &mut Rec, seen: &mut Seen, traced| {
            let policy = ExecutionPolicy::ALL[(v % 4) as usize];
            let project = match rec.time("create", || {
                ws.create_project(
                    name,
                    schema.clone(),
                    ToolLibrary::standard(),
                    Team::of_size(8),
                    s,
                )
            }) {
                Ok(p) => p,
                Err(e) => return rec.fail(format!("create {name}: {e}")),
            };
            project.update(|h| {
                h.set_cluster(Cluster::heterogeneous(8, s).with_network(0.02, 0.01));
                h.set_fault_plan(
                    FaultPlan::seeded(s)
                        .with_corrupt_rate(0.0)
                        .with_persistent_rate(0.0),
                );
                // Transient and hang faults only, with enough retries that
                // every activity converges and the result can be checked.
                h.set_retry_policy(RetryPolicy {
                    max_attempts: 64,
                    activity_budget: WorkDays::new(1e6),
                    ..RetryPolicy::default()
                });
                h.set_execution_policy(policy);
            });
            let mut rng = SplitMix64::new(s ^ 0x5eed);
            let mut j = Journey {
                project,
                target: "merged",
                rec,
                traced,
                shadow: None,
            };
            j.plan();
            let what_if = format!("L{}W{}", rng.next_below(6), rng.next_below(16));
            j.replan("whatif", Some((what_if, 0.5 + 3.0 * rng.next_f64())));
            // Export the proposed schedule for review before running it:
            // the executed project's dump is dominated by tool output data
            // and would drown the dispatch this workload exists to measure.
            black_box(j.export());
            let finished = j.execute("merged").map(|r| r.finished_at().days());
            let replanned = j.replan("replan", None);
            j.rec.check(replanned == 0, || {
                format!("{name}: replan after full execution touched {replanned} activities")
            });
            let complete = j.status();
            j.rec.check(complete == activities, || {
                format!("{name}: {complete} of {activities} activities complete")
            });
            if let Some(days) = finished {
                seen.finish(j.rec, v, days);
            }
            let _ = ws.remove_project(name);
        };
    let plan = Plan {
        seed,
        variants: 512,
        warmup: 16,
    };
    run_direct(plan, seconds, traced, &mut journey)
}
