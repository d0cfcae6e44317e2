//! Property tests for the per-activity run index.
//!
//! `runs_of`, `actual_start`, `last_duration`, `duration_history` and
//! the iteration number `begin_run` assigns all read the index instead
//! of scanning every run. Over random run sequences — interleaved
//! activities, out-of-order start times, some runs left unfinished —
//! each must equal its linear-scan definition over `runs()`, on the
//! live database, on `MetadataDb::load(dump)` and on journal recovery.

use harness::prelude::*;
use metadata::{MetadataDb, Run};
use schedule::WorkDays;
use schema::examples;

/// One run: which activity, when it starts, and how long it takes
/// (`None`: left unfinished).
#[derive(Debug, Clone)]
struct RunOp {
    activity: usize,
    start: u16,
    duration: Option<u16>,
}

fn arb_run() -> impl Strategy<Value = RunOp> {
    (0usize..9, any_u16(), any_u16()).prop_map(|(activity, start, d)| RunOp {
        activity,
        start,
        duration: (d % 4 != 0).then_some(d),
    })
}

fn session(ops: &[RunOp]) -> (MetadataDb, Vec<String>) {
    let schema = examples::asic_flow();
    let activities: Vec<String> = schema
        .rules()
        .iter()
        .map(|r| r.activity().to_owned())
        .collect();
    let mut db = MetadataDb::for_schema(&schema);
    db.enable_journal();
    for op in ops {
        let rule = &schema.rules()[op.activity];
        let start = f64::from(op.start) / 100.0;
        let run = db
            .begin_run(rule.activity(), "alice", WorkDays::new(start))
            .expect("known activity");
        if let Some(d) = op.duration {
            let data = db.store_data("out.dat", vec![1]);
            let end = start + f64::from(d) / 100.0;
            db.finish_run(run, rule.output(), data, WorkDays::new(end), &[])
                .expect("valid finish");
        }
    }
    (db, activities)
}

/// Checks every indexed query of `db` against its linear definition.
fn check_against_scan(db: &MetadataDb, activities: &[String]) {
    let runs = db.runs();
    for (k, run) in runs.iter().enumerate() {
        let earlier = runs[..k]
            .iter()
            .filter(|r| r.activity() == run.activity())
            .count();
        prop_assert_eq!(run.iteration() as usize, earlier + 1);
    }
    for activity in activities.iter().map(String::as_str).chain(["ghost"]) {
        let scan: Vec<&Run> = runs.iter().filter(|r| r.activity() == activity).collect();
        let ids = |rs: &[&Run]| rs.iter().map(|r| r.id()).collect::<Vec<_>>();
        prop_assert_eq!(ids(&db.runs_of(activity)), ids(&scan));
        let start = scan
            .iter()
            .map(|r| r.started_at())
            .min_by(|a, b| a.days().total_cmp(&b.days()));
        prop_assert_eq!(db.actual_start(activity), start);
        let history: Vec<WorkDays> = scan.iter().filter_map(|r| r.duration()).collect();
        prop_assert_eq!(db.duration_history(activity), history.clone());
        // No completion links here: the latest finished run's duration.
        prop_assert_eq!(db.last_duration(activity), history.last().copied());
    }
}

harness::props! {
    config(cases = 64);

    fn run_index_matches_linear_scan(ops in vec(arb_run(), 0..40)) {
        let (db, activities) = session(&ops);
        check_against_scan(&db, &activities);

        let loaded = MetadataDb::load(&db.dump()).expect("dump loads");
        prop_assert_eq!(loaded.dump(), db.dump());
        check_against_scan(&loaded, &activities);

        let recovered =
            MetadataDb::recover(db.journal().expect("journal enabled")).expect("full replay");
        prop_assert_eq!(recovered.dump(), db.dump());
        check_against_scan(&recovered, &activities);
    }
}
