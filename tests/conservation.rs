//! Conservation and sanity invariants that must hold for EVERY
//! configuration: transactions and updates are neither lost nor double
//! counted, CPU time adds up, and all fractions stay in range.

use strip::core::config::{Policy, QueuePolicy, SimConfig, StalenessDef};
use strip::core::controller::Controller;
use strip::run_paper_sim;
use strip::sim::{Engine, SimTime};
use strip::workload::generators::{PoissonTxns, UpdateStream};
use strip::RunReport;

fn check_invariants(r: &RunReport, label: &str) {
    // Transaction conservation.
    assert_eq!(
        r.txns.finished() + r.txns.in_flight_at_end,
        r.txns.arrived,
        "{label}: txn conservation {:?}",
        r.txns
    );
    assert!(r.txns.committed_fresh <= r.txns.committed, "{label}");
    assert!(r.txns.stale_reads <= r.txns.view_reads, "{label}");
    // Update conservation: every arrival ends in exactly one bucket.
    assert_eq!(
        r.updates.terminal_total(),
        r.updates.arrived,
        "{label}: update conservation {:?}",
        r.updates
    );
    // CPU time adds up.
    let util = r.cpu.utilization();
    assert!((0.0..=1.0 + 1e-9).contains(&util), "{label}: util {util}");
    assert!(r.cpu.busy_txn >= 0.0 && r.cpu.busy_update >= 0.0, "{label}");
    // Fractions in range.
    for (name, v) in [
        ("pMD", r.txns.p_md()),
        ("psuccess", r.txns.p_success()),
        ("psuc|nontardy", r.txns.p_suc_nontardy()),
        ("fold_low", r.fold_low),
        ("fold_high", r.fold_high),
    ] {
        assert!(
            (0.0..=1.0 + 1e-9).contains(&v),
            "{label}: {name} out of range: {v}"
        );
    }
    // psuccess can never exceed the commit rate.
    assert!(r.txns.p_success() <= 1.0 - r.txns.p_md() + 1e-9, "{label}");
    assert!(r.av() >= 0.0, "{label}");
}

fn base(policy: Policy, seed: u64) -> SimConfig {
    SimConfig::builder()
        .policy(policy)
        .duration(60.0)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn invariants_hold_across_policies_and_loads() {
    for policy in Policy::PAPER_SET {
        for lambda_t in [2.0, 10.0, 25.0] {
            let mut cfg = base(policy, 0xC0FFEE);
            cfg.lambda_t = lambda_t;
            let r = run_paper_sim(&cfg);
            check_invariants(&r, &format!("{policy:?}/lt={lambda_t}"));
        }
    }
}

#[test]
fn invariants_hold_with_aborts_and_uu() {
    for policy in Policy::PAPER_SET {
        let mut cfg = base(policy, 0xDADA);
        cfg.abort_on_stale = true;
        cfg.lambda_t = 15.0;
        check_invariants(&run_paper_sim(&cfg), &format!("{policy:?}/abort"));

        let mut cfg = base(policy, 0xDADA);
        cfg.staleness = StalenessDef::UnappliedUpdate;
        cfg.lambda_t = 12.0;
        check_invariants(&run_paper_sim(&cfg), &format!("{policy:?}/uu"));
    }
}

#[test]
fn invariants_hold_under_stress_knobs() {
    // Tiny queues, heavy costs, LIFO, indexed queue, preemption, fixed
    // fraction — the corners where accounting bugs hide.
    let mut cfg = base(Policy::TransactionsFirst, 1);
    cfg.uq_max = 8;
    cfg.os_max = 4;
    cfg.lambda_t = 20.0;
    check_invariants(&run_paper_sim(&cfg), "tiny-queues");

    let mut cfg = base(Policy::OnDemand, 2);
    cfg.costs.x_scan = 5_000.0;
    cfg.costs.x_queue = 2_000.0;
    cfg.costs.x_switch = 10_000.0;
    cfg.lambda_t = 15.0;
    check_invariants(&run_paper_sim(&cfg), "heavy-costs");

    let mut cfg = base(Policy::SplitUpdates, 3);
    cfg.queue_policy = QueuePolicy::Lifo;
    cfg.indexed_queue = true;
    cfg.lambda_t = 18.0;
    check_invariants(&run_paper_sim(&cfg), "lifo-indexed");

    let mut cfg = base(Policy::FixedFraction { fraction: 0.3 }, 4);
    cfg.lambda_t = 15.0;
    check_invariants(&run_paper_sim(&cfg), "fixed-fraction");

    let mut cfg = base(Policy::TransactionsFirst, 5);
    cfg.txn_preemption = true;
    cfg.lambda_t = 15.0;
    check_invariants(&run_paper_sim(&cfg), "txn-preemption");

    let mut cfg = base(Policy::UpdatesFirst, 6);
    cfg.costs.x_switch = 5_000.0;
    cfg.lambda_t = 10.0;
    check_invariants(&run_paper_sim(&cfg), "uf-switch-cost");

    let mut cfg = base(Policy::OnDemand, 7);
    cfg.warmup = 10.0;
    cfg.lambda_t = 10.0;
    let r = run_paper_sim(&cfg);
    // Warm-up breaks exact conservation (gated counters) but fractions and
    // CPU identities must still hold.
    assert!(r.cpu.measured_secs == 50.0);
    assert!(r.cpu.utilization() <= 1.0 + 1e-9);
    assert!((0.0..=1.0).contains(&r.fold_low));
}

#[test]
fn od_update_cut_off_by_a_deadline_is_accounted_for() {
    // A heavy install cost makes OD's on-demand apply slices long enough
    // for transactions to miss their deadlines mid-apply; the update they
    // took from the queue must land in its own terminal bucket.
    let mut cfg = base(Policy::OnDemand, 7);
    cfg.duration = 200.0;
    cfg.lambda_t = 10.0;
    cfg.costs.x_update = 2e6;
    let r = run_paper_sim(&cfg);
    assert!(r.updates.od_abandoned > 0, "{:?}", r.updates);
    check_invariants(&r, "od-deadline-mid-apply");
}

#[test]
fn a_figure_3_point_never_grows_the_calendar() {
    // UF at λt = 5 installs nearly every arrival, and each install arms
    // an MA watchdog: about 2,900 events are pending at the peak.
    let cfg = SimConfig::builder()
        .policy(Policy::UpdatesFirst)
        .lambda_t(5.0)
        .seed(1)
        .build()
        .unwrap();
    let mut controller = Controller::new(
        cfg.clone(),
        UpdateStream::from_config(&cfg),
        PoissonTxns::from_config(&cfg),
    );
    let mut engine = Engine::with_capacity(cfg.calendar_capacity_hint());
    let reserved = engine.calendar_capacity();
    controller.prime(&mut engine);
    engine.run_until(&mut controller, SimTime::from_secs(cfg.duration));
    assert_eq!(engine.calendar_capacity(), reserved);
}

#[test]
fn determinism_same_seed_same_report() {
    for policy in [Policy::OnDemand, Policy::SplitUpdates] {
        let cfg = base(policy, 99);
        let a = run_paper_sim(&cfg);
        let b = run_paper_sim(&cfg);
        assert_eq!(a, b, "{policy:?} not deterministic");
    }
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let mut avs = Vec::new();
    for seed in 0..4 {
        let mut cfg = base(Policy::OnDemand, seed);
        cfg.lambda_t = 10.0;
        let r = run_paper_sim(&cfg);
        avs.push(r.av());
    }
    // Seeds differ...
    assert!(avs.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    // ...but estimate the same quantity.
    let mean: f64 = avs.iter().sum::<f64>() / avs.len() as f64;
    for av in &avs {
        assert!((av - mean).abs() / mean < 0.1, "AV {av} vs mean {mean}");
    }
}
