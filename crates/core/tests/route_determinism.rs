//! Satellite 4 — routing determinism. Decisions are pure functions of
//! (featurizer, policy, query): rebuilding a router from the same seeds
//! and replaying the same workload must reproduce every decision bit
//! for bit, and a whole fleet replay must reproduce every estimate —
//! the property the CI routing drill and calibration rely on.

use std::collections::HashSet;
use std::sync::Arc;

use uae_core::{
    BackendChoice, ResMadeConfig, RouteConfig, RoutedFleet, Router, TrainConfig, Uae, UaeConfig,
};
use uae_data::{kddcup_like, Table};
use uae_estimators::{HistogramEstimator, SpnConfig, SpnEstimator};
use uae_query::{generate_workload, CardEstimator, LabeledQuery, Query, WorkloadSpec};

fn wide_table() -> Table {
    // 32 columns ≥ the default wide_table threshold (30): the regime
    // where the threshold policy actually routes.
    kddcup_like(1500, 32, 4242)
}

fn workload(t: &Table, n: usize, qseed: u64) -> Vec<LabeledQuery> {
    generate_workload(t, &WorkloadSpec::random(n, qseed), &HashSet::new())
}

/// The default config with a correlation threshold low enough that
/// queries touching a same-latent-group column pair (e.g. f000/f001)
/// count as correlated → primary, while the typical random query's
/// touched pairs stay independent → routed. Both paths get exercised.
fn test_cfg() -> RouteConfig {
    RouteConfig { high_corr: 0.05, ..RouteConfig::default() }
}

/// Queries pinned to the correlated pair (columns 0 and 1 share a
/// group latent), guaranteeing some `Primary` decisions.
fn correlated_queries() -> Vec<Query> {
    use uae_query::Predicate;
    (0..4).map(|k| Query::new(vec![Predicate::le(0, k), Predicate::le(1, k + 1)])).collect()
}

fn quick_uae(t: &Table) -> Uae {
    let cfg = UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed: 7 },
        train: TrainConfig { batch_size: 128, ..TrainConfig::default() },
        estimate_samples: 32,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(t, cfg);
    uae.train_data(1);
    uae
}

fn backends(t: &Table) -> Vec<Arc<dyn CardEstimator>> {
    vec![
        Arc::new(HistogramEstimator::new(t, 16)),
        Arc::new(SpnEstimator::new(t, &SpnConfig::default())),
    ]
}

/// Two independently constructed threshold routers over the same table
/// and config agree on every decision, and replaying the same workload
/// through one router is bit-identical.
#[test]
fn threshold_decisions_replay_identically() {
    let t = wide_table();
    let mut queries: Vec<Query> = workload(&t, 60, 11).into_iter().map(|lq| lq.query).collect();
    queries.extend(correlated_queries());

    let a = Router::threshold(&t, backends(&t), test_cfg());
    let b = Router::threshold(&t, backends(&t), test_cfg());

    let da = a.decide_batch(&queries);
    let db = b.decide_batch(&queries);
    assert_eq!(da, db, "independently built routers must agree");
    assert_eq!(da, a.decide_batch(&queries), "replay on one router must be identical");

    // The drill is only meaningful if both paths are actually taken.
    assert!(da.iter().any(|d| d.choice == BackendChoice::Primary), "no primary decision");
    assert!(
        da.iter().any(|d| matches!(d.choice, BackendChoice::Backend(_))),
        "no routed decision — the threshold never fired on the wide table"
    );
}

/// A predicate on a column the table does not have never panics the
/// router: featurization drops it (as `QueryRegion::build` does), so the
/// decision equals the one for the same query without it. The typed
/// unknown-column error is the estimate path's job, not the router's.
#[test]
fn unknown_column_predicates_are_ignored_by_decide() {
    use uae_query::Predicate;
    let t = wide_table();
    let router = Router::threshold(&t, backends(&t), test_cfg());
    let unknown = Predicate::eq(t.num_cols() + 7, 1i64);
    let mut queries: Vec<Query> = workload(&t, 12, 29).into_iter().map(|lq| lq.query).collect();
    queries.extend(correlated_queries());
    queries.push(Query::default());
    for (i, q) in queries.iter().enumerate() {
        let mut with_unknown = q.clone();
        with_unknown.predicates.push(unknown.clone());
        assert_eq!(
            router.decide(&with_unknown),
            router.decide(q),
            "query {i}: an unknown-column predicate changed the route decision"
        );
    }
}

/// Calibration is deterministic: two routers calibrated from cloned
/// primaries (clones reseed the estimation RNG identically) on the same
/// holdout produce identical policies, witnessed over a probe workload.
#[test]
fn calibrated_policies_are_reproducible() {
    let t = wide_table();
    let uae = quick_uae(&t);
    let holdout = workload(&t, 48, 17);
    let probe: Vec<Query> = workload(&t, 40, 23).into_iter().map(|lq| lq.query).collect();

    let a = Router::calibrate(&t, &uae.clone(), backends(&t), &holdout, RouteConfig::default());
    let b = Router::calibrate(&t, &uae.clone(), backends(&t), &holdout, RouteConfig::default());

    assert_eq!(a.policy(), b.policy(), "same seeds + holdout ⇒ same calibrated policy");
    assert_eq!(a.decide_batch(&probe), b.decide_batch(&probe));
}

/// End-to-end fleet replay: two fleets over cloned primaries and the
/// same router serve the whole workload bit-identically — the primary's
/// RNG stream advances only for the queries routed to it, so identical
/// decisions imply identical streams.
#[test]
fn fleet_serves_bit_identically_on_replay() {
    let t = wide_table();
    let uae = quick_uae(&t);
    let mut queries: Vec<Query> = workload(&t, 30, 29).into_iter().map(|lq| lq.query).collect();
    queries.extend(correlated_queries());
    let router = Arc::new(Router::threshold(&t, backends(&t), test_cfg()));

    let fleet_a = RoutedFleet::new(Arc::new(uae.clone()), router.clone());
    let fleet_b = RoutedFleet::new(Arc::new(uae.clone()), router);

    let ra = fleet_a.try_estimate_cards(&queries);
    let rb = fleet_b.try_estimate_cards(&queries);
    assert_eq!(ra, rb, "fleet replies must replay bit-identically");
    assert_eq!(fleet_a.serve_stats(), fleet_b.serve_stats());
    assert!(fleet_a.serve_stats().routed > 0, "the replay must exercise the routed path");
    assert!(
        fleet_a.primary().serve_stats().served > 0,
        "correlated shapes must still reach the primary"
    );
}
