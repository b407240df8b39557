//! A verified engine checks each schedule once per compile key, inside
//! the compile pipeline: cache hits are never re-verified, and every
//! task that compiles through the cache — campaigns and sharded
//! campaigns included — gets a verified schedule.
//!
//! Its own test binary, because it turns process-global metrics on.

use na_arch::Grid;
use na_benchmarks::Benchmark;
use na_core::CompilerConfig;
use na_engine::{Engine, ExperimentSpec, LossSpec, Task};
use na_loss::{CampaignConfig, ShotTarget, Strategy};
use na_noise::NoiseParams;

#[test]
fn verified_engine_verifies_once_per_compile_key() {
    let mut spec = ExperimentSpec::new("verify-once", Grid::new(8, 8));
    let cfg = CompilerConfig::new(3.0);
    let params = NoiseParams::neutral_atom(1e-3);
    // Repeated compile points: the second Compile and the Success row
    // share the first row's key.
    spec.push(Benchmark::Bv, 10, 0, cfg, Task::Compile);
    spec.push(Benchmark::Bv, 10, 0, cfg, Task::Compile);
    spec.push(Benchmark::Bv, 10, 0, cfg, Task::Success { params });
    spec.push(Benchmark::Cnu, 9, 0, cfg, Task::Compile);
    let campaign = CampaignConfig::new(4.0, Strategy::CompileSmall)
        .with_target(ShotTarget::Attempts(10))
        .with_seed(1);
    spec.push(
        Benchmark::Bv,
        10,
        0,
        CompilerConfig::new(4.0),
        Task::Campaign {
            config: campaign,
            loss: LossSpec::new(1),
        },
    );
    spec.push(
        Benchmark::Cuccaro,
        10,
        0,
        CompilerConfig::new(4.0),
        Task::ShardedCampaign {
            config: campaign,
            loss: LossSpec::new(2),
            shards: 2,
        },
    );

    na_telemetry::set_enabled(true);
    na_telemetry::reset();
    let engine = Engine::with_workers(2).verified();
    // The second run is served entirely from the cache.
    engine.run(&spec);
    let records = engine.run(&spec);
    let snapshot = na_telemetry::snapshot();
    na_telemetry::set_enabled(false);
    na_telemetry::reset();

    let stats = engine.cache_stats();
    assert!(stats.hits > stats.misses, "{stats:?}");
    let compiles = snapshot.counter("compiles");
    assert!(compiles > 0);
    let verified = snapshot.stage("verify").map_or(0, |s| s.count);
    assert_eq!(
        verified, compiles,
        "one verify sample per compile, none per cache hit"
    );

    for record in &records {
        assert!(!record.outcome.is_failed(), "row {}", record.id);
        let report = record
            .pass_report
            .as_ref()
            .unwrap_or_else(|| panic!("row {} ({}) has no pass report", record.id, record.task));
        let verify = report
            .passes
            .iter()
            .find(|p| p.pass == "verify")
            .expect("the pipeline has a verify pass");
        assert!(
            verify.stats.get("ops_checked").is_some_and(|&n| n > 0),
            "row {} ({}): {:?}",
            record.id,
            record.task,
            verify.stats
        );
        assert!(!verify.stats.contains_key("skipped"));
    }
    let tasks: Vec<&str> = records.iter().map(|r| r.task.as_str()).collect();
    assert!(tasks.contains(&"campaign") && tasks.contains(&"campaign_sharded"));
}
