//! Smoke test of the benchmark at reduced size: every workload runs,
//! its error rate is zero, and its output digest is the same at one
//! and two workers, across passes, and in the traced replay.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::{build_input, check_pass, replay, run_pass, Scale, Workload};

#[test]
fn every_workload_runs_clean_with_one_digest_at_any_worker_count() {
    let scale = Scale::smoke();
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let input = build_input(workload, seed, &scale);
            let one = check_pass(&input, &run_pass(&input, 1));
            let two = check_pass(&input, &run_pass(&input, 2));
            let again = check_pass(&input, &run_pass(&input, 2));
            for checked in [&one, &two, &again] {
                assert!(checked.ops > 0, "{}: nothing attempted", workload.name());
                assert_eq!(
                    (checked.failed_ops, &checked.failures),
                    (0, &Vec::<String>::new()),
                    "{} seed {seed}: error rate must be 0",
                    workload.name()
                );
            }
            assert_eq!(
                one.digest,
                two.digest,
                "{}: 1 vs 2 workers",
                workload.name()
            );
            assert_eq!(
                two.digest,
                again.digest,
                "{}: pass to pass",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_replay_reports_every_layer_and_agrees_with_the_engine() {
    let scale = Scale::smoke();
    let mut names: Option<Vec<&str>> = None;
    for workload in Workload::ALL {
        let input = build_input(workload, 1, &scale);
        let traced = replay(&input, true);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(traced.failed_ops, 0);
        let got: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        // Every workload reports the same metric names.
        assert_eq!(names.get_or_insert_with(|| got.clone()), &got);
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map(|m| m.1)
                .expect("metric reported")
        };
        // Self times partition the replay's wall time.
        let wall = value("trace.wall_s");
        let parts = value("trace.layer_sum_s") + value("unexplained_s");
        assert!((wall - parts).abs() < 1e-6 * wall.max(1.0));
        assert!(value("core.compile_s") > 0.0 && value("engine.run_s") > 0.0);
        if workload == Workload::PaperSweep {
            assert_eq!(value("engine.cache_hits"), value("engine.cache_misses"));
        } else {
            assert_eq!(value("loss.shots_attempted"), input.shots as f64);
            assert!(value("loss.shard_s") > 0.0);
        }
        let untraced = replay(&input, false);
        assert!(untraced.metrics.is_empty() && untraced.tracer.spans().is_empty());
    }
}
