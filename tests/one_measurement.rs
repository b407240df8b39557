//! One measurement per pass. With metrics and tracing both on, each
//! pass of `compile_with_report` has one `PassTiming.ns`, one stage
//! histogram sample and one trace span, and all three hold the same
//! nanoseconds exactly: they are the pipeline runner's one span, read
//! from two clock reads, not three timers that roughly agree.

use natoms::arch::Grid;
use natoms::benchmarks::Benchmark;
use natoms::compiler::{compile_with_report, CompilerConfig};
use natoms::telemetry::{self as tel, trace};

#[test]
fn pass_report_metrics_and_trace_are_one_measurement() {
    tel::set_enabled(true);
    trace::set_enabled(true);
    tel::reset();
    trace::reset();
    let (_, report) = compile_with_report(
        &Benchmark::Bv.generate(20, 0),
        &Grid::new(10, 10),
        &CompilerConfig::new(3.0),
    )
    .expect("compiles");
    let snapshot = tel::snapshot();
    let events = trace::take_events();
    tel::set_enabled(false);
    trace::set_enabled(false);
    tel::reset();
    trace::reset();

    let names: Vec<&str> = report.passes.iter().map(|p| p.pass.as_str()).collect();
    assert_eq!(
        names,
        [
            "lower",
            "validate_arity",
            "place",
            "route_schedule",
            "verify",
            "finalize"
        ]
    );
    for row in &report.passes {
        let stage = snapshot
            .stage(&row.pass)
            .unwrap_or_else(|| panic!("no {} stage in the snapshot", row.pass));
        assert_eq!(stage.count, 1, "{}: one sample per compile", row.pass);
        assert_eq!(stage.total_ns, row.ns, "{}: histogram vs report", row.pass);

        let span: Vec<&trace::TraceEvent> = events.iter().filter(|e| e.name == row.pass).collect();
        assert_eq!(span.len(), 2, "{}: one begin/end pair", row.pass);
        let (begin, end) = (span[0], span[1]);
        assert_eq!(
            (begin.phase, end.phase),
            (trace::Phase::Begin, trace::Phase::End)
        );
        assert_eq!((begin.cat, begin.id), ("pass", end.id));
        assert_eq!(
            end.ts_ns - begin.ts_ns,
            row.ns,
            "{}: trace vs report",
            row.pass
        );
    }
    assert_eq!(report.total_ns, report.passes.iter().map(|p| p.ns).sum());
}
