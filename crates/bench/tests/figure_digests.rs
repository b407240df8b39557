//! Golden digests of every figure's output.
//!
//! Recorded from the standalone figure binaries that preceded the
//! figure library (one binary, one engine and one cold compile cache
//! per figure): the FNV-1a digest of each binary's rendered stdout and
//! of its JSON-lines rows. The suite reproduces all figures in one
//! [`reproduce`] call through one engine, so it also pins the output
//! contract of sharing that engine: the tables are byte-identical, and
//! the rows are byte-identical except for `cache_hit`, which may flip
//! to `true` on points an earlier figure already compiled.
//!
//! Two normalisations make the digests reproducible:
//! - `cache_hit` values are masked (only in the shared-engine digests;
//!   [`standalone_figure_rows_match_raw`] checks them raw).
//! - Fig. 12 charges full recompilation at the *measured* compile
//!   time, so its `recompile_time` fields and the `recompile` table
//!   row (whose totals include that time) vary run to run and are
//!   masked. Its fixed-cost `recompile @1.5s` row is still pinned.
//!
//! One digest was re-recorded since: Fig. 12's text, whose closing note
//! now points at the README's "Fig. 12: measured recompile cost"
//! paragraph instead of a file that never existed. Its rows are
//! unchanged.

use na_bench::{reproduce, select, FigureRun, FIGURES};
use na_engine::{write_records, Engine, JsonlSink, RunRecord};

/// `(figure, rendered-text digest, JSONL-rows digest, row count)`.
const GOLDEN: &[(&str, u64, u64, usize)] = &[
    ("fig03", 0x5b00d77de76a518a, 0x1837b216ee2fba9c, 350),
    ("fig04", 0x207d49eed41083d7, 0x1837b216ee2fba9c, 350),
    ("fig05", 0x90f51474936502a3, 0x5ee135ab7961442c, 600),
    ("fig06", 0x9d9fc2008ac2fd57, 0xb3b63464dc2421ba, 182),
    ("fig07", 0x1dc70925f7cb3bfa, 0x949d9f85450490e3, 100),
    ("fig08", 0xcb2248e7b7ffa5ca, 0x2088da62530ec8b2, 1800),
    ("fig10", 0x6d1f8ce2fd057c04, 0x2bb99fd8262b2641, 46),
    ("fig11", 0xf69ff376a3ddb345, 0x7328f196bfe4c9a0, 80),
    ("fig12", 0xfb7eac9a30f391ad, 0x55c7dc571d3eb9df, 33),
    ("fig13", 0xbc2839eed56d30a6, 0x72cb2827eaae7f98, 60),
    ("fig14", 0x36ca69db4667997f, 0xaa5749f53ca11225, 1),
    (
        "ablation_crosstalk",
        0xf0919df37f68a4fc,
        0xb92fb53f7ef02817,
        15,
    ),
    (
        "ablation_lookahead",
        0x6bd6e6ae9168ed41,
        0x45150a6a5b8fd1ea,
        35,
    ),
    (
        "ablation_restriction",
        0x0874b2537390ab5b,
        0x6ddb9ad3e4f0b3b0,
        30,
    ),
    (
        "ext_native_arity",
        0x029b95956ba76a0e,
        0xe316f96955e56ac6,
        60,
    ),
    ("validation_mid1", 0xd9a764ae6007a8d1, 0x5dd9a800358edf1f, 6),
];

/// Digest of Fig. 7's JSONL rows from a standalone run, `cache_hit`
/// included (every `recompile_time` field is masked, as above).
const FIG07_RAW_ROWS: u64 = 0x8f3cc45dbb09355d;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drops Fig. 12's measured-cost `recompile` row.
fn normalise_text(text: &str) -> String {
    text.split_inclusive('\n')
        .filter(|line| {
            let measured = line
                .trim_start()
                .strip_prefix("recompile")
                .is_some_and(|rest| {
                    rest.starts_with(char::is_whitespace)
                        && rest.trim_start().starts_with(|c: char| c.is_ascii_digit())
                });
            !measured
        })
        .collect()
}

/// Replaces the value of every `"key":value` in `line` with `_`,
/// except `null`.
fn mask(line: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(&pattern) {
        let (head, tail) = rest.split_at(at + pattern.len());
        out.push_str(head);
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        out.push_str(if &tail[..end] == "null" { "null" } else { "_" });
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The figure's rows exactly as `natoms reproduce --jsonl` writes
/// them, with `recompile_time` (and, unless `raw_cache_hit`,
/// `cache_hit`) masked.
fn normalised_rows(records: &[RunRecord], raw_cache_hit: bool) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    write_records(records, &mut sink).unwrap();
    let jsonl = String::from_utf8(sink.into_inner()).unwrap();
    jsonl
        .split_inclusive('\n')
        .map(|line| {
            let line = mask(line, "recompile_time");
            if raw_cache_hit {
                line
            } else {
                mask(&line, "cache_hit")
            }
        })
        .collect()
}

#[test]
fn normalisation_masks_only_what_varies() {
    assert_eq!(
        mask(
            r#"{"cache_hit":true,"x":1,"recompile_time":0.5e-3}"#,
            "recompile_time"
        ),
        r#"{"cache_hit":true,"x":1,"recompile_time":_}"#
    );
    assert_eq!(
        mask(r#"{"cache_hit":null,"y":{"cache_hit":false}}"#, "cache_hit"),
        r#"{"cache_hit":null,"y":{"cache_hit":_}}"#
    );
    let table = "  recompile   8.75 (...)\nrecompile @1.5s (paper-era)   383.70\n";
    assert_eq!(
        normalise_text(table),
        "recompile @1.5s (paper-era)   383.70\n"
    );
}

#[test]
fn one_reproduction_matches_every_figure_digest() {
    let engine = Engine::new().verified();
    let figures = select::<&str>(&[]).unwrap();
    let runs: Vec<FigureRun> = reproduce(&engine, &figures).collect();
    let names: Vec<&str> = runs.iter().map(|run| run.name).collect();
    let golden_names: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(names, golden_names, "every figure, in paper order");
    assert_eq!(runs.len(), FIGURES.len());

    let mut mismatches = Vec::new();
    for (run, &(name, text_digest, rows_digest, rows)) in runs.iter().zip(GOLDEN) {
        let text = run
            .rendered
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.records.len(), rows, "{name} row count");
        let got_text = fnv1a(normalise_text(text).as_bytes());
        let got_rows = fnv1a(normalised_rows(&run.records, false).as_bytes());
        if (got_text, got_rows) != (text_digest, rows_digest) {
            mismatches.push(format!(
                "{name}: text {got_text:#018x} (want {text_digest:#018x}), \
                 rows {got_rows:#018x} (want {rows_digest:#018x})"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));

    // Fig. 4 sweeps exactly Fig. 3's compile points: one engine
    // compiles them once, so every Fig. 4 row is a cache hit.
    let fig04 = &runs[1];
    assert_eq!(fig04.name, "fig04");
    assert!(fig04.records.iter().all(|r| r.cache_hit == Some(true)));
    // Fig. 3 ran first on a cold cache: its first row compiled.
    assert_eq!(runs[0].records[0].cache_hit, Some(false));
}

#[test]
fn standalone_figure_rows_match_raw() {
    let engine = Engine::new().verified();
    let figures = select(&["fig07"]).unwrap();
    let run = reproduce(&engine, &figures).next().unwrap();
    assert!(run.rendered.is_ok());
    let rows = normalised_rows(&run.records, true);
    assert_eq!(fnv1a(rows.as_bytes()), FIG07_RAW_ROWS);
    // Ten compilations (5 benchmarks × NA/SC) serve all 100 rows.
    let misses = run.records.iter().filter(|r| r.cache_hit == Some(false));
    assert_eq!(misses.count(), 10);
    assert_eq!(engine.cache_stats().misses, 10);
}
