//! Golden-determinism regression tests for the scheduler.
//!
//! The flat-index hot-path overhaul (cached interaction graph, flat
//! `QubitMap`, allocation-free scheduler loop) carries a byte-identical
//! output contract: every schedule must match the seed scheduler
//! exactly. These digests were recorded by compiling the full
//! benchmark suite with the pre-overhaul scheduler (commit `9afc909`)
//! through [`na_core::schedule_digest`]; any scheduling change — an
//! altered tie-break, a float reassociation in the lookahead weights,
//! a reordered neighbor scan — flips a digest here.
//!
//! MID 1 runs with multiqubit gates lowered (native Toffolis are
//! unroutable below MID √2), exactly like the paper's MID sweeps.

use na_arch::Grid;
use na_benchmarks::Benchmark;
use na_circuit::{Circuit, Qubit};
use na_core::{compile, schedule_digest, verify, CompilerConfig};

/// `(benchmark, size budget, mid, digest)` recorded from the seed.
const GOLDEN: &[(Benchmark, u32, f64, u64)] = &[
    (Benchmark::Bv, 16, 1.0, 0x7df59c60db3bd29f),
    (Benchmark::Bv, 16, 2.0, 0xd0150d297baa6b99),
    (Benchmark::Bv, 16, 3.0, 0xe794c672a80920e6),
    (Benchmark::Bv, 40, 1.0, 0xf54506c420673ecd),
    (Benchmark::Bv, 40, 2.0, 0x7f6aae5d87962a1b),
    (Benchmark::Bv, 40, 3.0, 0xc9a15ecfb224e23b),
    (Benchmark::Cnu, 16, 1.0, 0x96610748cd8898fa),
    (Benchmark::Cnu, 16, 2.0, 0x3b966816e2db770a),
    (Benchmark::Cnu, 16, 3.0, 0x3b966816e2db770a),
    (Benchmark::Cnu, 40, 1.0, 0xd6639ca7f87622f7),
    (Benchmark::Cnu, 40, 2.0, 0xc4fa7ef20019b501),
    (Benchmark::Cnu, 40, 3.0, 0x9df9b7069f8f8db1),
    (Benchmark::Cuccaro, 16, 1.0, 0xc90eb83fc6833f50),
    (Benchmark::Cuccaro, 16, 2.0, 0xa98397414e1d554e),
    (Benchmark::Cuccaro, 16, 3.0, 0xa98397414e1d554e),
    (Benchmark::Cuccaro, 40, 1.0, 0x3d670aa8f2ae1dd6),
    (Benchmark::Cuccaro, 40, 2.0, 0xedfe8804fa07d6cb),
    (Benchmark::Cuccaro, 40, 3.0, 0xd54d23ef567ebbfb),
    (Benchmark::QftAdder, 16, 1.0, 0xa235fb82cf15ac1e),
    (Benchmark::QftAdder, 16, 2.0, 0x604e596f2cb66bd8),
    (Benchmark::QftAdder, 16, 3.0, 0x07588b1ba263869e),
    (Benchmark::QftAdder, 40, 1.0, 0x6ecdbcd893efc955),
    (Benchmark::QftAdder, 40, 2.0, 0xb760a4e382bee4db),
    (Benchmark::QftAdder, 40, 3.0, 0x64059fbff532afb0),
    (Benchmark::Qaoa, 16, 1.0, 0xffc672924970e1c8),
    (Benchmark::Qaoa, 16, 2.0, 0x977fa2b828bb90e8),
    (Benchmark::Qaoa, 16, 3.0, 0xf07da54c163df4dc),
    (Benchmark::Qaoa, 40, 1.0, 0xb45847682de66719),
    (Benchmark::Qaoa, 40, 2.0, 0x01ba0db8112a204a),
    (Benchmark::Qaoa, 40, 3.0, 0x93bba2347032a3c8),
];

/// `(lookahead_depth, benchmark, size budget, mid, digest)`: the
/// [`GOLDEN`] families at the lookahead-window extremes — an empty
/// window beyond the frontier (0), the tightest non-empty ones (1, 3)
/// and an unbounded one (`usize::MAX`, where far layers underflow
/// `e^{-ℓ}` to 0.0 but still list their partners). Recorded with the
/// whole-circuit weight rebuild, before the scheduler moved to
/// incrementally maintained windows, so an off-by-one in the window
/// or its cap flips a digest here.
const GOLDEN_DEPTHS: &[(usize, Benchmark, u32, f64, u64)] = &[
    (0, Benchmark::Bv, 16, 1.0, 0x6e452b0626d8f735),
    (0, Benchmark::Bv, 16, 2.0, 0xbfb6d75f75154aa7),
    (0, Benchmark::Bv, 16, 3.0, 0xbfb5adfca9be2536),
    (0, Benchmark::Bv, 40, 1.0, 0x0aa13615c7fc923c),
    (0, Benchmark::Bv, 40, 2.0, 0x3601129993d83923),
    (0, Benchmark::Bv, 40, 3.0, 0x8cb4c6877d80219a),
    (0, Benchmark::Cnu, 16, 1.0, 0x795cb12bf794a307),
    (0, Benchmark::Cnu, 16, 2.0, 0x47f2f7d65164ee0c),
    (0, Benchmark::Cnu, 16, 3.0, 0xf7bec22a73ce71e4),
    (0, Benchmark::Cnu, 40, 1.0, 0x73a1f5aabb90988a),
    (0, Benchmark::Cnu, 40, 2.0, 0x96821f1bfb74cbc1),
    (0, Benchmark::Cnu, 40, 3.0, 0x43167ddec5e02ab4),
    (0, Benchmark::Cuccaro, 16, 1.0, 0x4029e0a20bf6f072),
    (0, Benchmark::Cuccaro, 16, 2.0, 0x93f530bcfaa42d02),
    (0, Benchmark::Cuccaro, 16, 3.0, 0xbe8f17bd399a52ad),
    (0, Benchmark::Cuccaro, 40, 1.0, 0x1d28c7dac4fe19c8),
    (0, Benchmark::Cuccaro, 40, 2.0, 0x63ff0c30346926a0),
    (0, Benchmark::Cuccaro, 40, 3.0, 0x56c0531f3eed4b40),
    (0, Benchmark::QftAdder, 16, 1.0, 0xc9ce16858b32bb18),
    (0, Benchmark::QftAdder, 16, 2.0, 0xc035a0a997c93a01),
    (0, Benchmark::QftAdder, 16, 3.0, 0xa19f25bc82dcd0eb),
    (0, Benchmark::QftAdder, 40, 1.0, 0xfecbe16b6c512e2c),
    (0, Benchmark::QftAdder, 40, 2.0, 0x1d0a2af9fe3df071),
    (0, Benchmark::QftAdder, 40, 3.0, 0x76b8f3bf9b6b49e0),
    (0, Benchmark::Qaoa, 16, 1.0, 0x0938e0b0344e1d4d),
    (0, Benchmark::Qaoa, 16, 2.0, 0xf3f323de3116d09a),
    (0, Benchmark::Qaoa, 16, 3.0, 0xaee31fc927fc348e),
    (0, Benchmark::Qaoa, 40, 1.0, 0x7aff2a5f33c86ad9),
    (0, Benchmark::Qaoa, 40, 2.0, 0xa09a10fbaf07902b),
    (0, Benchmark::Qaoa, 40, 3.0, 0x73530c4239744d18),
    (1, Benchmark::Bv, 16, 1.0, 0x5524a29e92d962f1),
    (1, Benchmark::Bv, 16, 2.0, 0x90121c0d494c98bb),
    (1, Benchmark::Bv, 16, 3.0, 0xe29fce1d26dedd03),
    (1, Benchmark::Bv, 40, 1.0, 0xfa0379fb90c31f60),
    (1, Benchmark::Bv, 40, 2.0, 0x4d4c5b443b3fd516),
    (1, Benchmark::Bv, 40, 3.0, 0x609b9d3883538e0e),
    (1, Benchmark::Cnu, 16, 1.0, 0x0b1fdcaef134b3eb),
    (1, Benchmark::Cnu, 16, 2.0, 0x356e660bfd8f6805),
    (1, Benchmark::Cnu, 16, 3.0, 0x8b87d4424c9fdda8),
    (1, Benchmark::Cnu, 40, 1.0, 0x93ae128af47a567d),
    (1, Benchmark::Cnu, 40, 2.0, 0xc4f3a7872fcc3dc1),
    (1, Benchmark::Cnu, 40, 3.0, 0x468a4add07c728c9),
    (1, Benchmark::Cuccaro, 16, 1.0, 0xb0679d2c288787c2),
    (1, Benchmark::Cuccaro, 16, 2.0, 0xd95ffc0a0ccdb777),
    (1, Benchmark::Cuccaro, 16, 3.0, 0xdc3a931bac9ebaa0),
    (1, Benchmark::Cuccaro, 40, 1.0, 0x345271571140bb58),
    (1, Benchmark::Cuccaro, 40, 2.0, 0x9b3d4ce66b8245f6),
    (1, Benchmark::Cuccaro, 40, 3.0, 0x279317f33bc3d3a6),
    (1, Benchmark::QftAdder, 16, 1.0, 0x95089ff61faf9102),
    (1, Benchmark::QftAdder, 16, 2.0, 0x7d7fff764b01621d),
    (1, Benchmark::QftAdder, 16, 3.0, 0x8c8e4c86fd0fe576),
    (1, Benchmark::QftAdder, 40, 1.0, 0xa1ea4335986bbb27),
    (1, Benchmark::QftAdder, 40, 2.0, 0xfebb08728c60f84d),
    (1, Benchmark::QftAdder, 40, 3.0, 0x11c049c5f72414a6),
    (1, Benchmark::Qaoa, 16, 1.0, 0x994a01bcb4c61b1c),
    (1, Benchmark::Qaoa, 16, 2.0, 0x2a066543d158c067),
    (1, Benchmark::Qaoa, 16, 3.0, 0x7eda146ecabf9d0e),
    (1, Benchmark::Qaoa, 40, 1.0, 0xed14a4754df0c839),
    (1, Benchmark::Qaoa, 40, 2.0, 0x4243fcda1f4ec431),
    (1, Benchmark::Qaoa, 40, 3.0, 0xf05f3cefc78a33c1),
    (3, Benchmark::Bv, 16, 1.0, 0x8dc4b3d7d2acf478),
    (3, Benchmark::Bv, 16, 2.0, 0x2f514e04f0c965c5),
    (3, Benchmark::Bv, 16, 3.0, 0x604f1f03182ef2e1),
    (3, Benchmark::Bv, 40, 1.0, 0x4a937cdfa3709a97),
    (3, Benchmark::Bv, 40, 2.0, 0x3d6edea0f565ee7b),
    (3, Benchmark::Bv, 40, 3.0, 0x4c32c726f882007a),
    (3, Benchmark::Cnu, 16, 1.0, 0x86d6614147a19ce2),
    (3, Benchmark::Cnu, 16, 2.0, 0x3b966816e2db770a),
    (3, Benchmark::Cnu, 16, 3.0, 0x3b966816e2db770a),
    (3, Benchmark::Cnu, 40, 1.0, 0xbd368c66d501c890),
    (3, Benchmark::Cnu, 40, 2.0, 0x4f147aa084f73f2e),
    (3, Benchmark::Cnu, 40, 3.0, 0x94eb1fa6d397af86),
    (3, Benchmark::Cuccaro, 16, 1.0, 0x6be2132a6a5b3869),
    (3, Benchmark::Cuccaro, 16, 2.0, 0xd4d5f30bdae93db5),
    (3, Benchmark::Cuccaro, 16, 3.0, 0x47b0a60deb9187e2),
    (3, Benchmark::Cuccaro, 40, 1.0, 0xbede10403f9b6471),
    (3, Benchmark::Cuccaro, 40, 2.0, 0x15c1a55b99e59d8a),
    (3, Benchmark::Cuccaro, 40, 3.0, 0x54d33c08f00eabff),
    (3, Benchmark::QftAdder, 16, 1.0, 0x2c232ff07ffe0593),
    (3, Benchmark::QftAdder, 16, 2.0, 0x75a85ebdec7dfec1),
    (3, Benchmark::QftAdder, 16, 3.0, 0x9b4f4506d0a6bba6),
    (3, Benchmark::QftAdder, 40, 1.0, 0xfd17b2d2ac81f1b1),
    (3, Benchmark::QftAdder, 40, 2.0, 0xd4d236a8345865b1),
    (3, Benchmark::QftAdder, 40, 3.0, 0x331842f377265f52),
    (3, Benchmark::Qaoa, 16, 1.0, 0x5d8198796d6435f9),
    (3, Benchmark::Qaoa, 16, 2.0, 0x2a066543d158c067),
    (3, Benchmark::Qaoa, 16, 3.0, 0x7f9e40cc527aab4c),
    (3, Benchmark::Qaoa, 40, 1.0, 0xf0e66aaa2ce3081f),
    (3, Benchmark::Qaoa, 40, 2.0, 0xd30111c56911410e),
    (3, Benchmark::Qaoa, 40, 3.0, 0x984d931de780267e),
    (usize::MAX, Benchmark::Bv, 16, 1.0, 0x7df59c60db3bd29f),
    (usize::MAX, Benchmark::Bv, 16, 2.0, 0xd0150d297baa6b99),
    (usize::MAX, Benchmark::Bv, 16, 3.0, 0xe794c672a80920e6),
    (usize::MAX, Benchmark::Bv, 40, 1.0, 0x4335dbb687e5ed37),
    (usize::MAX, Benchmark::Bv, 40, 2.0, 0xadd56f9d1072f046),
    (usize::MAX, Benchmark::Bv, 40, 3.0, 0x310e835bca6b4dc4),
    (usize::MAX, Benchmark::Cnu, 16, 1.0, 0x226abb4b0fb061b1),
    (usize::MAX, Benchmark::Cnu, 16, 2.0, 0x3b966816e2db770a),
    (usize::MAX, Benchmark::Cnu, 16, 3.0, 0x3b966816e2db770a),
    (usize::MAX, Benchmark::Cnu, 40, 1.0, 0x08a648e868c2de4f),
    (usize::MAX, Benchmark::Cnu, 40, 2.0, 0xc4fa7ef20019b501),
    (usize::MAX, Benchmark::Cnu, 40, 3.0, 0x9df9b7069f8f8db1),
    (usize::MAX, Benchmark::Cuccaro, 16, 1.0, 0xc71a92ca90fc9069),
    (usize::MAX, Benchmark::Cuccaro, 16, 2.0, 0xa98397414e1d554e),
    (usize::MAX, Benchmark::Cuccaro, 16, 3.0, 0xa98397414e1d554e),
    (usize::MAX, Benchmark::Cuccaro, 40, 1.0, 0xdc6e551dcaae4ef5),
    (usize::MAX, Benchmark::Cuccaro, 40, 2.0, 0xdad6bdec566f7d94),
    (usize::MAX, Benchmark::Cuccaro, 40, 3.0, 0x1de3d262c03258c7),
    (usize::MAX, Benchmark::QftAdder, 16, 1.0, 0xa235fb82cf15ac1e),
    (usize::MAX, Benchmark::QftAdder, 16, 2.0, 0x604e596f2cb66bd8),
    (usize::MAX, Benchmark::QftAdder, 16, 3.0, 0x07588b1ba263869e),
    (usize::MAX, Benchmark::QftAdder, 40, 1.0, 0x90b7da608bae3be3),
    (usize::MAX, Benchmark::QftAdder, 40, 2.0, 0x547fa17c3dbb01c2),
    (usize::MAX, Benchmark::QftAdder, 40, 3.0, 0x8c28757398256ed0),
    (usize::MAX, Benchmark::Qaoa, 16, 1.0, 0xffc672924970e1c8),
    (usize::MAX, Benchmark::Qaoa, 16, 2.0, 0x977fa2b828bb90e8),
    (usize::MAX, Benchmark::Qaoa, 16, 3.0, 0xf07da54c163df4dc),
    (usize::MAX, Benchmark::Qaoa, 40, 1.0, 0x4e6665f30d24e509),
    (usize::MAX, Benchmark::Qaoa, 40, 2.0, 0xbea9863157a1cf9d),
    (usize::MAX, Benchmark::Qaoa, 40, 3.0, 0xb75179d5a8c6c034),
];

/// `(max native arity, qubits, mid, lookahead_depth, digest)` for
/// [`cnx_family`] compiled with native multiqubit gates of arity 4
/// and 5 — gates whose lookahead contributions weight every operand
/// pair. Recorded alongside [`GOLDEN_DEPTHS`].
const GOLDEN_CNX: &[(usize, u32, f64, usize, u64)] = &[
    (4, 24, 2.0, 20, 0x1c36087af43a498b),
    (4, 24, 2.0, 0, 0x4631418536131dbf),
    (4, 24, 2.0, 1, 0xb11daf906b3d7181),
    (4, 24, 2.0, 3, 0x6bf540d9e372b3ff),
    (4, 24, 2.0, usize::MAX, 0x1c36087af43a498b),
    (4, 24, 3.0, 20, 0x52b0b34cd12b0d30),
    (4, 24, 3.0, 0, 0x780fb99f57e1afe5),
    (4, 24, 3.0, 1, 0x3ed3501568530d6c),
    (4, 24, 3.0, 3, 0xfbe7d5db9f85813c),
    (4, 24, 3.0, usize::MAX, 0x52b0b34cd12b0d30),
    (4, 40, 2.0, 20, 0xacda5ff9f150ccde),
    (4, 40, 2.0, 0, 0x4c86e473efd7876a),
    (4, 40, 2.0, 1, 0x6f8c3750fa27cdd9),
    (4, 40, 2.0, 3, 0xbdd16e8b194ae1c3),
    (4, 40, 2.0, usize::MAX, 0x6377a53817fc5583),
    (4, 40, 3.0, 20, 0xd654729b614fb646),
    (4, 40, 3.0, 0, 0xe60630adc87d0bbd),
    (4, 40, 3.0, 1, 0x0cd0049b2063e9a3),
    (4, 40, 3.0, 3, 0xfd410da180642b81),
    (4, 40, 3.0, usize::MAX, 0x86e449b57765d019),
    (5, 24, 3.0, 20, 0x357864e3f8bd8e6e),
    (5, 24, 3.0, 0, 0xb718e6daaef2d03e),
    (5, 24, 3.0, 1, 0xce381a8d4ea84afc),
    (5, 24, 3.0, 3, 0x2d908052f0275131),
    (5, 24, 3.0, usize::MAX, 0x357864e3f8bd8e6e),
    (5, 40, 3.0, 20, 0xd9e5ca124f798180),
    (5, 40, 3.0, 0, 0x5357acc04a2e1f30),
    (5, 40, 3.0, 1, 0x0b771f4b1180ad19),
    (5, 40, 3.0, 3, 0x89c967ea3c8582fe),
    (5, 40, 3.0, usize::MAX, 0x1356d019cf190698),
];

/// A routing-heavy native-multiqubit family: every qubit controls a
/// 4-operand CNX and a long-range CNOT, and every third one a
/// 5-operand CNX, over offsets that scatter the operands.
fn cnx_family(n: u32) -> Circuit {
    let q = |k: u32| Qubit(k % n);
    let mut c = Circuit::new(n);
    for k in 0..n {
        c.cnx(vec![q(k), q(k + 5), q(k + 11)], q(k + 17));
        c.cnot(q(k), q(k + 7));
        if k % 3 == 0 {
            c.cnx(vec![q(k), q(k + 2), q(k + 9), q(k + 13)], q(k + 20));
        }
    }
    c
}

fn config_for(mid: f64) -> CompilerConfig {
    let cfg = CompilerConfig::new(mid);
    if mid * mid < 2.0 {
        cfg.with_native_multiqubit(false)
    } else {
        cfg
    }
}

#[test]
fn schedules_match_seed_scheduler_byte_for_byte() {
    let grid = Grid::new(10, 10);
    for &(benchmark, size, mid, expected) in GOLDEN {
        let circuit = benchmark.generate(size, 0);
        let compiled = compile(&circuit, &grid, &config_for(mid)).expect("compiles");
        assert_eq!(
            schedule_digest(&compiled),
            expected,
            "{benchmark} size {size} at MID {mid} diverged from the seed scheduler"
        );
    }
}

#[test]
fn schedules_match_at_lookahead_depth_extremes() {
    let grid = Grid::new(10, 10);
    for &(depth, benchmark, size, mid, expected) in GOLDEN_DEPTHS {
        let circuit = benchmark.generate(size, 0);
        let cfg = config_for(mid).with_lookahead_depth(depth);
        let compiled = compile(&circuit, &grid, &cfg).expect("compiles");
        assert_eq!(
            schedule_digest(&compiled),
            expected,
            "{benchmark} size {size} at MID {mid}, lookahead depth {depth} diverged"
        );
    }
}

#[test]
fn native_cnx_schedules_match_recorded_digests() {
    let grid = Grid::new(10, 10);
    for &(arity, n, mid, depth, expected) in GOLDEN_CNX {
        let cfg = CompilerConfig::new(mid)
            .with_max_native_arity(arity)
            .with_lookahead_depth(depth);
        let compiled = compile(&cnx_family(n), &grid, &cfg).expect("compiles");
        assert!(
            compiled.ops().iter().any(|op| op.arity() == arity),
            "arity-{arity} gates must stay native"
        );
        assert_eq!(
            schedule_digest(&compiled),
            expected,
            "CNX family n={n} arity {arity} at MID {mid}, lookahead depth {depth} diverged"
        );
        verify(&compiled, &grid).expect("CNX schedule verifies");
    }
}

#[test]
fn golden_schedules_still_verify() {
    // The digests pin the output; this pins its validity, so a stale
    // digest table cannot mask a constraint violation.
    let grid = Grid::new(10, 10);
    for &(benchmark, size, mid, _) in GOLDEN.iter().step_by(5) {
        let circuit = benchmark.generate(size, 0);
        let compiled = compile(&circuit, &grid, &config_for(mid)).expect("compiles");
        verify(&compiled, &grid).expect("golden schedule verifies");
    }
}

#[test]
fn digest_is_sensitive_to_schedule_content() {
    // Same circuit, different MID -> different schedule -> different
    // digest (guards against a digest that ignores its input).
    let grid = Grid::new(10, 10);
    let circuit = Benchmark::Bv.generate(16, 0);
    let a = schedule_digest(&compile(&circuit, &grid, &config_for(1.0)).unwrap());
    let b = schedule_digest(&compile(&circuit, &grid, &config_for(3.0)).unwrap());
    assert_ne!(a, b);
}
