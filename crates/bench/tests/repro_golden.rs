//! Golden pins for the paper's figures and tables: the exact rows every
//! experiment in `sparkxd_bench::experiments` returns. The shape smoke
//! tests beside each experiment only check that a run produces rows; these
//! pins catch any change to *what* the rows are, so a refactor of the
//! energy model, the BER curve, the circuit solver, the DRAM replay or the
//! SNN engine cannot move a reproduced number unnoticed.
//!
//! Each pin is a 64-bit FNV-1a hash over the experiment's rows rendered
//! with `Debug`: every `f64` prints in its shortest round-trip form, so
//! the text is a function of each value's `to_bits` (only NaN payloads
//! collapse) and any one-ulp change moves the hash.
//!
//! The model-only experiments run at the paper's inputs. The trained ones
//! (Figs. 1a, 8 and 11) run at [`reduced`] scale so the suite stays a few
//! seconds long; their seed is `repro_all`'s.

use sparkxd_bench::experiments as ex;
use sparkxd_bench::Scale;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The seed `repro_all` passes to every experiment.
const SEED: u64 = 42;

fn pin<T: std::fmt::Debug>(rows: &T) -> u64 {
    format!("{rows:?}").bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// A scale small enough for tier-1 that still trains two sizes, so Fig. 8
/// has a middle entry and Fig. 11 has more than one panel per dataset.
fn reduced() -> Scale {
    Scale {
        label: "reduced",
        network_sizes: vec![20, 40],
        train_samples: 60,
        test_samples: 30,
        baseline_epochs: 2,
        epochs_per_rate: 1,
        timesteps: 30,
        eval_trials: 1,
    }
}

#[test]
fn table1_is_pinned() {
    let rows = (ex::table1::run(), ex::table1::run_storage(SEED));
    assert_eq!(pin(&rows), 0x8533_5e90_f596_6f5c);
}

#[test]
fn fig01a_is_pinned() {
    assert_eq!(
        pin(&ex::fig01a::run(&reduced(), SEED)),
        0xa636_06e9_0551_1e6d
    );
}

#[test]
fn fig01b_is_pinned() {
    assert_eq!(pin(&ex::fig01b::run()), 0x0b7b_aafa_62f8_cf00);
}

#[test]
fn fig02a_is_pinned() {
    assert_eq!(pin(&ex::fig02a::run(SEED)), 0x9f9b_3dfb_084d_e7f6);
}

#[test]
fn fig02b_is_pinned() {
    assert_eq!(pin(&ex::fig02b::run()), 0xf943_e466_ddc8_5719);
}

#[test]
fn fig02c_is_pinned() {
    assert_eq!(pin(&ex::fig02c::run()), 0xb53b_b50a_43a5_6d8d);
}

#[test]
fn fig02d_is_pinned() {
    assert_eq!(pin(&ex::fig02d::run()), 0x43da_fb44_c397_20bf);
}

#[test]
fn fig06_is_pinned() {
    assert_eq!(pin(&ex::fig06::run()), 0x2b8c_eb0a_87b2_9e52);
}

#[test]
fn fig08_is_pinned() {
    assert_eq!(
        pin(&ex::fig08::run(&reduced(), SEED)),
        0x6cab_e604_6959_7e69
    );
}

#[test]
fn fig11_is_pinned() {
    assert_eq!(
        pin(&ex::fig11::run(&reduced(), SEED)),
        0x1953_9687_ad90_9236
    );
}

#[test]
fn fig12_is_pinned() {
    assert_eq!(pin(&ex::fig12::run(SEED)), 0x6ced_78ea_8bb8_e823);
}
