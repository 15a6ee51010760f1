//! Pins the four input encoders bit for bit.
//!
//! Every presentation, golden snapshot and mesh trace starts from these
//! spike trains, so a rewrite of how the trains are generated or ordered
//! must leave every `(t, input)` event unchanged. Each code's events over
//! a fixed digit set are folded into one 64-bit FNV-1a hash; the
//! constants below were computed from the eager, comparison-sorted
//! encoders.

use nc_dataset::{digits::DigitsSpec, Difficulty};
use nc_faults::{FaultModel, FaultPlan};
use nc_snn::{CodingScheme, SnnParams, SpikeCalendar};
use nc_substrate::rng::SplitMix64;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The `(t, input)` event list through the public entry point that takes
/// a generator fault plan.
fn events(
    scheme: CodingScheme,
    pixels: &[u8],
    params: &SnnParams,
    seed: u64,
    fault: Option<&FaultPlan>,
) -> Vec<(u32, usize)> {
    let mut calendar = SpikeCalendar::default();
    calendar.fill(scheme, pixels, params, seed, fault);
    calendar.events().map(|e| (e.t, e.input)).collect()
}

/// FNV-1a over every image's events (`t` as a little-endian u32, then
/// `input` as a little-endian u64), image `i` encoded with `seed + i`,
/// each image closed by its event count.
fn hash(scheme: CodingScheme, images: &[Vec<u8>], seed: u64, fault: Option<&FaultPlan>) -> u64 {
    let params = SnnParams::tuned(10);
    images
        .iter()
        .enumerate()
        .fold(FNV_OFFSET, |h, (i, pixels)| {
            let train = events(scheme, pixels, &params, seed.wrapping_add(i as u64), fault);
            let h = train.iter().fold(h, |h, &(t, input)| {
                fnv1a(fnv1a(h, &t.to_le_bytes()), &(input as u64).to_le_bytes())
            });
            fnv1a(h, &(train.len() as u64).to_le_bytes())
        })
}

/// 24 digits plus 4 noise images: a noise image has several hundred
/// active pixels, so rank order puts many of them in one millisecond
/// out of input order, and time-to-first-spike repeats latencies.
fn images() -> Vec<Vec<u8>> {
    let (digits, _) = DigitsSpec {
        train: 24,
        test: 0,
        seed: 0x0E4C,
        difficulty: Difficulty::default(),
    }
    .generate();
    let mut rng = SplitMix64::new(0x0015E);
    let noise = (0..4).map(|_| {
        (0..digits.input_dim())
            .map(|_| rng.next_u64().to_le_bytes()[0])
            .collect()
    });
    digits
        .iter()
        .map(|s| s.pixels.clone())
        .chain(noise)
        .collect()
}

const SEEDS: [u64; 3] = [0, 0x9E37_79B9, 0xDEAD_BEEF_0BAD_F00D];

const SCHEMES: [CodingScheme; 4] = [
    CodingScheme::PoissonRate,
    CodingScheme::GaussianRate,
    CodingScheme::RankOrder,
    CodingScheme::TimeToFirstSpike,
];

#[test]
fn healthy_encoders_are_pinned() {
    let want: [[u64; 3]; 4] = [
        [
            0xB103_427D_8BA3_F81C,
            0x6E75_31D1_CC9D_24AB,
            0x8E36_AF6D_BDE8_F5C7,
        ],
        [
            0xB270_EB58_E437_A713,
            0x5A1E_1312_7A23_1B15,
            0x0FDE_0DE6_AC43_9703,
        ],
        // The temporal codes are deterministic and ignore the seed.
        [0x4643_E6B7_5DD5_DE14; 3],
        [0xD03F_FB6A_480F_8770; 3],
    ];
    let data = images();
    for (scheme, want) in SCHEMES.into_iter().zip(want) {
        let got = SEEDS.map(|seed| hash(scheme, &data, seed, None));
        assert_eq!(got, want, "{scheme:?}");
    }
}

#[test]
fn stuck_tap_rate_encoders_are_pinned() {
    let want: [[u64; 3]; 2] = [
        [
            0x7589_55A8_4324_2B9C,
            0x8FE1_BA64_5EB8_1CF4,
            0x2F8F_F63A_B2A2_DB78,
        ],
        [
            0x9870_91F0_BFA9_84F3,
            0x359F_F148_E977_CB8C,
            0xF98C_B826_8E11_B776,
        ],
    ];
    let plan = FaultPlan::new(FaultModel::StuckLfsrTap, 0.5, 0x7A9).expect("valid plan");
    let data = images();
    for (scheme, want) in [CodingScheme::PoissonRate, CodingScheme::GaussianRate]
        .into_iter()
        .zip(want)
    {
        let got = SEEDS.map(|seed| hash(scheme, &data, seed, Some(&plan)));
        assert_eq!(got, want, "{scheme:?}");
        let healthy = SEEDS.map(|seed| hash(scheme, &data, seed, None));
        assert_ne!(
            got, healthy,
            "{scheme:?}: the plan must degrade some generator"
        );
    }
}
