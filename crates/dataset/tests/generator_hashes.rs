//! Pins the synthetic generators bit for bit.
//!
//! Every experiment, golden snapshot and benchmark starts from these
//! images, so a rasterizer or blur rewrite must leave every pixel and
//! label unchanged. Each split is folded into one 64-bit FNV-1a hash;
//! the constants below were computed from the original, unoptimized
//! generators.

use nc_dataset::digits::DigitsSpec;
use nc_dataset::shapes::ShapesSpec;
use nc_dataset::spoken::SpokenSpec;
use nc_dataset::{Dataset, Difficulty};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over every sample's pixels followed by its label (as a
/// little-endian u64), in dataset order.
fn hash(data: &Dataset) -> u64 {
    data.iter().fold(FNV_OFFSET, |h, s| {
        let h = fnv1a(h, &s.pixels);
        fnv1a(h, &(s.label as u64).to_le_bytes())
    })
}

fn hashes((train, test): (Dataset, Dataset)) -> [u64; 2] {
    [hash(&train), hash(&test)]
}

const SEEDS: [u64; 3] = [1, 7, 0xD161_7350];

#[test]
fn digit_splits_are_pinned() {
    let expected: [(&str, [[u64; 2]; 3]); 2] = [
        (
            "default",
            [
                [0x0A49_73F1_5E91_2607, 0x3863_2697_961A_1F48],
                [0x4E96_E6FF_CB94_86F5, 0xBFC9_29D5_98D8_2D8A],
                [0x41A1_0E69_B5E2_221B, 0x8F19_6B4B_F687_899D],
            ],
        ),
        (
            "hard",
            [
                [0x4396_A030_6F79_2F1F, 0xCCC0_35FA_6C70_7E39],
                [0xB4C2_8A3E_F848_9973, 0xC905_DE67_CA72_DC18],
                [0x56FB_2776_6084_173A, 0x0C73_65EB_D52F_D83D],
            ],
        ),
    ];
    for ((name, want), difficulty) in expected
        .into_iter()
        .zip([Difficulty::default(), Difficulty::hard()])
    {
        for (seed, want) in SEEDS.into_iter().zip(want) {
            let got = hashes(
                DigitsSpec {
                    train: 400,
                    test: 100,
                    seed,
                    difficulty,
                }
                .generate(),
            );
            assert_eq!(got, want, "digits, {name} difficulty, seed {seed}");
        }
    }
}

#[test]
fn shape_splits_are_pinned() {
    let expected: [[u64; 2]; 2] = [
        [0x23BC_A948_30E3_0A24, 0x3335_2173_3748_EFC1],
        [0xE785_379B_9BDC_BA21, 0x7689_83A1_E062_5766],
    ];
    for (difficulty, want) in [Difficulty::default(), Difficulty::hard()]
        .into_iter()
        .zip(expected)
    {
        let got = hashes(
            ShapesSpec {
                train: 100,
                test: 30,
                seed: 3,
                difficulty,
            }
            .generate(),
        );
        assert_eq!(got, want, "shapes, {difficulty:?}");
    }
}

#[test]
fn spoken_splits_are_pinned() {
    let expected: [[u64; 2]; 2] = [
        [0x6578_3B2D_B67B_616D, 0x1B95_1972_8940_CA48],
        [0x2778_C899_CCEA_85AF, 0x43E8_2906_E91F_A6BF],
    ];
    for (difficulty, want) in [Difficulty::default(), Difficulty::hard()]
        .into_iter()
        .zip(expected)
    {
        let got = hashes(
            SpokenSpec {
                train: 100,
                test: 30,
                seed: 3,
                difficulty,
            }
            .generate(),
        );
        assert_eq!(got, want, "spoken, {difficulty:?}");
    }
}
