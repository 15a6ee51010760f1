//! Differential test of the stroke rasterizer against a serial per-pixel
//! reference.
//!
//! `rasterize_strokes` walks each segment over its own grown bounding box
//! and folds distances into a per-pixel minimum. The reference below is
//! the per-pixel form it replaced: for every pixel, the minimum distance
//! over the segments whose box holds the pixel centre, then the
//! anti-aliasing ramp. Both must give the same pixels on random stroke
//! sets, including dots, zero-length segments, points far outside the
//! canvas, thin and thick strokes, large shifts and rotations, and
//! non-square canvases.

use std::cell::Cell;

use nc_dataset::image::{pt, rasterize_strokes, Jitter, Point};
use nc_substrate::check::check_cases;
use nc_substrate::fixed::sat_u8_round;
use nc_substrate::rng::SplitMix64;

/// The generator's glyph-to-pixel map: rotate and scale about the glyph
/// centre, map into the canvas with a 12% margin, then translate.
fn apply(jitter: Jitter, points: &[Point], width: f64, height: f64) -> Vec<Point> {
    let (sin, cos) = jitter.rotation.sin_cos();
    points
        .iter()
        .map(|p| {
            let dx = (p.x - 0.5) * jitter.scale;
            let dy = (p.y - 0.5) * jitter.scale;
            let rx = 0.5 + dx * cos - dy * sin;
            let ry = 0.5 + dx * sin + dy * cos;
            let margin = 0.12;
            pt(
                (margin + rx * (1.0 - 2.0 * margin)) * width + jitter.shift_x,
                (margin + ry * (1.0 - 2.0 * margin)) * height + jitter.shift_y,
            )
        })
        .collect()
}

fn dist_to_segment(px: f64, py: f64, a: Point, b: Point) -> f64 {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len2 = abx * abx + aby * aby;
    let t = if len2 <= f64::EPSILON {
        0.0
    } else {
        (((px - a.x) * abx + (py - a.y) * aby) / len2).clamp(0.0, 1.0)
    };
    let qx = a.x + t * abx;
    let qy = a.y + t * aby;
    ((px - qx).powi(2) + (py - qy).powi(2)).sqrt()
}

/// Serial reference: every pixel takes the minimum distance over the
/// segments whose box, grown by `half + 2`, holds its centre.
fn reference(
    width: usize,
    height: usize,
    strokes: &[Vec<Point>],
    thickness: f64,
    jitter: Jitter,
) -> Vec<u8> {
    let half = thickness / 2.0;
    let reach = half + 2.0;
    let mut segments = Vec::new();
    for stroke in strokes {
        let mapped = apply(jitter, stroke, width as f64, height as f64);
        segments.extend(mapped.windows(2).map(|p| (p[0], p[1])));
        if let [dot] = mapped[..] {
            segments.push((dot, dot));
        }
    }
    let mut pixels = Vec::with_capacity(width * height);
    for y in 0..height {
        let py = y as f64 + 0.5;
        for x in 0..width {
            let px = x as f64 + 0.5;
            let mut best = f64::INFINITY;
            for &(a, b) in &segments {
                let inside_x = a.x.min(b.x) - reach <= px && px <= a.x.max(b.x) + reach;
                let inside_y = a.y.min(b.y) - reach <= py && py <= a.y.max(b.y) + reach;
                if inside_x && inside_y {
                    best = best.min(dist_to_segment(px, py, a, b));
                }
            }
            let lum = if best <= half {
                1.0
            } else if best <= half + 1.0 {
                1.0 - (best - half)
            } else {
                0.0
            };
            pixels.push(sat_u8_round(lum * 255.0));
        }
    }
    pixels
}

/// A glyph-space point: mostly on the canvas, sometimes far outside it.
fn random_point(rng: &mut SplitMix64) -> Point {
    if rng.next_below(8) == 0 {
        pt(rng.next_range(-30.0, 30.0), rng.next_range(-30.0, 30.0))
    } else {
        pt(rng.next_range(-0.2, 1.2), rng.next_range(-0.2, 1.2))
    }
}

/// 1–15 points; a repeated point makes a zero-length segment, and a
/// single point is a dot.
fn random_stroke(rng: &mut SplitMix64) -> Vec<Point> {
    let n = 1 + rng.next_below(15) as usize;
    let mut stroke: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let repeat = rng.next_below(6) == 0;
        match stroke.last() {
            Some(&last) if repeat => stroke.push(last),
            _ => stroke.push(random_point(rng)),
        }
    }
    stroke
}

#[test]
fn segment_walk_matches_the_per_pixel_reference() {
    const SIZES: [(usize, usize); 4] = [(1, 1), (5, 31), (40, 17), (28, 28)];
    let lit = Cell::new(0);
    check_cases(0x5EC7_0A57, 400, |case, rng| {
        let (width, height) = SIZES[(case % 4) as usize];
        let strokes: Vec<Vec<Point>> = (0..1 + rng.next_below(6))
            .map(|_| random_stroke(rng))
            .collect();
        let thickness = if rng.next_below(4) == 0 {
            0.8
        } else {
            rng.next_range(0.8, 6.0)
        };
        let jitter = Jitter {
            rotation: rng.next_range(-3.2, 3.2),
            scale: rng.next_range(0.3, 2.0),
            shift_x: rng.next_range(-20.0, 20.0),
            shift_y: rng.next_range(-20.0, 20.0),
        };
        let got = rasterize_strokes(width, height, &strokes, thickness, jitter);
        let want = reference(width, height, &strokes, thickness, jitter);
        assert_eq!(got.pixels(), &want[..], "case {case}: {width}x{height}");
        lit.set(lit.get() + u32::from(want.iter().any(|&p| p > 0)));
    });
    // Most cases must draw something, or equal pixels would prove little.
    assert!(
        lit.get() > 200,
        "only {} of 400 cases lit a pixel",
        lit.get()
    );
}

#[test]
fn generator_strokes_match_the_per_pixel_reference() {
    // The digit generator's own regime: glyph-sized strokes on 28×28,
    // thickness around 2.2 and the hard difficulty's jitter.
    check_cases(0xD161_7A57, 200, |case, rng| {
        let strokes: Vec<Vec<Point>> = (0..1 + rng.next_below(2))
            .map(|_| {
                (0..2 + rng.next_below(12))
                    .map(|_| pt(rng.next_range(0.0, 1.0), rng.next_range(0.0, 1.0)))
                    .collect()
            })
            .collect();
        let thickness = rng.next_range(1.3, 3.1);
        let jitter = Jitter::sample(rng, 2.5, 0.35, 0.18);
        let got = rasterize_strokes(28, 28, &strokes, thickness, jitter);
        let want = reference(28, 28, &strokes, thickness, jitter);
        assert_eq!(got.pixels(), &want[..], "case {case}");
    });
}
