//! Greyscale raster images and the stroke/silhouette rasterizer shared by
//! the synthetic generators.
//!
//! Images are stored as row-major `u8` luminance, exactly the 8-bit
//! greyscale format the accelerators consume ("the inputs are usually
//! n-bit values (8-bit values in our case for the pixel luminance)",
//! paper §2.1).

use nc_substrate::fixed::{sat_u8_round, sat_u8_trunc};
use nc_substrate::rng::SplitMix64;

/// A row-major 8-bit greyscale image.
///
/// # Examples
///
/// ```
/// use nc_dataset::image::GreyImage;
/// let mut img = GreyImage::new(4, 4);
/// img.set(1, 2, 200);
/// assert_eq!(img.get(1, 2), 200);
/// assert_eq!(img.pixels().len(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GreyImage {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl GreyImage {
    /// Creates an all-black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        GreyImage {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Luminance at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets the luminance at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = value;
    }

    /// The flattened row-major pixel buffer.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Consumes the image, returning the pixel buffer.
    pub fn into_pixels(self) -> Vec<u8> {
        self.pixels
    }

    /// Adds uniform noise of amplitude `amp` (in `[0,1]` luminance units)
    /// to every pixel, clamping at the 8-bit rails.
    pub fn add_noise(&mut self, amp: f64, rng: &mut SplitMix64) {
        if amp <= 0.0 {
            return;
        }
        for p in &mut self.pixels {
            let delta = rng.next_range(-amp, amp) * 255.0;
            *p = sat_u8_trunc(f64::from(*p) + delta);
        }
    }

    /// 3×3 box blur, used to soften rasterized strokes the way optics and
    /// anti-aliased scans soften MNIST digits. Border pixels average the
    /// neighbours that exist.
    pub fn blur3(&mut self) {
        let w = self.width;
        let mut out = vec![0u8; self.pixels.len()];
        // Interior pixels have all nine neighbours: no clipping needed.
        if w >= 3 && self.height >= 3 {
            let rows = self.pixels.chunks_exact(w);
            let triples = rows.clone().zip(rows.clone().skip(1)).zip(rows.skip(2));
            for (y, ((up, mid), down)) in triples.enumerate() {
                let sums = up.windows(3).zip(mid.windows(3)).zip(down.windows(3));
                let centre = (y + 1) * w + 1;
                for (o, ((a, b), c)) in out[centre..centre + w - 2].iter_mut().zip(sums) {
                    let sum: u32 = a.iter().chain(b).chain(c).map(|&p| u32::from(p)).sum();
                    *o = u8::try_from(sum / 9).unwrap_or(u8::MAX);
                }
            }
        }
        for y in 0..self.height {
            for x in 0..w {
                if x == 0 || y == 0 || x + 1 == w || y + 1 == self.height {
                    out[y * w + x] = self.clipped_mean3(x, y);
                }
            }
        }
        self.pixels = out;
    }

    /// Mean of the 3×3 neighbourhood of `(x, y)` that lies inside the
    /// image.
    fn clipped_mean3(&self, x: usize, y: usize) -> u8 {
        let mut sum = 0u32;
        let mut n = 0u32;
        for ny in y.saturating_sub(1)..(y + 2).min(self.height) {
            for nx in x.saturating_sub(1)..(x + 2).min(self.width) {
                sum += u32::from(self.pixels[ny * self.width + nx]);
                n += 1;
            }
        }
        u8::try_from(sum / n).unwrap_or(u8::MAX)
    }

    /// ASCII-art rendering for debugging and the examples (darker pixels
    /// map to denser glyphs).
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut s = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let lum = usize::from(self.get(x, y));
                let idx = lum * (RAMP.len() - 1) / 255;
                s.push(char::from(RAMP[idx]));
            }
            s.push('\n');
        }
        s
    }
}

/// A 2-D point in normalized glyph coordinates (`[0,1]²`, origin top-left).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal coordinate, 0 = left.
    pub x: f64,
    /// Vertical coordinate, 0 = top.
    pub y: f64,
}

/// Shorthand constructor for [`Point`].
pub const fn pt(x: f64, y: f64) -> Point {
    Point { x, y }
}

/// An affine jitter transform applied to glyph coordinates before
/// rasterization: rotate about the glyph center, scale, then translate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Rotation angle in radians.
    pub rotation: f64,
    /// Isotropic scale factor.
    pub scale: f64,
    /// Translation in pixels (applied after mapping to pixel space).
    pub shift_x: f64,
    /// Translation in pixels.
    pub shift_y: f64,
}

impl Default for Jitter {
    fn default() -> Self {
        Jitter {
            rotation: 0.0,
            scale: 1.0,
            shift_x: 0.0,
            shift_y: 0.0,
        }
    }
}

impl Jitter {
    /// Samples a jitter uniformly within the bounds of a difficulty spec.
    pub fn sample(
        rng: &mut SplitMix64,
        max_shift: f64,
        max_rotation: f64,
        scale_jitter: f64,
    ) -> Self {
        Jitter {
            rotation: rng.next_range(-max_rotation, max_rotation),
            scale: 1.0 + rng.next_range(-scale_jitter, scale_jitter),
            shift_x: rng.next_range(-max_shift, max_shift),
            shift_y: rng.next_range(-max_shift, max_shift),
        }
    }

    /// Maps glyph points into pixel space; the rotation's `sin_cos` is
    /// evaluated once for the whole slice.
    fn apply(&self, points: &[Point], width: f64, height: f64) -> Vec<Point> {
        let (sin, cos) = self.rotation.sin_cos();
        points
            .iter()
            .map(|p| {
                // Rotate and scale about the glyph center in normalized space.
                let cx = 0.5;
                let cy = 0.5;
                let dx = (p.x - cx) * self.scale;
                let dy = (p.y - cy) * self.scale;
                let rx = cx + dx * cos - dy * sin;
                let ry = cy + dx * sin + dy * cos;
                // Map into pixel space with a small margin, then translate.
                let margin = 0.12;
                Point {
                    x: (margin + rx * (1.0 - 2.0 * margin)) * width + self.shift_x,
                    y: (margin + ry * (1.0 - 2.0 * margin)) * height + self.shift_y,
                }
            })
            .collect()
    }
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

/// A stroke segment with its bounding box grown by the cull radius.
struct Segment {
    a: Point,
    b: Point,
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl Segment {
    fn new(a: Point, b: Point, reach: f64) -> Self {
        Segment {
            a,
            b,
            x0: a.x.min(b.x) - reach,
            x1: a.x.max(b.x) + reach,
            y0: a.y.min(b.y) - reach,
            y1: a.y.max(b.y) + reach,
        }
    }
}

/// Rasterizes a set of polylines (in normalized glyph coordinates) into an
/// image, with anti-aliased strokes of the given thickness (in pixels).
///
/// Luminance falls off linearly over one pixel at the stroke boundary,
/// which mimics the anti-aliasing of scanned handwriting.
///
/// Only a segment within `half + 1` pixels of a pixel centre can set its
/// luminance. Each segment's bounding box is grown by `half + 2` (one
/// pixel of slack over that reach, far more than any rounding in
/// [`dist_to_segment`]), and a pixel centre outside it skips the segment.
/// A skipped segment is farther than every distance that can light the
/// pixel, so the image is exactly the one the all-segment minimum gives.
pub fn rasterize_strokes(
    width: usize,
    height: usize,
    strokes: &[Vec<Point>],
    thickness: f64,
    jitter: Jitter,
) -> GreyImage {
    let mut img = GreyImage::new(width, height);
    let w = width as f64;
    let h = height as f64;
    let half = thickness / 2.0;
    let reach = half + 2.0;
    let mut segments = Vec::new();
    for stroke in strokes {
        let mapped = jitter.apply(stroke, w, h);
        segments.extend(mapped.windows(2).map(|p| Segment::new(p[0], p[1], reach)));
        if let [dot] = mapped[..] {
            segments.push(Segment::new(dot, dot, reach));
        }
    }
    let mut live: Vec<&Segment> = Vec::with_capacity(segments.len());
    for y in 0..height {
        let py = y as f64 + 0.5;
        live.clear();
        live.extend(segments.iter().filter(|s| s.y0 <= py && py <= s.y1));
        for x in 0..width {
            let px = x as f64 + 0.5;
            let mut best = f64::INFINITY;
            for s in live.iter().filter(|s| s.x0 <= px && px <= s.x1) {
                best = best.min(dist_to_segment(px, py, s.a, s.b));
            }
            // 1-pixel anti-aliasing ramp outside the stroke core.
            let lum = if best <= half {
                1.0
            } else if best <= half + 1.0 {
                1.0 - (best - half)
            } else {
                0.0
            };
            img.set(x, y, sat_u8_round(lum * 255.0));
        }
    }
    img
}

/// Rasterizes a filled polygon (in normalized glyph coordinates) into an
/// image, used by the MPEG-7-like silhouette generator. Coverage is
/// estimated with 2×2 supersampling per pixel.
pub fn rasterize_polygon(
    width: usize,
    height: usize,
    polygon: &[Point],
    jitter: Jitter,
) -> GreyImage {
    let mut img = GreyImage::new(width, height);
    if polygon.len() < 3 {
        return img;
    }
    let w = width as f64;
    let h = height as f64;
    let poly = jitter.apply(polygon, w, h);
    let inside = |px: f64, py: f64| -> bool {
        // Even-odd ray casting.
        let mut crossings = 0;
        for i in 0..poly.len() {
            let a = poly[i];
            let b = poly[(i + 1) % poly.len()];
            if (a.y > py) != (b.y > py) {
                let t = (py - a.y) / (b.y - a.y);
                if px < a.x + t * (b.x - a.x) {
                    crossings += 1;
                }
            }
        }
        crossings % 2 == 1
    };
    for y in 0..height {
        for x in 0..width {
            let mut cover = 0u32;
            for (sx, sy) in [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)] {
                if inside(x as f64 + sx, y as f64 + sy) {
                    cover += 1;
                }
            }
            img.set(x, y, u8::try_from(cover * 255 / 4).unwrap_or(u8::MAX));
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_get_set_round_trip() {
        let mut img = GreyImage::new(3, 2);
        img.set(2, 1, 42);
        assert_eq!(img.get(2, 1), 42);
        assert_eq!(img.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn image_get_panics_out_of_bounds() {
        let img = GreyImage::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn blur_preserves_flat_images() {
        let mut img = GreyImage::new(5, 5);
        for y in 0..5 {
            for x in 0..5 {
                img.set(x, y, 100);
            }
        }
        img.blur3();
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(img.get(x, y), 100);
            }
        }
    }

    #[test]
    fn noise_respects_rails() {
        let mut rng = SplitMix64::new(9);
        let mut img = GreyImage::new(8, 8);
        img.add_noise(1.0, &mut rng);
        // All pixels stay valid u8 by construction; just check some moved.
        assert!(img.pixels().iter().any(|&p| p > 0));
    }

    #[test]
    fn stroke_rasterizer_marks_the_line() {
        let strokes = vec![vec![pt(0.0, 0.5), pt(1.0, 0.5)]];
        let img = rasterize_strokes(16, 16, &strokes, 1.5, Jitter::default());
        // The horizontal centerline should be bright, the corners dark.
        assert!(img.get(8, 8) > 200);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(15, 15), 0);
    }

    #[test]
    fn polygon_rasterizer_fills_interior() {
        let square = vec![pt(0.2, 0.2), pt(0.8, 0.2), pt(0.8, 0.8), pt(0.2, 0.8)];
        let img = rasterize_polygon(20, 20, &square, Jitter::default());
        assert_eq!(img.get(10, 10), 255);
        assert_eq!(img.get(0, 0), 0);
    }

    #[test]
    fn degenerate_polygon_renders_black() {
        let img = rasterize_polygon(8, 8, &[pt(0.5, 0.5)], Jitter::default());
        assert!(img.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    fn jitter_translation_moves_content() {
        let strokes = vec![vec![pt(0.5, 0.0), pt(0.5, 1.0)]];
        let base = rasterize_strokes(16, 16, &strokes, 1.5, Jitter::default());
        let shifted = rasterize_strokes(
            16,
            16,
            &strokes,
            1.5,
            Jitter {
                shift_x: 4.0,
                ..Jitter::default()
            },
        );
        assert_ne!(base.pixels(), shifted.pixels());
    }

    #[test]
    fn ascii_art_has_one_row_per_line() {
        let img = GreyImage::new(4, 3);
        let art = img.to_ascii();
        assert_eq!(art.lines().count(), 3);
        assert!(art.lines().all(|l| l.len() == 4));
    }
}
