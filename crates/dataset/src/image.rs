//! Greyscale raster images and the stroke/silhouette rasterizer shared by
//! the synthetic generators.
//!
//! Images are stored as row-major `u8` luminance, exactly the 8-bit
//! greyscale format the accelerators consume ("the inputs are usually
//! n-bit values (8-bit values in our case for the pixel luminance)",
//! paper §2.1).
//!
//! The stroke rasterizer walks each segment over its own bounding box,
//! grown by the stroke's reach, and folds the segment's distance into a
//! per-pixel minimum; one pass then maps the minima through the
//! anti-aliasing ramp. The blur is a separable integer 3×3 box filter run
//! in place. Both are exact: `tests/generator_hashes.rs` pins every
//! generated split bit for bit, and `tests/raster_differential.rs` checks
//! the rasterizer against a serial per-pixel reference on random strokes.

use nc_substrate::fixed::{sat_u8_round, sat_u8_trunc, sat_usize_trunc};
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
    ///
    /// The blur is separable and exact in integers: each row's clipped
    /// vertical 3-sums, then a horizontal 3-sum of those, divided by the
    /// clipped neighbourhood's size. It runs in place, row by row, keeping
    /// a copy of the row above as it was before the blur.
    pub fn blur3(&mut self) {
        let w = self.width;
        let h = self.height;
        let mut above = vec![0u8; w];
        let mut cols = vec![0u16; w];
        for y in 0..h {
            let (row, below) = self.pixels[y * w..].split_at_mut(w);
            let mut rows = 1;
            for (c, &p) in cols.iter_mut().zip(row.iter()) {
                *c = u16::from(p);
            }
            if y > 0 {
                rows += 1;
                for (c, &p) in cols.iter_mut().zip(&above) {
                    *c += u16::from(p);
                }
            }
            if y + 1 < h {
                rows += 1;
                for (c, &p) in cols.iter_mut().zip(&below[..w]) {
                    *c += u16::from(p);
                }
            }
            above.copy_from_slice(row);
            match rows {
                3 => mean_row::<3>(row, &cols),
                2 => mean_row::<2>(row, &cols),
                _ => mean_row::<1>(row, &cols),
            }
        }
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

/// Writes the horizontal clipped 3-means of one row's vertical sums
/// `cols`, each of which adds `ROWS` pixels. `ROWS` is a constant so that
/// every divisor is known at compile time and becomes a multiply.
fn mean_row<const ROWS: u16>(row: &mut [u8], cols: &[u16]) {
    let mean = |sum: u16, n: u16| u8::try_from(sum / (n * ROWS)).unwrap_or(u8::MAX);
    let w = cols.len();
    if w == 1 {
        row[0] = mean(cols[0], 1);
        return;
    }
    row[0] = mean(cols[0] + cols[1], 2);
    row[w - 1] = mean(cols[w - 2] + cols[w - 1], 2);
    for (o, c) in row[1..w - 1].iter_mut().zip(cols.windows(3)) {
        *o = mean(c[0] + c[1] + c[2], 3);
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
        let mut mapped = Vec::new();
        self.apply_into(points, width, height, &mut mapped);
        mapped
    }

    /// [`Jitter::apply`] into `mapped`, replacing its contents.
    fn apply_into(&self, points: &[Point], width: f64, height: f64, mapped: &mut Vec<Point>) {
        let (sin, cos) = self.rotation.sin_cos();
        mapped.clear();
        mapped.extend(points.iter().map(|p| {
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
        }));
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

/// Pixel indices `0..n` whose centres `i + 0.5` can lie in `[lo, hi]`.
/// Rounding of `lo - 0.5` and `hi - 0.5` is monotonic, so the range holds
/// every such index; NaN, infinite or far-off bounds clamp to the image.
fn centre_range(lo: f64, hi: f64, n: usize) -> std::ops::Range<usize> {
    let start = sat_usize_trunc((lo - 0.5).ceil());
    let end = sat_usize_trunc((hi - 0.5).floor() + 1.0);
    start.min(n)..end.min(n)
}

/// Folds one segment's distance into `best` at every pixel centre inside
/// the segment's bounding box grown by `reach`.
fn splat_segment(best: &mut [f64], width: usize, a: Point, b: Point, reach: f64) {
    let height = best.len() / width;
    let x0 = a.x.min(b.x) - reach;
    let x1 = a.x.max(b.x) + reach;
    let y0 = a.y.min(b.y) - reach;
    let y1 = a.y.max(b.y) + reach;
    let xs = centre_range(x0, x1, width);
    for y in centre_range(y0, y1, height) {
        let py = y as f64 + 0.5;
        if !(y0 <= py && py <= y1) {
            continue;
        }
        let row = &mut best[y * width..(y + 1) * width];
        for x in xs.clone() {
            let px = x as f64 + 0.5;
            if x0 <= px && px <= x1 {
                row[x] = row[x].min(dist_to_segment(px, py, a, b));
            }
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
/// luminance. So each segment visits only the pixel centres inside its
/// bounding box grown by `half + 2` (one pixel of slack over that reach,
/// far more than any rounding in [`dist_to_segment`]) and folds its
/// distance into a per-pixel minimum; one pass then maps each minimum to
/// luminance. A skipped segment is farther than every distance that can
/// light the pixel, and every pixel folds its segments in stroke order, so
/// the image is exactly the one the all-segment minimum gives.
pub fn rasterize_strokes(
    width: usize,
    height: usize,
    strokes: &[Vec<Point>],
    thickness: f64,
    jitter: Jitter,
) -> GreyImage {
    StrokeScratch::default().rasterize(width, height, strokes, thickness, jitter)
}

/// The buffers [`rasterize_strokes`] works in: one stroke mapped to
/// pixel space and the per-pixel distance minimum. A generator that
/// keeps one across images allocates only each image's pixels.
#[derive(Debug, Default)]
pub(crate) struct StrokeScratch {
    mapped: Vec<Point>,
    best: Vec<f64>,
}

impl StrokeScratch {
    /// [`rasterize_strokes`] through these buffers.
    pub(crate) fn rasterize(
        &mut self,
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
        let StrokeScratch { mapped, best } = self;
        best.clear();
        best.resize(width * height, f64::INFINITY);
        for stroke in strokes {
            jitter.apply_into(stroke, w, h, mapped);
            for pair in mapped.windows(2) {
                splat_segment(best, width, pair[0], pair[1], reach);
            }
            if let [dot] = mapped[..] {
                splat_segment(best, width, dot, dot, reach);
            }
        }
        for (p, &d) in img.pixels.iter_mut().zip(best.iter()) {
            // 1-pixel anti-aliasing ramp outside the stroke core.
            let lum = if d <= half {
                1.0
            } else if d <= half + 1.0 {
                1.0 - (d - half)
            } else {
                0.0
            };
            *p = sat_u8_round(lum * 255.0);
        }
        img
    }
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

    /// Mean of the 3×3 neighbourhood of `(x, y)` that lies inside `img`.
    fn clipped_mean3(img: &GreyImage, x: usize, y: usize) -> u8 {
        let mut sum = 0u32;
        let mut n = 0u32;
        for ny in y.saturating_sub(1)..(y + 2).min(img.height) {
            for nx in x.saturating_sub(1)..(x + 2).min(img.width) {
                sum += u32::from(img.get(nx, ny));
                n += 1;
            }
        }
        u8::try_from(sum / n).unwrap_or(u8::MAX)
    }

    #[test]
    fn blur_is_the_clipped_nine_neighbour_mean() {
        let mut rng = SplitMix64::new(0xB1E5);
        let sizes = (1..=6)
            .flat_map(|w| (1..=9).map(move |h| (w, h)))
            .chain([(28, 28)]);
        for (w, h) in sizes {
            for _ in 0..4 {
                let mut img = GreyImage::new(w, h);
                for p in &mut img.pixels {
                    *p = rng.next_below(256) as u8;
                }
                let want: Vec<u8> = (0..h)
                    .flat_map(|y| (0..w).map(move |x| (x, y)))
                    .map(|(x, y)| clipped_mean3(&img, x, y))
                    .collect();
                img.blur3();
                assert_eq!(img.pixels(), &want[..], "{w}x{h}");
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
