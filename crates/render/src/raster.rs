//! Z-buffer triangle rasterization with Lambert shading.

use crate::camera::Camera;
use crate::image::Image;
use crate::math::Vec3;
use crate::mesh::TriangleMesh;

/// A color + depth framebuffer.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    color: Vec<[u8; 3]>,
    depth: Vec<f32>,
}

impl Framebuffer {
    pub fn new(width: usize, height: usize, background: [u8; 3]) -> Self {
        Self {
            width,
            height,
            color: vec![background; width * height],
            depth: vec![f32::INFINITY; width * height],
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Rasterize a mesh with a single base color, flat (per-triangle)
    /// two-sided Lambert shading from a fixed directional light.
    pub fn draw_mesh(&mut self, mesh: &TriangleMesh, camera: &Camera, base: [u8; 3]) {
        let light = Vec3 {
            x: -0.4,
            y: -0.55,
            z: 0.73,
        }
        .normalized();
        for t in 0..mesh.triangle_count() {
            let [a, b, c] = mesh.triangle(t);
            let normal = (b - a).cross(c - a).normalized();
            // Two-sided: isosurface winding is not globally consistent.
            let lambert = normal.dot(light).abs().clamp(0.0, 1.0);
            let shade = 0.25 + 0.75 * lambert;
            let rgb = [
                (base[0] as f32 * shade) as u8,
                (base[1] as f32 * shade) as u8,
                (base[2] as f32 * shade) as u8,
            ];
            let (Some(pa), Some(pb), Some(pc)) = (
                camera.project(a, self.width, self.height),
                camera.project(b, self.width, self.height),
                camera.project(c, self.width, self.height),
            ) else {
                continue;
            };
            self.fill_triangle(pa, pb, pc, rgb);
        }
    }

    /// Edge-function triangle fill with depth testing.
    fn fill_triangle(&mut self, a: [f32; 3], b: [f32; 3], c: [f32; 3], rgb: [u8; 3]) {
        let min_x = a[0].min(b[0]).min(c[0]).floor().max(0.0) as usize;
        let max_x = (a[0].max(b[0]).max(c[0]).ceil() as usize).min(self.width.saturating_sub(1));
        let min_y = a[1].min(b[1]).min(c[1]).floor().max(0.0) as usize;
        let max_y = (a[1].max(b[1]).max(c[1]).ceil() as usize).min(self.height.saturating_sub(1));
        if min_x > max_x || min_y > max_y {
            return;
        }
        let edge = |p: [f32; 2], q: [f32; 2], r: [f32; 2]| {
            (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        };
        let pa = [a[0], a[1]];
        let pb = [b[0], b[1]];
        let pc = [c[0], c[1]];
        let area = edge(pa, pb, pc);
        if area.abs() < 1e-12 {
            return; // degenerate
        }
        for y in min_y..=max_y {
            for x in min_x..=max_x {
                let p = [x as f32 + 0.5, y as f32 + 0.5];
                let w0 = edge(pb, pc, p) / area;
                let w1 = edge(pc, pa, p) / area;
                let w2 = edge(pa, pb, p) / area;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let depth = w0 * a[2] + w1 * b[2] + w2 * c[2];
                let idx = y * self.width + x;
                if depth < self.depth[idx] {
                    self.depth[idx] = depth;
                    self.color[idx] = rgb;
                }
            }
        }
    }

    /// Convert to an image.
    pub fn into_image(self) -> Image {
        let mut img = Image::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                img.set(x, y, self.color[y * self.width + x]);
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::vec3;

    fn test_camera() -> Camera {
        Camera::framing(vec3(0.0, 0.0, 0.0), vec3(10.0, 10.0, 10.0))
    }

    fn one_triangle() -> TriangleMesh {
        let mut m = TriangleMesh::new();
        m.push_triangle(
            vec3(2.0, 2.0, 5.0),
            vec3(8.0, 2.0, 5.0),
            vec3(5.0, 8.0, 5.0),
        );
        m
    }

    #[test]
    fn empty_mesh_draws_nothing() {
        let mut fb = Framebuffer::new(64, 64, [0, 0, 0]);
        fb.draw_mesh(&TriangleMesh::new(), &test_camera(), [255, 255, 255]);
        assert!(fb.depth.iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn triangle_covers_pixels() {
        let mut fb = Framebuffer::new(64, 64, [0, 0, 0]);
        fb.draw_mesh(&one_triangle(), &test_camera(), [255, 0, 0]);
        let covered = fb.depth.iter().filter(|d| d.is_finite()).count();
        assert!(covered > 40, "{covered} pixels covered");
        let img = fb.into_image();
        // Some pixel must be reddish.
        let mut found = false;
        for y in 0..64 {
            for x in 0..64 {
                let px = img.get(x, y);
                if px[0] > 40 && px[1] == 0 {
                    found = true;
                }
            }
        }
        assert!(found, "no shaded red pixels");
    }

    #[test]
    fn depth_test_prefers_near_geometry() {
        // Two overlapping triangles at different depths viewed top-down:
        // the higher-z one (nearer the camera) must win.
        let cam = Camera {
            eye: vec3(5.0, 5.0, 22.0),
            target: vec3(5.0, 5.0, 5.0),
            up: vec3(0.0, 1.0, 0.0),
            projection: crate::camera::Projection::Orthographic { half_height: 5.5 },
        };
        let mut near = TriangleMesh::new();
        near.push_triangle(
            vec3(1.0, 1.0, 8.0),
            vec3(9.0, 1.0, 8.0),
            vec3(5.0, 9.0, 8.0),
        );
        let mut far = TriangleMesh::new();
        far.push_triangle(
            vec3(1.0, 1.0, 2.0),
            vec3(9.0, 1.0, 2.0),
            vec3(5.0, 9.0, 2.0),
        );

        let mut fb = Framebuffer::new(32, 32, [0, 0, 0]);
        fb.draw_mesh(&far, &cam, [0, 0, 200]);
        fb.draw_mesh(&near, &cam, [0, 200, 0]);
        let img = fb.into_image();
        let center = img.get(16, 16);
        assert!(
            center[1] > center[2],
            "near (green) should occlude far (blue): {center:?}"
        );

        // Draw order must not matter.
        let mut fb2 = Framebuffer::new(32, 32, [0, 0, 0]);
        fb2.draw_mesh(&near, &cam, [0, 200, 0]);
        fb2.draw_mesh(&far, &cam, [0, 0, 200]);
        assert_eq!(img.get(16, 16), fb2.into_image().get(16, 16));
    }
}
