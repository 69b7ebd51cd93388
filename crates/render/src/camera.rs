//! Cameras: view + projection + viewport transform.

use crate::math::{vec3, Mat4, Vec3};

/// A camera producing screen-space coordinates for the rasterizer.
#[derive(Debug, Clone, Copy)]
pub struct Camera {
    pub eye: Vec3,
    pub target: Vec3,
    pub up: Vec3,
    pub projection: Projection,
}

#[derive(Debug, Clone, Copy)]
pub enum Projection {
    /// Orthographic with the given half-height; aspect follows viewport.
    Orthographic { half_height: f32 },
    /// Perspective with vertical field of view (radians).
    Perspective { fov_y: f32 },
}

impl Camera {
    /// An orthographic camera looking at the center of a bounding box from
    /// an oblique above-southwest vantage — the framing of paper Fig 1a/1b.
    pub fn framing(lo: Vec3, hi: Vec3) -> Self {
        let center = (lo + hi) * 0.5;
        let diag = (hi - lo).length();
        let eye = center + vec3(-0.8, -1.0, 0.9) * diag;
        Self {
            eye,
            target: center,
            up: vec3(0.0, 0.0, 1.0),
            projection: Projection::Orthographic {
                half_height: diag * 0.55,
            },
        }
    }

    /// Combined view-projection matrix for a viewport of the given aspect
    /// ratio (width / height).
    pub fn view_projection(&self, aspect: f32) -> Mat4 {
        let view = Mat4::look_at(self.eye, self.target, self.up);
        let near = 0.01;
        let far = (self.target - self.eye).length() * 4.0 + 10.0;
        let proj = match self.projection {
            Projection::Orthographic { half_height } => Mat4::orthographic(
                -half_height * aspect,
                half_height * aspect,
                -half_height,
                half_height,
                near,
                far,
            ),
            Projection::Perspective { fov_y } => Mat4::perspective(fov_y, aspect, near, far),
        };
        proj * view
    }

    /// Project a world point to `(x_pixel, y_pixel, depth)`; `None` if the
    /// point is behind the camera.
    pub fn project(&self, p: Vec3, width: usize, height: usize) -> Option<[f32; 3]> {
        let clip = self
            .view_projection(width as f32 / height as f32)
            .transform(p);
        if clip[3] <= 0.0 {
            return None;
        }
        let ndc = [clip[0] / clip[3], clip[1] / clip[3], clip[2] / clip[3]];
        Some([
            (ndc[0] + 1.0) * 0.5 * width as f32,
            (1.0 - ndc[1]) * 0.5 * height as f32,
            ndc[2],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_sees_the_box_center() {
        let cam = Camera::framing(vec3(0.0, 0.0, 0.0), vec3(10.0, 10.0, 5.0));
        let p = cam.project(vec3(5.0, 5.0, 2.5), 200, 100).unwrap();
        assert!((p[0] - 100.0).abs() < 1.0, "center x: {}", p[0]);
        assert!((p[1] - 50.0).abs() < 1.0, "center y: {}", p[1]);
    }

    #[test]
    fn framing_keeps_corners_in_view() {
        let lo = vec3(0.0, 0.0, 0.0);
        let hi = vec3(10.0, 10.0, 5.0);
        let cam = Camera::framing(lo, hi);
        for corner in [lo, hi, vec3(10.0, 0.0, 0.0), vec3(0.0, 10.0, 5.0)] {
            let p = cam.project(corner, 400, 300).unwrap();
            assert!(
                p[0] >= 0.0 && p[0] <= 400.0 && p[1] >= 0.0 && p[1] <= 300.0,
                "corner {corner:?} off-screen at {p:?}"
            );
        }
    }

    #[test]
    fn behind_camera_is_rejected() {
        let cam = Camera {
            eye: vec3(0.0, 0.0, 0.0),
            target: vec3(0.0, 0.0, -1.0),
            up: vec3(0.0, 1.0, 0.0),
            projection: Projection::Perspective { fov_y: 1.0 },
        };
        assert!(cam.project(vec3(0.0, 0.0, 5.0), 100, 100).is_none());
        assert!(cam.project(vec3(0.0, 0.0, -5.0), 100, 100).is_some());
    }
}
