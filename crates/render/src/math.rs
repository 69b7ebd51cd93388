//! Minimal 3D math: vectors and 4×4 matrices.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 3-component `f32` vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

pub const fn vec3(x: f32, y: f32, z: f32) -> Vec3 {
    Vec3 { x, y, z }
}

impl Vec3 {
    pub fn from_array(a: [f32; 3]) -> Self {
        vec3(a[0], a[1], a[2])
    }

    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    pub fn cross(self, o: Vec3) -> Vec3 {
        vec3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    pub fn length(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit vector; zero vector stays zero.
    pub fn normalized(self) -> Vec3 {
        let l = self.length();
        if l > 0.0 {
            self / l
        } else {
            self
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        vec3(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        vec3(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f32) -> Vec3 {
        vec3(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f32) -> Vec3 {
        vec3(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        vec3(-self.x, -self.y, -self.z)
    }
}

/// Column-major 4×4 matrix (`m[col][row]`), as in OpenGL conventions.
/// Matrix composition uses the `*` operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4(pub [[f32; 4]; 4]);

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, o: Mat4) -> Mat4 {
        let mut m = [[0.0f32; 4]; 4];
        for (c, col) in m.iter_mut().enumerate() {
            for (r, cell) in col.iter_mut().enumerate() {
                *cell = (0..4).map(|k| self.0[k][r] * o.0[c][k]).sum();
            }
        }
        Mat4(m)
    }
}

impl Mat4 {
    /// View matrix looking from `eye` toward `target` with up-hint `up`.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let f = (target - eye).normalized();
        let s = f.cross(up).normalized();
        let u = s.cross(f);
        Mat4([
            [s.x, u.x, -f.x, 0.0],
            [s.y, u.y, -f.y, 0.0],
            [s.z, u.z, -f.z, 0.0],
            [-s.dot(eye), -u.dot(eye), f.dot(eye), 1.0],
        ])
    }

    /// Orthographic projection onto clip space.
    pub fn orthographic(l: f32, r: f32, b: f32, t: f32, near: f32, far: f32) -> Self {
        let mut m = [[0.0; 4]; 4];
        m[0][0] = 2.0 / (r - l);
        m[1][1] = 2.0 / (t - b);
        m[2][2] = -2.0 / (far - near);
        m[3][0] = -(r + l) / (r - l);
        m[3][1] = -(t + b) / (t - b);
        m[3][2] = -(far + near) / (far - near);
        m[3][3] = 1.0;
        Mat4(m)
    }

    /// Perspective projection (vertical fov in radians).
    pub fn perspective(fov_y: f32, aspect: f32, near: f32, far: f32) -> Self {
        let f = 1.0 / (fov_y / 2.0).tan();
        let mut m = [[0.0; 4]; 4];
        m[0][0] = f / aspect;
        m[1][1] = f;
        m[2][2] = (far + near) / (near - far);
        m[2][3] = -1.0;
        m[3][2] = 2.0 * far * near / (near - far);
        Mat4(m)
    }

    /// Transform a point, returning `(x, y, z, w)` clip coordinates.
    pub fn transform(self, p: Vec3) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        let input = [p.x, p.y, p.z, 1.0];
        for (r, cell) in out.iter_mut().enumerate() {
            *cell = (0..4).map(|c| self.0[c][r] * input[c]).sum();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn vector_ops() {
        let a = vec3(1.0, 0.0, 0.0);
        let b = vec3(0.0, 1.0, 0.0);
        assert_eq!(a.cross(b), vec3(0.0, 0.0, 1.0));
        assert_eq!(a.dot(b), 0.0);
        assert!(close((a + b).length(), 2.0f32.sqrt()));
        assert!(close((a * 3.0).length(), 3.0));
        assert_eq!(vec3(0.0, 0.0, 0.0).normalized(), vec3(0.0, 0.0, 0.0));
    }

    #[test]
    fn look_at_centers_target() {
        let view = Mat4::look_at(
            vec3(0.0, 0.0, 5.0),
            vec3(0.0, 0.0, 0.0),
            vec3(0.0, 1.0, 0.0),
        );
        let out = view.transform(vec3(0.0, 0.0, 0.0));
        assert!(close(out[0], 0.0) && close(out[1], 0.0));
        assert!(
            close(out[2], -5.0),
            "target sits 5 units down -z, got {}",
            out[2]
        );
    }

    #[test]
    fn orthographic_maps_box_to_ndc() {
        let proj = Mat4::orthographic(-2.0, 2.0, -1.0, 1.0, 0.1, 10.0);
        let out = proj.transform(vec3(2.0, 1.0, -10.0));
        assert!(close(out[0], 1.0) && close(out[1], 1.0) && close(out[2], 1.0));
        let out = proj.transform(vec3(-2.0, -1.0, -0.1));
        assert!(close(out[0], -1.0) && close(out[1], -1.0) && close(out[2], -1.0));
    }

    #[test]
    fn perspective_divides_by_depth() {
        let proj = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        let near = proj.transform(vec3(0.5, 0.0, -1.0));
        let far = proj.transform(vec3(0.5, 0.0, -10.0));
        assert!(near[0] / near[3] > far[0] / far[3], "farther points shrink");
    }

    #[test]
    fn matrix_multiply_identity() {
        let m = Mat4::perspective(1.0, 1.3, 0.1, 50.0);
        let i = Mat4([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]);
        assert_eq!(m * i, m);
        assert_eq!(i * m, m);
    }
}
