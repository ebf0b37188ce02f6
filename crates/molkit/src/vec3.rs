//! Minimal 3D vector / quaternion math used throughout the molecular stack.
//!
//! Implemented in-repo (rather than pulling a linear-algebra crate) because
//! docking only needs a handful of operations: vector arithmetic, dot/cross,
//! norms, and quaternion rotation of points.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point or direction in 3D space (Å units everywhere in this workspace).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All three components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Squared Euclidean norm. Prefer this over `norm()` in hot loops.
    #[inline]
    fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared distance to `other`.
    #[inline]
    pub fn dist_sq(self, other: Vec3) -> f64 {
        (self - other).norm_sq()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Vec3) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Unit vector in the same direction. Returns `None` for (near-)zero vectors.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

/// A unit quaternion representing a 3D rotation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Rotation of `angle` radians around `axis`. A zero axis yields identity.
    #[inline]
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        match axis.normalized() {
            Some(a) => {
                let (s, c) = (angle * 0.5).sin_cos();
                Quat { w: c, x: a.x * s, y: a.y * s, z: a.z * s }
            }
            None => Quat::IDENTITY,
        }
    }

    /// Normalize to unit length, falling back to identity if degenerate.
    #[inline]
    pub fn normalized(self) -> Quat {
        let n = (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt();
        if n < 1e-12 {
            Quat::IDENTITY
        } else {
            Quat { w: self.w / n, x: self.x / n, y: self.y / n, z: self.z / n }
        }
    }

    /// Rotate a point about the origin.
    #[inline]
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2*q_vec × (q_vec × v + w*v)
        let q = Vec3::new(self.x, self.y, self.z);
        let t = q.cross(v) * 2.0;
        v + t * self.w + q.cross(t)
    }

    /// Uniformly sampled random rotation (Shoemake's method) given three
    /// uniform samples in [0, 1).
    pub fn from_uniform_samples(u1: f64, u2: f64, u3: f64) -> Quat {
        use std::f64::consts::TAU;
        let a = (1.0 - u1).sqrt();
        let b = u1.sqrt();
        Quat {
            w: b * (TAU * u3).cos(),
            x: a * (TAU * u2).sin(),
            y: a * (TAU * u2).cos(),
            z: b * (TAU * u3).sin(),
        }
    }
}

/// Hamilton product `self * rhs` (apply `rhs`, then `self`).
impl std::ops::Mul for Quat {
    type Output = Quat;

    #[inline]
    fn mul(self, o: Quat) -> Quat {
        Quat {
            w: self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            x: self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            y: self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            z: self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        }
    }
}

#[cfg(test)]
impl Vec3 {
    /// Linear interpolation: `self` at t = 0, `other` at t = 1.
    #[inline]
    fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn vapprox(a: Vec3, b: Vec3) -> bool {
        approx(a.x, b.x) && approx(a.y, b.y) && approx(a.z, b.z)
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec3::new(1.0, -2.0, 3.0);
        let b = Vec3::new(0.5, 4.0, -1.0);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
        assert_eq!(2.0 * a, a * 2.0);
    }

    #[test]
    fn dot_and_cross_identities() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 6.0);
        // cross product is perpendicular to both inputs
        let c = a.cross(b);
        assert!(approx(c.dot(a), 0.0));
        assert!(approx(c.dot(b), 0.0));
        // anti-commutativity
        assert!(vapprox(a.cross(b), -(b.cross(a))));
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!(approx(v.norm(), 5.0));
        assert!(approx(v.norm_sq(), 25.0));
        assert!(approx(Vec3::ZERO.dist(v), 5.0));
        assert_eq!(v.normalized().unwrap().norm(), 1.0);
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn component_min_max() {
        let a = Vec3::new(1.0, 5.0, -3.0);
        let b = Vec3::new(2.0, -1.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, -1.0, -3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 0.0));
    }

    #[test]
    fn quat_identity_rotation() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(vapprox(Quat::IDENTITY.rotate(v), v));
    }

    #[test]
    fn quat_quarter_turn_about_z() {
        let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), FRAC_PI_2);
        let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
        assert!(vapprox(v, Vec3::new(0.0, 1.0, 0.0)));
    }

    #[test]
    fn quat_half_turn_composition() {
        let axis = Vec3::new(0.0, 1.0, 0.0);
        let q = Quat::from_axis_angle(axis, FRAC_PI_2);
        let half = q.mul(q); // two quarter turns = half turn
        let direct = Quat::from_axis_angle(axis, PI);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!(vapprox(half.rotate(v), direct.rotate(v)));
    }

    #[test]
    fn quat_rotation_preserves_length() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 1.0), 1.234);
        let v = Vec3::new(-2.0, 0.5, 7.0);
        assert!(approx(q.rotate(v).norm(), v.norm()));
    }

    #[test]
    fn quat_zero_axis_is_identity() {
        let q = Quat::from_axis_angle(Vec3::ZERO, 1.0);
        assert_eq!(q, Quat::IDENTITY);
    }

    #[test]
    fn quat_uniform_samples_unit_norm() {
        let q = Quat::from_uniform_samples(0.3, 0.7, 0.1);
        let n = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z;
        assert!(approx(n, 1.0));
    }
}
