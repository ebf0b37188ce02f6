//! Optimal rigid-body superposition (Kabsch, quaternion formulation) and
//! the aligned "minimum RMSD" it yields.
//!
//! Docking programs report unaligned RMSD (poses live in the receptor
//! frame), but redocking and pose-clustering analyses (§V.D's suggested
//! refinements) want the superposition-minimal deviation between
//! conformers. This implements the Horn/Kearsley quaternion method: the
//! optimal rotation is the eigenvector of a 4×4 symmetric matrix built from
//! the covariance of the two point sets, found here by power iteration
//! (sufficient because the spectral gap is large for molecular point sets).

use crate::vec3::{Quat, Vec3};

/// Result of an optimal superposition.
#[derive(Debug, Clone, Copy)]
struct Superposition {
    /// Rotation to apply to the second set (about its centroid).
    rotation: Quat,
    /// Translation: `aligned = rotation·(b − centroid_b) + centroid_a`.
    centroid_a: Vec3,
    /// Centroid of the mobile set.
    centroid_b: Vec3,
    /// RMSD after superposition.
    rmsd: f64,
}

/// Compute the optimal superposition of `b` onto `a`.
///
/// # Panics
/// Panics if the sets differ in length or are empty.
fn superpose(a: &[Vec3], b: &[Vec3]) -> Superposition {
    assert_eq!(a.len(), b.len(), "superpose: point sets differ in length");
    assert!(!a.is_empty(), "superpose: empty point sets");
    let n = a.len() as f64;
    let ca = a.iter().fold(Vec3::ZERO, |s, p| s + *p) / n;
    let cb = b.iter().fold(Vec3::ZERO, |s, p| s + *p) / n;

    // covariance matrix R = Σ (b−cb)(a−ca)^T
    let mut r = [[0.0f64; 3]; 3];
    for (pa, pb) in a.iter().zip(b) {
        let x = *pb - cb;
        let y = *pa - ca;
        let xv = [x.x, x.y, x.z];
        let yv = [y.x, y.y, y.z];
        for i in 0..3 {
            for j in 0..3 {
                r[i][j] += xv[i] * yv[j];
            }
        }
    }

    // Kearsley's 4×4 key matrix; its largest-eigenvalue eigenvector is the
    // optimal rotation quaternion
    let k = [
        [r[0][0] + r[1][1] + r[2][2], r[1][2] - r[2][1], r[2][0] - r[0][2], r[0][1] - r[1][0]],
        [r[1][2] - r[2][1], r[0][0] - r[1][1] - r[2][2], r[0][1] + r[1][0], r[2][0] + r[0][2]],
        [r[2][0] - r[0][2], r[0][1] + r[1][0], -r[0][0] + r[1][1] - r[2][2], r[1][2] + r[2][1]],
        [r[0][1] - r[1][0], r[2][0] + r[0][2], r[1][2] + r[2][1], -r[0][0] - r[1][1] + r[2][2]],
    ];

    // power iteration on (K + λI) to target the most-positive eigenvalue
    let shift = 2.0 * k.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs())) + 1.0;
    let mut v = [0.5f64, 0.5, 0.5, 0.5];
    for _ in 0..128 {
        let mut w = [0.0f64; 4];
        for i in 0..4 {
            w[i] = shift * v[i];
            for j in 0..4 {
                w[i] += k[i][j] * v[j];
            }
        }
        let norm = (w.iter().map(|x| x * x).sum::<f64>()).sqrt();
        if norm < 1e-30 {
            break;
        }
        for i in 0..4 {
            v[i] = w[i] / norm;
        }
    }
    let rotation = Quat { w: v[0], x: v[1], y: v[2], z: v[3] }.normalized();

    // apply and measure
    let s = Superposition { rotation, centroid_a: ca, centroid_b: cb, rmsd: 0.0 };
    let mut sum = 0.0;
    for (pa, pb) in a.iter().zip(b) {
        sum += s.apply(*pb).dist_sq(*pa);
    }
    Superposition { rmsd: (sum / n).sqrt(), ..s }
}

/// RMSD after optimal superposition (the "aligned RMSD").
pub fn aligned_rmsd(a: &[Vec3], b: &[Vec3]) -> f64 {
    superpose(a, b).rmsd
}

/// Apply a superposition to a point of the mobile set.
impl Superposition {
    /// Transform a mobile-frame point into the reference frame.
    fn apply(&self, p: Vec3) -> Vec3 {
        self.rotation.rotate(p - self.centroid_b) + self.centroid_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::Quat;

    fn cloud() -> Vec<Vec3> {
        // an asymmetric rigid cloud
        vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.5, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, 3.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-1.0, 0.5, 2.0),
        ]
    }

    #[test]
    fn identity_superposition() {
        let a = cloud();
        let s = superpose(&a, &a);
        assert!(s.rmsd < 1e-9);
    }

    #[test]
    fn recovers_pure_translation() {
        let a = cloud();
        let b: Vec<Vec3> = a.iter().map(|p| *p + Vec3::new(10.0, -5.0, 2.0)).collect();
        let s = superpose(&a, &b);
        assert!(s.rmsd < 1e-9, "translation must align perfectly, rmsd {}", s.rmsd);
    }

    #[test]
    fn recovers_pure_rotation() {
        let a = cloud();
        let q = Quat::from_axis_angle(Vec3::new(1.0, 2.0, 3.0), 1.234);
        let b: Vec<Vec3> = a.iter().map(|p| q.rotate(*p)).collect();
        let s = superpose(&a, &b);
        assert!(s.rmsd < 1e-8, "rotation must align perfectly, rmsd {}", s.rmsd);
    }

    #[test]
    fn recovers_rotation_plus_translation() {
        let a = cloud();
        let q = Quat::from_axis_angle(Vec3::new(-1.0, 0.3, 0.7), 2.8);
        let t = Vec3::new(4.0, 4.0, -9.0);
        let b: Vec<Vec3> = a.iter().map(|p| q.rotate(*p) + t).collect();
        let s = superpose(&a, &b);
        assert!(s.rmsd < 1e-8, "rigid transform must align perfectly, rmsd {}", s.rmsd);
        // applying the superposition maps b back onto a
        for (pa, pb) in a.iter().zip(&b) {
            assert!(s.apply(*pb).dist(*pa) < 1e-7);
        }
    }

    #[test]
    fn aligned_rmsd_le_unaligned() {
        let a = cloud();
        // perturb + rotate
        let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), 0.7);
        let b: Vec<Vec3> = a
            .iter()
            .enumerate()
            .map(|(i, p)| q.rotate(*p) + Vec3::new(0.05 * i as f64, 0.0, 0.1))
            .collect();
        let unaligned = crate::geometry::rmsd(&a, &b);
        let aligned = aligned_rmsd(&a, &b);
        assert!(aligned <= unaligned + 1e-12, "{aligned} vs {unaligned}");
        assert!(aligned < 0.3, "residual after alignment should be the small jitter");
    }

    #[test]
    fn detects_genuine_shape_difference() {
        let a = cloud();
        let mut b = a.clone();
        b[0] = Vec3::new(5.0, 5.0, 5.0); // a real conformational change
        let s = superpose(&a, &b);
        assert!(s.rmsd > 1.0, "shape change must survive alignment: {}", s.rmsd);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn length_mismatch_panics() {
        superpose(&[Vec3::ZERO], &[]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        superpose(&[], &[]);
    }

    #[test]
    fn two_point_degenerate_case() {
        let a = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let b = vec![Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0)];
        let s = superpose(&a, &b);
        assert!(s.rmsd < 1e-6, "two points always align: {}", s.rmsd);
    }
}
