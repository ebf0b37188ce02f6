//! `exp` in SIMD lanes, bit for bit what the platform's `f64::exp` returns.
//!
//! The docking kernels spend a large share of their time in `exp`: two
//! calls per AD4 pair (the dielectric and the desolvation Gaussian), two per
//! Vina pair, and the same per receptor atom in both grid builds. A scalar
//! libm call cannot share a vector register, so this module ports glibc's
//! table-driven `exp` (the ARM optimized-routines algorithm glibc ships
//! since 2.28) in the evaluation order of glibc's FMA build, and runs it
//! over [`LANES`] arguments at once:
//!
//! * `exp(x) = 2^(k/N) · exp(r)` with `N = 128`, `k = round(x·N/ln 2)` and
//!   `|r| ≤ ln 2/2N`;
//! * `2^(k/N)` comes from a 128-entry table of (tail, scale) pairs whose
//!   scale gets `k/N`'s integer part added to its exponent bits;
//! * `exp(r) − 1` is a degree-5 polynomial evaluated with fused
//!   multiply-adds in exactly the order glibc's FMA build contracts them.
//!
//! Lanes outside `2⁻⁵⁴ ≤ |x| < 512`, NaN and ±∞ take libm's scalar `exp`,
//! as glibc's own special-case branch does.
//!
//! The port is only as good as its match with the libm it imitates, so it
//! is chosen once per process ([`ExpPath::selected`]): only on a CPU with
//! AVX2 and FMA, and only when a fixed probe set — every table index, the
//! range edges, the special values, and arguments whose fused and unfused
//! evaluations round differently — returns the same bits as `f64::exp`.
//! Anywhere else every call stays libm, so a result never depends on which
//! path ran.
//!
//! Inside the crate a kernel body is written once, generic over the batched
//! `exp` it calls, and instantiated twice: compiled under
//! `#[target_feature(enable = "avx2,fma")]` over the port, or as plain code
//! over `f64::exp`. The plain copy must not call the port: outside a
//! `target_feature` context `mul_add` is a software `fma()`.

use std::sync::OnceLock;

/// Arguments per batched `exp` call, and the width of every kernel body's
/// lanes: two 4-wide AVX2 registers.
pub const LANES: usize = 8;

/// Which `exp` a kernel body runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpPath {
    /// The port, in AVX2+FMA lanes. Where the CPU lacks either feature a
    /// kernel asked for this path runs [`ExpPath::Libm`] instead. Whether
    /// the port matches this platform's libm is what
    /// [`ExpPath::selected`] checks; ask for this path through it.
    Lanes,
    /// libm's scalar `f64::exp`, one argument at a time.
    Libm,
}

impl ExpPath {
    /// The path this process runs: [`ExpPath::Lanes`] when the CPU has AVX2
    /// and FMA and the port's self-check matched `f64::exp` bit for bit,
    /// else [`ExpPath::Libm`]. Decided on the first call.
    pub fn selected() -> ExpPath {
        static SELECTED: OnceLock<ExpPath> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            if lanes_supported() && self_check(|xs| exp_in_place(ExpPath::Lanes, xs)) {
                ExpPath::Lanes
            } else {
                ExpPath::Libm
            }
        })
    }
}

/// Whether the CPU can run the port's lanes (AVX2 and FMA).
fn lanes_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A batched `exp` a kernel body is instantiated over.
pub(crate) trait ExpLanes {
    /// `x[l] = x[l].exp()` for every `l < m`; lanes `m..` hold garbage
    /// afterwards.
    fn exp(x: &mut [f64; LANES], m: usize);

    /// `x[l] = x[l].exp()` for every lane with `live[l]`; the others hold
    /// garbage afterwards. An implementation may compute them anyway.
    fn exp_live(x: &mut [f64; LANES], live: &[bool; LANES]);
}

/// libm's `f64::exp`, lane by lane.
enum Libm {}

impl ExpLanes for Libm {
    #[inline(always)]
    fn exp(x: &mut [f64; LANES], m: usize) {
        for v in &mut x[..m] {
            *v = v.exp();
        }
    }

    /// Each call is a scalar libm call, so a dead lane's is skipped.
    #[inline(always)]
    fn exp_live(x: &mut [f64; LANES], live: &[bool; LANES]) {
        for (v, &live) in x.iter_mut().zip(live) {
            if live {
                *v = v.exp();
            }
        }
    }
}

/// The port over all lanes, libm for lanes outside its range. Fast only
/// inside a `target_feature(enable = "avx2,fma")` context, which [`run`]
/// gives it.
pub(crate) enum Port {}

impl ExpLanes for Port {
    #[inline(always)]
    fn exp(x: &mut [f64; LANES], m: usize) {
        // a padding lane must not send the whole batch to the slow path
        for v in &mut x[m..] {
            *v = -1.0;
        }
        let mut special = false;
        let mut y = [0.0; LANES];
        for l in 0..LANES {
            special |= !in_range(x[l]);
            y[l] = port::<true>(x[l]);
        }
        if special {
            for l in 0..m {
                if !in_range(x[l]) {
                    y[l] = x[l].exp();
                }
            }
        }
        *x = y;
    }

    /// Every lane at once: a dead lane costs nothing in a vector.
    #[inline(always)]
    fn exp_live(x: &mut [f64; LANES], _live: &[bool; LANES]) {
        Self::exp(x, LANES);
    }
}

/// A kernel body written once over an [`ExpLanes`]; [`run`] instantiates it.
pub(crate) trait Kernel {
    /// What the body returns.
    type Out;
    /// The body. Implementations mark it, and every function it calls per
    /// lane, `#[inline(always)]`, and call no closures in their loops: code
    /// left out of line is compiled without [`run`]'s target features.
    fn run<E: ExpLanes>(self) -> Self::Out;
}

/// Run `kernel` on `path`: its [`Port`] instantiation compiled for AVX2+FMA
/// when `path` is [`ExpPath::Lanes`] and the CPU has both, else its
/// [`Libm`] instantiation.
#[allow(unsafe_code)]
pub(crate) fn run<K: Kernel>(path: ExpPath, kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    if path == ExpPath::Lanes && lanes_supported() {
        // SAFETY: `run_fma` only needs the CPU features it is compiled for,
        // and `lanes_supported` just detected AVX2 and FMA.
        return unsafe { run_fma(kernel) };
    }
    let _ = path;
    kernel.run::<Libm>()
}

/// [`Kernel::run`] over the port, compiled with AVX2 and FMA enabled.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_fma<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<Port>()
}

/// `xs[i] = xs[i].exp()` for every element, [`LANES`] at a time on `path`
/// (pass [`ExpPath::selected`] for the process's own).
fn exp_in_place(path: ExpPath, xs: &mut [f64]) {
    struct Slice<'a>(&'a mut [f64]);
    impl Kernel for Slice<'_> {
        type Out = ();
        #[inline(always)]
        fn run<E: ExpLanes>(self) {
            let mut x = [0.0; LANES];
            for chunk in self.0.chunks_mut(LANES) {
                let m = chunk.len();
                x[..m].copy_from_slice(chunk);
                E::exp(&mut x, m);
                chunk.copy_from_slice(&x[..m]);
            }
        }
    }
    run(path, Slice(xs))
}

/// Table bits: `N = 2^7` entries of 2^(k/N).
const N: u64 = 128;
/// `N / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x40671547652b82fe);
/// `−ln 2 / N`, high part (its low 16 bits are zero, so `kd · NEG_LN2_HI_N`
/// is exact).
const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf762e42fefa0000);
/// `−ln 2 / N`, low part.
const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0cf79abc9e3b3a);
/// `1.5 · 2^52`: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// Coefficients of `exp(r) − 1 − r ≈ r²(C2 + r·C3) + r⁴(C4 + r·C5)`.
const C2: f64 = f64::from_bits(0x3fdffffffffffdbd);
const C3: f64 = f64::from_bits(0x3fc555555555543c);
const C4: f64 = f64::from_bits(0x3fa55555cf172b91);
const C5: f64 = f64::from_bits(0x3f81111167a4d017);
/// Biased exponents bounding the port's range: `2⁻⁵⁴ ≤ |x| < 512`.
const TOP_LO: u64 = 0x3c9;
const TOP_HI: u64 = 0x408;

/// `TAB[2k + 1] + (k << 45)` is the bit pattern of 2^(k/N) and `TAB[2k]` is
/// its relative rounding error, for `k` in `0..N`: glibc's `__exp_data.tab`.
#[rustfmt::skip]
static TAB: [u64; 2 * N as usize] = [
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// Whether the port evaluates `x` itself (`2⁻⁵⁴ ≤ |x| < 512`); NaN and ±∞
/// are outside.
#[inline(always)]
fn in_range(x: f64) -> bool {
    let top = (x.to_bits() >> 52) & 0x7ff;
    top.wrapping_sub(TOP_LO) < TOP_HI - TOP_LO
}

/// glibc's `exp` main path for one in-range argument. `FUSED` picks the
/// FMA build's evaluation order; the unfused order exists to show that the
/// self-check tells them apart.
#[inline(always)]
fn port<const FUSED: bool>(x: f64) -> f64 {
    let fma = fma::<FUSED>;
    // x = k·ln2/N + r with |r| ≤ ln2/2N
    let kd = INV_LN2_N * x + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = fma(kd, NEG_LN2_LO_N, fma(kd, NEG_LN2_HI_N, x));
    // 2^(k/N) ≈ scale · (1 + tail)
    let idx = 2 * (ki % N) as usize;
    let tail = f64::from_bits(TAB[idx]);
    let scale = f64::from_bits(TAB[idx + 1].wrapping_add(ki << 45));
    // exp(x) ≈ scale + scale · (tail + exp(r) − 1)
    let r2 = r * r;
    let tmp = fma(r2 * r2, fma(r, C5, C4), fma(r2, fma(r, C3, C2), tail + r));
    fma(scale, tmp, scale)
}

/// `a·b + c`, rounded once when `FUSED`. A plain `fn`, not a closure: a
/// closure the inliner leaves out of line loses the caller's target
/// features, and its `mul_add` becomes a libm call.
#[inline(always)]
fn fma<const FUSED: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Arguments whose fused and unfused evaluations round differently, from
/// the kernels' range and beyond.
const FMA_SENSITIVE: [f64; 8] = [
    -0.7896354042108127,
    -0.5383523269036914,
    -1.1239269434426324,
    -2.8288572066135917,
    -53.75751887837612,
    -127.36343000940309,
    -248.70109129020324,
    2.213175140229178,
];

/// The self-check's probe set: every table index from both signs, the range
/// edges, special values, and [`FMA_SENSITIVE`]. Allocates nothing.
fn probes() -> impl Iterator<Item = f64> {
    let step = std::f64::consts::LN_2 / N as f64;
    let indices = (0..N).flat_map(move |j| {
        let x = (j as f64 + 0.3) * step;
        [-x, x + 7.0 * std::f64::consts::LN_2]
    });
    let tiny = f64::from_bits(TOP_LO << 52);
    let edges = [
        0.0,
        -0.0,
        tiny,
        -tiny,
        f64::from_bits(tiny.to_bits() - 1),
        -f64::from_bits(tiny.to_bits() - 1),
        512.0,
        -512.0,
        f64::from_bits(512f64.to_bits() - 1),
        -f64::from_bits(512f64.to_bits() - 1),
        709.782712893384,
        709.79,
        -708.4,
        -745.2,
        -1000.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    indices.chain(edges).chain(FMA_SENSITIVE)
}

/// Whether `eval` (an in-place batched `exp`) returns `f64::exp`'s bits on
/// every probe, fed [`LANES`] at a time. The probe stream is run once per
/// lane offset, so that every probe passes through every lane.
fn self_check(mut eval: impl FnMut(&mut [f64])) -> bool {
    (0..LANES).all(|shift| {
        let mut it = std::iter::repeat_n(-1.0, shift).chain(probes());
        loop {
            let mut x = [0.0; LANES];
            let mut m = 0;
            for slot in &mut x {
                match it.next() {
                    Some(v) => *slot = v,
                    None => break,
                }
                m += 1;
            }
            if m == 0 {
                return true;
            }
            let want = x;
            eval(&mut x[..m]);
            if x[..m].iter().zip(&want).any(|(got, w)| got.to_bits() != w.exp().to_bits()) {
                return false;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `exp_in_place(path, ..)` against `f64::exp`, bit for bit.
    fn mismatches(path: ExpPath, xs: &[f64]) -> Vec<f64> {
        let mut got = xs.to_vec();
        exp_in_place(path, &mut got);
        xs.iter()
            .zip(&got)
            .filter(|(x, g)| g.to_bits() != x.exp().to_bits())
            .map(|(x, _)| *x)
            .collect()
    }

    /// Paths that must equal libm here: the selected one always, and libm's.
    fn paths() -> Vec<ExpPath> {
        let mut p = vec![ExpPath::Libm];
        if ExpPath::selected() == ExpPath::Lanes {
            p.push(ExpPath::Lanes);
        }
        p
    }

    #[test]
    fn batched_exp_equals_libm_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let mut xs: Vec<f64> = (0..1 << 16).map(|_| rng.gen_range(-256.0..0.0)).collect();
        // beyond the kernels' range: both signs, out to overflow and underflow
        xs.extend((0..1 << 12).map(|_| rng.gen_range(-760.0..720.0)));
        xs.extend(probes());
        for e in [-54, -53, -60, 9, 10] {
            let v = 2f64.powi(e);
            for x in [v, -v, f64::from_bits(v.to_bits() - 1), f64::from_bits(v.to_bits() + 1)] {
                xs.extend([x, -x]);
            }
        }
        xs.extend([f64::from_bits(0x000f_ffff_ffff_ffff), -f64::from_bits(0x8_0000_0000_0000)]);
        xs.extend([709.8, 710.0, 1e300, -1e300, -f64::NAN]);
        // odd lengths exercise the partial last batch
        for path in paths() {
            assert_eq!(mismatches(path, &xs), Vec::<f64>::new(), "{path:?}");
            assert_eq!(mismatches(path, &xs[..xs.len() - 3]), Vec::<f64>::new(), "{path:?}");
        }
        assert_eq!(mismatches(ExpPath::selected(), &xs), Vec::<f64>::new());
    }

    #[test]
    fn probes_cover_every_table_index_and_both_orders() {
        let mut seen = [false; N as usize];
        for x in probes().filter(|&x| in_range(x)) {
            let ki = (INV_LN2_N * x + SHIFT).to_bits();
            seen[(ki % N) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "unprobed table index");
        for x in FMA_SENSITIVE {
            assert!(in_range(x));
            assert_ne!(port::<true>(x).to_bits(), port::<false>(x).to_bits(), "{x}");
        }
    }

    #[test]
    fn the_self_check_rejects_an_unfused_evaluator() {
        let with = |fused: bool| {
            move |xs: &mut [f64]| {
                for x in xs {
                    *x = match (in_range(*x), fused) {
                        (false, _) => x.exp(),
                        (true, true) => port::<true>(*x),
                        (true, false) => port::<false>(*x),
                    };
                }
            }
        };
        // the two orders differ on the probes, so no libm passes both
        assert!(!(self_check(with(true)) && self_check(with(false))));
        assert!(self_check(|xs| exp_in_place(ExpPath::Libm, xs)));
        if ExpPath::selected() == ExpPath::Lanes {
            assert!(self_check(with(true)));
            assert!(!self_check(with(false)));
        }
        // x86_64 glibc has a fused `exp` wherever the CPU has FMA
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        assert_eq!(ExpPath::selected() == ExpPath::Lanes, lanes_supported());
    }

    #[test]
    fn the_self_check_rejects_a_lane_that_skips_the_fallback() {
        // the port for the last lane whatever its argument: ±∞ and overflow
        // come out wrong, whichever batch position they arrive in
        let last_lane_unchecked = |xs: &mut [f64]| {
            for (l, x) in xs.iter_mut().enumerate() {
                *x = if in_range(*x) || l == LANES - 1 { port::<true>(*x) } else { x.exp() };
            }
        };
        assert!(!self_check(last_lane_unchecked));
    }

    /// 10⁷ arguments over the kernels' range and 10⁶ beyond it, on the
    /// selected path. Run with `cargo test --release -p docking -- --ignored`.
    #[test]
    #[ignore]
    fn sweep_ten_million_arguments() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_5eed);
        let mut xs = vec![0.0; 1 << 20];
        let mut bad = Vec::new();
        for round in 0..11 {
            for x in &mut xs {
                *x = if round < 10 {
                    rng.gen_range(-256.0..0.0)
                } else {
                    rng.gen_range(-750.0..712.0)
                };
            }
            bad.extend(mismatches(ExpPath::selected(), &xs));
        }
        assert_eq!(bad, Vec::<f64>::new(), "on {:?}", ExpPath::selected());
    }
}
