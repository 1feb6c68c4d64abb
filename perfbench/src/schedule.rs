//! Seeded inputs: arrival schedules, sequence lengths and token ids.
//!
//! Every input the program sees is drawn here from `--seed`, so the same
//! seed gives the same schedule, lengths and tokens on every commit. The
//! generator is SplitMix64, kept local so the inputs do not depend on the
//! vendored `rand` shim.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of a seed; `stream` separates the
    /// streams of one run (arrivals, lengths, tokens, …).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// `n` stratified uniforms in random order: one draw from each of the `n`
/// equal slices of `[0, 1)` (Latin hypercube sampling). Every run then
/// sees nearly the same distribution of inputs, in a seed-specific order,
/// which keeps run-to-run spread down to what the program does.
pub fn strata(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n).map(|i| (i as f64 + rng.uniform()) / n as f64).collect();
    for i in (1..n).rev() {
        u.swap(i, rng.range(0, i));
    }
    u
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error below 1.2e-9).
#[allow(clippy::excessive_precision)] // the published coefficients, verbatim
pub fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.383577518672690e2,
        -3.066479806614716e1,
        2.506628277459239,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838,
        -2.549732539343734,
        4.374664141464968,
        2.938163982698783,
    ];
    const D: [f64; 4] =
        [7.784695709041462e-3, 3.224671290700398e-1, 2.445134137142996, 3.754408661907416];
    let p = p.clamp(1e-300, 1.0 - 1e-16);
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < 0.02425 {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - 0.02425 {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// The length at quantile `u` of a normal distribution, rounded and
/// clamped to `lo..=hi`.
pub fn clamped_normal(u: f64, mean: f64, std: f64, lo: usize, hi: usize) -> usize {
    ((mean + std * normal_quantile(u)).round().max(lo as f64) as usize).min(hi)
}

/// The integer at quantile `u` of the uniform distribution on `lo..=hi`.
pub fn uniform_int(u: f64, lo: usize, hi: usize) -> usize {
    (lo + (u * (hi - lo + 1) as f64) as usize).min(hi)
}

/// `len` token ids in `1..vocab` (0 is left out as a padding-like id).
pub fn tokens(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.range(1, vocab - 1) as u32).collect()
}

/// One encoder request of an open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed<T> {
    /// Seconds from phase start at which the request is due.
    pub due: f64,
    /// The request itself.
    pub item: T,
}

/// One generation request: prompt and the number of tokens to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct Prompt {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Tokens to generate (no EOS is configured, so exactly this many).
    pub max_new: usize,
}

/// Shape of an open-loop workload with a steady and a burst phase.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Steady-phase arrival rate per second.
    pub rate: f64,
    /// Steady-phase length in seconds.
    pub steady_s: f64,
    /// Requests per burst.
    pub burst: usize,
    /// Bursts in the burst phase.
    pub bursts: usize,
}

/// Inputs of an open-loop workload: unmeasured warm-up requests, the
/// steady schedule, and the burst backlogs.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan<T> {
    /// Served before measuring, so caches and the online cost table settle.
    pub warmup: Vec<T>,
    /// The steady phase, ordered by due time.
    pub steady: Vec<Timed<T>>,
    /// Each burst is submitted at once and drained before the next.
    pub bursts: Vec<Vec<T>>,
}

/// `n` requests, each drawn by `draw` from the token stream and one
/// stratified uniform per input dimension.
fn group<T>(
    rng: &mut Rng,
    n: usize,
    dims: usize,
    draw: &mut impl FnMut(&mut Rng, &[f64]) -> T,
) -> Vec<T> {
    let columns: Vec<Vec<f64>> = (0..dims).map(|_| strata(rng, n)).collect();
    (0..n)
        .map(|i| {
            let u: Vec<f64> = columns.iter().map(|c| c[i]).collect();
            draw(rng, &u)
        })
        .collect()
}

/// Build an open-loop plan. The steady phase has `rate × steady_s`
/// arrivals whose gaps are stratified exponential draws (a Poisson
/// process with the gap distribution fixed and the order seeded); every
/// group of requests stratifies each of the `dims` input dimensions.
pub fn open_loop<T>(
    seed: u64,
    shape: OpenLoop,
    warmup: usize,
    dims: usize,
    mut draw: impl FnMut(&mut Rng, &[f64]) -> T,
) -> Plan<T> {
    let mut arrivals = Rng::new(seed, 1);
    let mut inputs = Rng::new(seed, 2);
    let n = (shape.rate * shape.steady_s).round() as usize;
    let mut due = 0.0;
    let dues: Vec<f64> = strata(&mut arrivals, n)
        .into_iter()
        .map(|u| {
            due += -(1.0 - u).ln() / shape.rate;
            due
        })
        .collect();
    let warmup = group(&mut inputs, warmup, dims, &mut draw);
    let steady = group(&mut inputs, n, dims, &mut draw)
        .into_iter()
        .zip(dues)
        .map(|(item, due)| Timed { due, item })
        .collect();
    let bursts =
        (0..shape.bursts).map(|_| group(&mut inputs, shape.burst, dims, &mut draw)).collect();
    Plan { warmup, steady, bursts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> OpenLoop {
        OpenLoop { rate: 30.0, steady_s: 6.0, burst: 64, bursts: 4 }
    }

    fn draw(rng: &mut Rng, u: &[f64]) -> Vec<u32> {
        tokens(rng, clamped_normal(u[0], 40.0, 30.0, 4, 128), 1024)
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = open_loop(7, shape(), 16, 1, draw);
        let b = open_loop(7, shape(), 16, 1, draw);
        assert_eq!(a, b);
        assert!(!a.steady.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = open_loop(7, shape(), 16, 1, draw);
        let b = open_loop(8, shape(), 16, 1, draw);
        assert_ne!(a.steady, b.steady);
    }

    #[test]
    fn schedule_is_ordered_and_keeps_its_rate() {
        let plan = open_loop(11, OpenLoop { steady_s: 100.0, ..shape() }, 0, 1, draw);
        assert_eq!(plan.steady.len(), 3000);
        assert!(plan.steady.windows(2).all(|w| w[0].due < w[1].due));
        let last = plan.steady.last().unwrap().due;
        assert!((last - 100.0).abs() < 2.0, "3000 stratified gaps at 30/s end at {last}");
        assert_eq!(plan.bursts.len(), 4);
        assert!(plan.bursts.iter().all(|b| b.len() == 64));
    }

    #[test]
    fn strata_cover_every_slice_once() {
        let mut rng = Rng::new(9, 0);
        let mut u = strata(&mut rng, 100);
        assert_ne!(u, {
            let mut s = u.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        });
        u.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, x) in u.iter().enumerate() {
            assert!(*x >= i as f64 / 100.0 && *x < (i + 1) as f64 / 100.0);
        }
    }

    #[test]
    fn stratified_lengths_have_nearly_the_same_distribution_for_every_seed() {
        let mean = |seed| {
            let plan = open_loop(seed, shape(), 0, 1, draw);
            let lens: Vec<usize> = plan.steady.iter().map(|t| t.item.len()).collect();
            lens.iter().sum::<usize>() as f64 / lens.len() as f64
        };
        let (a, b) = (mean(1), mean(2));
        assert!((a - b).abs() < 1.0, "mean lengths {a} and {b} differ");
    }

    #[test]
    fn quantile_functions() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.001) + 3.090232).abs() < 1e-5);
        assert_eq!(clamped_normal(0.5, 40.0, 30.0, 4, 128), 40);
        assert_eq!(clamped_normal(1e-6, 40.0, 30.0, 4, 128), 4);
        assert_eq!(clamped_normal(1.0 - 1e-9, 40.0, 30.0, 4, 128), 128);
        assert_eq!(uniform_int(0.0, 8, 64), 8);
        assert_eq!(uniform_int(0.999_999, 8, 64), 64);
    }

    #[test]
    fn tokens_stay_in_range() {
        let mut rng = Rng::new(3, 0);
        assert!(tokens(&mut rng, 10_000, 41).iter().all(|&t| (1..41).contains(&t)));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let mut a = Rng::new(5, 1);
        let mut b = Rng::new(5, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
